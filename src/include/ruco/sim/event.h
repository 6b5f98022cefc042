// Events and enabled events ("pending" primitives) of the paper's execution
// model (Section 2): a step is one application of read, write or CAS to a
// base object.
//
// Both records are flat and trivially copyable: every simulated step copies
// a Pending and appends an Event, so neither may own heap memory.  The words
// of a k-CAS live out of line -- in the Trace's word pool for an Event, in
// the suspended k-CAS awaiter for a Pending.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ruco/core/types.h"

namespace ruco::sim {

using ObjectId = std::uint32_t;

enum class Prim : std::uint8_t { kRead, kWrite, kCas, kKcas };

[[nodiscard]] const char* to_string(Prim p) noexcept;

/// One word of a k-CAS: succeed iff every word matches its expected value,
/// then install every desired value atomically.  k-CAS is the stronger
/// primitive of Attiya & Hendler (reference [6] of the paper), whose
/// generalized Lemma 1 the sim reproduces; it is NOT available to the
/// paper's own theorems (which assume k = 1).
struct KcasEntry {
  ObjectId obj = 0;
  Value expected = 0;
  Value desired = 0;

  friend bool operator==(const KcasEntry&, const KcasEntry&) = default;
};

/// The one enabled event of an active process (Section 2: "it has exactly
/// one enabled event").  The adversary schedulers inspect these *before*
/// deciding whom to run -- e.g. to tell which CAS events would succeed.
struct Pending {
  Value arg = 0;       // write value / CAS desired
  Value expected = 0;  // CAS expected
  /// kKcas only: the words, owned by the k-CAS awaiter in the process's
  /// suspended coroutine frame.  Valid until that process's next step,
  /// its crash, or System::reset -- copy the words to keep them longer.
  std::span<const KcasEntry> kcas = {};
  ObjectId obj = 0;  // kKcas: mirrors kcas[0].obj
  Prim prim = Prim::kRead;
};

/// An applied event, as recorded in the execution trace.  A k-CAS event's
/// words are [kcas_first, kcas_first + kcas_count) of its Trace's word
/// pool; read them with Trace::words.
struct Event {
  Value arg = 0;       // write value / CAS desired
  Value expected = 0;  // CAS expected
  Value observed = 0;  // read: value returned; CAS/k-CAS: 1 if succeeded
  ProcId proc = 0;
  ObjectId obj = 0;
  std::uint32_t kcas_first = 0;
  std::uint16_t kcas_count = 0;
  Prim prim = Prim::kRead;
  bool changed : 1 = false;  // non-trivial: the event changed a value
  /// Weak-CAS fault mode (System::step_spurious): the CAS failed without
  /// regard to the object's value, as an LL/SC-style CAS may.  Only ever
  /// true for kCas events with observed == 0.  replay_trace honors the
  /// flag so faulty executions replay exactly.
  bool spurious : 1 = false;

  /// Same process, object(s), primitive and arguments (not response).
  /// `words` and `other_words` are the two events' k-CAS words, read
  /// through their traces (Trace::words); a k-CAS event given fewer words
  /// than it has never matches.
  [[nodiscard]] bool same_action(
      const Event& other, std::span<const KcasEntry> words = {},
      std::span<const KcasEntry> other_words = {}) const noexcept;

  /// `words`: this event's k-CAS words (Trace::words), rendered in full.
  [[nodiscard]] std::string to_string(
      std::span<const KcasEntry> words = {}) const;
};

/// An execution is a sequence of events (Section 2).  The k-CAS words of
/// its events sit in one pool beside them, so a copy of a Trace is
/// self-contained and an Event stays a flat record.
class Trace {
 public:
  using const_iterator = std::vector<Event>::const_iterator;

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] const Event& operator[](std::size_t i) const noexcept {
    return events_[i];
  }
  [[nodiscard]] const Event& back() const noexcept { return events_.back(); }
  [[nodiscard]] const_iterator begin() const noexcept {
    return events_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return events_.end(); }

  /// Appends `e` with its k-CAS words (empty for the other primitives),
  /// copied into this trace's pool; e's word range is rewritten to point
  /// at the copy, so `e` may come from another trace.  Throws
  /// std::length_error on more than 65535 words.
  void push_back(Event e, std::span<const KcasEntry> words = {}) {
    if (words.size() > UINT16_MAX) {
      throw std::length_error{"Trace::push_back: more than 65535 words"};
    }
    e.kcas_first = static_cast<std::uint32_t>(words_.size());
    e.kcas_count = static_cast<std::uint16_t>(words.size());
    if (!words.empty()) {
      words_.insert(words_.end(), words.begin(), words.end());
    }
    events_.push_back(e);
  }
  void reserve(std::size_t events) { events_.reserve(events); }
  void clear() noexcept {
    events_.clear();
    words_.clear();
  }

  /// The k-CAS words of an event of this trace (empty unless kKcas).
  [[nodiscard]] std::span<const KcasEntry> words(
      const Event& e) const noexcept {
    return {words_.data() + e.kcas_first, e.kcas_count};
  }

 private:
  std::vector<Event> events_;
  std::vector<KcasEntry> words_;
};

/// E^{-P}: the trace with every event of the given processes removed
/// (the notation of Lemma 2 / Claim 1).  `erase[p]` true means drop p.
[[nodiscard]] Trace erase_processes(const Trace& trace,
                                    const std::vector<bool>& erase);

}  // namespace ruco::sim
