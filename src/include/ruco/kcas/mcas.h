// Multi-word compare-and-swap from single-word CAS: the classic
// Harris-Fraser-Pratt construction (DISC'02, "A practical multi-word
// compare-and-swap operation") -- the primitive family of the paper's
// reference [6] (Attiya & Hendler study lower bounds for implementations
// *using* k-CAS; this is how one builds k-CAS when the hardware only has
// CAS).
//
// Layered exactly as in the paper that introduced it:
//   RDCSS  -- restricted double-compare single-swap: CAS word a2 from o2 to
//             n2 only if control word a1 still holds o1.  Implemented by
//             parking a descriptor in a2; any reader that stumbles on the
//             descriptor helps complete it.
//   MCAS   -- acquire every target word with RDCSS (control = the MCAS
//             status, so acquisition stops the instant the MCAS is
//             decided), then decide SUCCEEDED/FAILED with one CAS on the
//             status, then release every word to its new/old value.
//             Lock-free: any thread that meets a descriptor helps that
//             operation to completion before retrying its own.
//
// Tagging: cells are std::uintptr_t; values are stored shifted left by 2,
// descriptors carry tag 01 (RDCSS) or 10 (MCAS) in the low bits.  Values
// must therefore fit 61 bits plus sign -- checked, loud.
//
// Memory: descriptors are reclaimed by epochs (ruco/reclaim/ebr.h).  mcas
// pins for the whole operation.  The thread that allocated an RDCSS
// descriptor retires it once rdcss() returns (it is unparked by then and
// nothing parks it again); the owner retires the MCAS descriptor, which
// also holds the words and the owner's first-attempt RDCSS descriptors,
// after phase 2.  read() keeps a pin-free
// fast path for plain values and pins only to help.  While a thread that
// loaded a descriptor pointer is pinned the descriptor cannot be freed, so
// no address can be reused under a pending CAS: descriptor ABA stays ruled
// out, as it was when descriptors lived as long as the array.
//
// The MCAS descriptor waits two grace periods, not one.  A helper that
// read the status as undecided may have parked an RDCSS descriptor that
// still points at it, and any thread completing that RDCSS may write the
// MCAS descriptor back into its cell after the owner's phase 2 -- which
// threads pinned after the retire can then load.  Every such helper was
// pinned before the decision and runs its own phase 2 before unpinning,
// so after one grace period no cell or parked RDCSS holds the descriptor,
// and after a second no thread does.
//
// Step accounting counts every CAS/load on the cells (helping included),
// so the benchmarks show the true base-object cost of a software k-CAS:
// ~3k+1 CAS-object steps per uncontended k-word operation -- the
// constant-factor price of strengthening the primitive in software.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/runtime/padded.h"

namespace ruco::kcas {

/// One word of an MCAS: index into the array, expected and desired values.
struct McasWord {
  std::uint32_t index = 0;
  Value expected = 0;
  Value desired = 0;
};

class McasArray {
 public:
  /// n cells, all initialized to `init`, shared by `num_processes`
  /// processes; every operation takes the caller's ProcId like the rest of
  /// ruco.
  McasArray(std::uint32_t num_cells, Value init, std::uint32_t num_processes);
  McasArray(const McasArray&) = delete;
  McasArray& operator=(const McasArray&) = delete;

  /// Linearizable read of one cell (helps any parked operation first).
  [[nodiscard]] Value read(ProcId proc, std::uint32_t index);

  /// Atomically: if every word still holds its expected value, install all
  /// desired values and return true; otherwise change nothing and return
  /// false.  Words are deduplicated/validated (same index twice throws).
  bool mcas(ProcId proc, std::vector<McasWord> words);

  /// Convenience 2-CAS.
  bool dcas(ProcId proc, const McasWord& a, const McasWord& b) {
    return mcas(proc, std::vector<McasWord>{a, b});
  }

  [[nodiscard]] std::uint32_t num_cells() const noexcept {
    return static_cast<std::uint32_t>(cells_.size());
  }

  static constexpr Value kMaxValue = (Value{1} << 60) - 1;
  static constexpr Value kMinValue = -(Value{1} << 60);

 private:
  using Word = std::uintptr_t;

  enum class Status : std::uintptr_t { kUndecided = 0, kSucceeded, kFailed };

  struct McasDescriptor;

  struct RdcssDescriptor {
    std::atomic<std::uintptr_t>* control = nullptr;  // MCAS status cell
    std::uintptr_t expected_control = 0;             // kUndecided
    std::atomic<Word>* cell = nullptr;
    Word expected = 0;  // value-tagged
    Word desired = 0;   // MCAS-descriptor-tagged
  };

  // One allocation: the header, `size` words sorted by index, then `size`
  // RDCSS descriptors for the owner's first acquisition attempt of each
  // word.  Each of those is parked at most once, like a fresh one, and
  // lives as long as the MCAS descriptor; helpers and retries allocate.
  struct McasDescriptor {
    std::atomic<std::uintptr_t> status{
        static_cast<std::uintptr_t>(Status::kUndecided)};
    std::size_t size = 0;

    [[nodiscard]] std::span<McasWord> words() noexcept {
      return {reinterpret_cast<McasWord*>(this + 1), size};
    }
    [[nodiscard]] RdcssDescriptor* owner_rdcss() noexcept {
      return reinterpret_cast<RdcssDescriptor*>(words().data() + size);
    }
    [[nodiscard]] static std::size_t bytes(std::size_t size) noexcept;
    static void destroy(void* d) noexcept;
  };
  static_assert(sizeof(McasDescriptor) % alignof(McasWord) == 0);
  static_assert(sizeof(McasWord) % alignof(RdcssDescriptor) == 0);

  static constexpr Word kTagMask = 3;
  static constexpr Word kRdcssTag = 1;
  static constexpr Word kMcasTag = 2;

  static Word pack_value(Value v);
  static Value unpack_value(Word w) noexcept;
  static bool is_rdcss(Word w) noexcept { return (w & kTagMask) == kRdcssTag; }
  static bool is_mcas(Word w) noexcept { return (w & kTagMask) == kMcasTag; }

  [[nodiscard]] RdcssDescriptor* as_rdcss(Word w) const noexcept {
    return reinterpret_cast<RdcssDescriptor*>(w & ~kTagMask);
  }
  [[nodiscard]] McasDescriptor* as_mcas(Word w) const noexcept {
    return reinterpret_cast<McasDescriptor*>(w & ~kTagMask);
  }
  static Word tag_rdcss(RdcssDescriptor* d) noexcept {
    return reinterpret_cast<Word>(d) | kRdcssTag;
  }
  static Word tag_mcas(McasDescriptor* d) noexcept {
    return reinterpret_cast<Word>(d) | kMcasTag;
  }

  /// HFP Figure 2: returns the prior content of d->cell (a value-tagged
  /// word or an MCAS descriptor tag -- never an RDCSS tag).
  Word rdcss(RdcssDescriptor* d);
  void rdcss_complete(RdcssDescriptor* d);
  /// Deleter of RDCSS descriptors allocated by mcas_help.
  static void destroy_rdcss(void* d) noexcept;
  /// The descriptor of a validated, sorted word list, not yet published.
  [[nodiscard]] McasDescriptor* make_descriptor(
      const std::vector<McasWord>& words);
  /// HFP Figure 3: drives `d` to completion (possibly helping); returns
  /// whether it succeeded.  The caller is pinned; only d's owner passes
  /// `owner` = true, to use d's embedded RDCSS descriptors.
  bool mcas_help(McasDescriptor* d, bool owner = false);
  /// read()'s slow path: pins, then reloads the cell and helps until it
  /// holds a value.
  Value read_helping(std::uint32_t index);

  std::vector<runtime::PaddedAtomic<Word>> cells_;
};

}  // namespace ruco::kcas
