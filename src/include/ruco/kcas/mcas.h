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
//             parking a descriptor in a2; an acquirer that stumbles on the
//             descriptor completes it.
//   MCAS   -- acquire every target word with RDCSS (control = the MCAS
//             status, so acquisition stops the instant the MCAS is
//             decided), then decide SUCCEEDED/FAILED with one CAS on the
//             status, then release every word to its new/old value.
//             Lock-free: an acquirer that meets another operation's
//             descriptor watches the word for a bounded spin (its owner is
//             usually about to release it) and helps that operation to
//             completion only if the descriptor is still there.
//
// Reads are wait-free and never help (the read of Guerraoui, Kogan,
// Marathe & Zablotchi, "Efficient Multi-word Compare and Swap", DISC
// 2020): a read that meets a descriptor returns the cell's *logical*
// value, in at most three steps.
//   * A cell holding an RDCSS descriptor has that descriptor's `expected`
//     as its logical value.  The park CAS replaced exactly `expected`, and
//     the descriptor is unparked once: back to `expected`, or -- if the
//     unpark loaded the status as undecided -- to its MCAS descriptor,
//     whose operation cannot succeed while this word is not yet acquired
//     for it.
//   * A cell holding an MCAS descriptor has the word's `desired` as its
//     logical value if the status is SUCCEEDED and its `expected`
//     otherwise.  A descriptor leaves a cell only in phase 2, after the
//     decision, so a status read as undecided means the operation has not
//     linearized and the cell still holds `expected`; a status read as
//     SUCCEEDED linearizes the read at the later of its cell load and the
//     decision.  A FAILED operation changes nothing: the descriptor
//     replaced `expected` and phase 2 puts it back.
// The status load is acquire: reading SUCCEEDED must also make every
// other word's acquisition visible, or a following read of another word
// of the same operation could still see its old value.
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
// after phase 2.  read() keeps a pin-free fast path for plain values and
// pins only to resolve a descriptor.  While a thread that loaded a
// descriptor pointer is pinned the descriptor cannot be freed, so no
// address can be reused under a pending CAS: descriptor ABA stays ruled
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
// Step accounting counts every CAS/load on the cells and status words
// (helping and the wait before helping included), so the benchmarks show
// the true base-object cost of a software k-CAS: ~3k+1 CAS-object steps
// per uncontended k-word operation -- the constant-factor price of
// strengthening the primitive in software.
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

  /// Linearizable, wait-free read of one cell: one step on a plain value;
  /// on a descriptor it pins, reloads and returns the cell's logical value
  /// (two steps for an RDCSS descriptor, three for an MCAS one, whose
  /// status it loads) and never helps.
  [[nodiscard]] Value read(ProcId proc, std::uint32_t index);

  /// Atomically: if every word still holds its expected value, install all
  /// desired values and return true; otherwise change nothing and return
  /// false.  Words are deduplicated/validated (same index twice throws).
  bool mcas(ProcId proc, std::vector<McasWord> words);

  /// Convenience 2-CAS; allocates nothing besides the descriptor.
  bool dcas(ProcId proc, const McasWord& a, const McasWord& b);

  [[nodiscard]] std::uint32_t num_cells() const noexcept {
    return static_cast<std::uint32_t>(cells_.size());
  }

  static constexpr Value kMaxValue = (Value{1} << 60) - 1;
  static constexpr Value kMinValue = -(Value{1} << 60);

 private:
  friend struct McasArrayTestPeer;  // white-box tests of read()

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

  /// Pauses phase 1 spends watching a word that another operation holds
  /// before it helps that operation (~5 us at ~20 ns per pause): long
  /// enough for a running owner to release the word, bounded so that an
  /// owner that stalls is still helped and mcas stays lock-free.
  static constexpr std::uint32_t kHelpWaitPauses = 256;

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
      std::span<const McasWord> words);
  /// mcas() and dcas(): sorts `words` in place, validates and runs them.
  bool run(std::span<McasWord> words);
  /// HFP Figure 3: drives `d` to completion (possibly helping); returns
  /// whether it succeeded.  The caller is pinned; only d's owner passes
  /// `owner` = true, to use d's embedded RDCSS descriptors.
  bool mcas_help(McasDescriptor* d, bool owner = false);
  /// Phase 1's wait before helping: reloads `cell` after each pause, up to
  /// kHelpWaitPauses, and returns whether it still holds `held`.
  static bool still_held_after_wait(const std::atomic<Word>& cell, Word held);
  /// read()'s slow path: pins, reloads the cell and resolves a descriptor
  /// to the cell's logical value without helping.
  Value read_resolving(std::uint32_t index);

  std::vector<runtime::PaddedAtomic<Word>> cells_;
};

}  // namespace ruco::kcas
