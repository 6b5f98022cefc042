#include "ruco/kcas/mcas.h"

#include <algorithm>
#include <memory>
#include <new>
#include <stdexcept>

#include "ruco/reclaim/ebr.h"
#include "ruco/runtime/backoff.h"
#include "ruco/runtime/memorder.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/telemetry/metrics.h"

// Memory orders (DESIGN.md "Hot-path memory orders").  Descriptors are
// cross-thread mutable state published by CASing tagged pointers into
// cells, so the discipline is the classic publication pattern:
//   * any CAS that installs a descriptor pointer: release on success (the
//     descriptor's fields were written before the install) and acquire on
//     failure (the loaded word may itself be somebody else's descriptor we
//     are about to dereference and help);
//   * any plain load whose value may be dereferenced (cell reads, status
//     control reads): acquire;
//   * CASes whose failure value is discarded (rdcss_complete's unpark,
//     phase-2 release CASes): release/relaxed;
//   * the reloads of phase 1's wait before helping: relaxed, since the
//     reloaded word is only compared with the descriptor pointer already
//     loaded (with acquire) by the RDCSS CAS, never dereferenced.
// The status word is the linearization point; its decide-CAS is acq_rel so
// the decision both publishes phase-1's acquisitions and orders phase 2
// after every acquisition it saw; read()'s status load is acquire so that
// a SUCCEEDED status also shows it every other word's acquisition (mcas.h).
// Orders are named through ruco/runtime/memorder.h so RUCO_SEQCST_ATOMICS
// can collapse them to seq_cst on weak-memory targets.

namespace ruco::kcas {

McasArray::McasArray(std::uint32_t num_cells, Value init,
                     std::uint32_t num_processes) {
  if (num_cells == 0) throw std::invalid_argument{"McasArray: 0 cells"};
  if (num_processes == 0) {
    throw std::invalid_argument{"McasArray: 0 processes"};
  }
  cells_.assign(num_cells, runtime::PaddedAtomic<Word>{pack_value(init)});
}

McasArray::Word McasArray::pack_value(Value v) {
  if (v < kMinValue || v > kMaxValue) {
    throw std::out_of_range{"McasArray: value outside 61-bit range"};
  }
  return static_cast<Word>(static_cast<std::uint64_t>(v) << 2);
}

Value McasArray::unpack_value(Word w) noexcept {
  // Arithmetic shift back (sign-preserving for negative values).
  return static_cast<Value>(static_cast<std::int64_t>(w) >> 2);
}

void McasArray::rdcss_complete(RdcssDescriptor* d) {
  runtime::step_tick();
  const std::uintptr_t control = d->control->load(runtime::mo_acquire);
  Word parked = tag_rdcss(d);
  const Word next =
      control == d->expected_control ? d->desired : d->expected;
  runtime::step_tick();
  d->cell->compare_exchange_strong(parked, next, runtime::mo_release,
                                   runtime::mo_relaxed);
}

McasArray::Word McasArray::rdcss(RdcssDescriptor* d) {
  runtime::Backoff backoff;
  for (;;) {
    Word current = d->expected;
    runtime::step_tick();
    if (d->cell->compare_exchange_strong(current, tag_rdcss(d),
                                         runtime::mo_acq_rel,
                                         runtime::mo_acquire)) {
      rdcss_complete(d);
      return d->expected;
    }
    if (is_rdcss(current)) {
      // Someone else's acquisition is parked here: finish it and retry,
      // backing off (bounded) before re-contending the cell.
      telemetry::prod().mcas_rdcss_helps.inc();
      rdcss_complete(as_rdcss(current));
      backoff.pause();
      continue;
    }
    return current;  // a plain value or an MCAS descriptor
  }
}

std::size_t McasArray::McasDescriptor::bytes(std::size_t size) noexcept {
  return sizeof(McasDescriptor) +
         size * (sizeof(McasWord) + sizeof(RdcssDescriptor));
}

void McasArray::McasDescriptor::destroy(void* d) noexcept {
  reclaim::deallocate(d, bytes(static_cast<McasDescriptor*>(d)->size));
}

void McasArray::destroy_rdcss(void* d) noexcept {
  reclaim::deallocate(d, sizeof(RdcssDescriptor));
}

McasArray::McasDescriptor* McasArray::make_descriptor(
    std::span<const McasWord> words) {
  const std::size_t n = words.size();
  void* mem = reclaim::allocate(McasDescriptor::bytes(n));
  auto* d = ::new (mem) McasDescriptor;
  d->size = n;
  std::uninitialized_copy(words.begin(), words.end(), d->words().begin());
  for (std::size_t i = 0; i < n; ++i) {
    ::new (d->owner_rdcss() + i) RdcssDescriptor{
        &d->status, static_cast<std::uintptr_t>(Status::kUndecided),
        &cells_[words[i].index].value, pack_value(words[i].expected),
        tag_mcas(d)};
  }
  return d;
}

bool McasArray::mcas_help(McasDescriptor* d, bool owner) {
  runtime::step_tick();
  if (d->status.load(runtime::mo_acquire) ==
      static_cast<std::uintptr_t>(Status::kUndecided)) {
    // Phase 1: acquire every word, wedging our descriptor in, unless the
    // operation gets decided under us (the RDCSS control check) or a word
    // no longer matches.
    auto desired_status = static_cast<std::uintptr_t>(Status::kSucceeded);
    for (std::size_t i = 0; i < d->size; ++i) {
      const McasWord& word = d->words()[i];
      RdcssDescriptor* embedded = owner ? d->owner_rdcss() + i : nullptr;
      for (;;) {
        RdcssDescriptor* rd = embedded;
        if (rd == nullptr) {
          rd = ::new (reclaim::allocate(sizeof(RdcssDescriptor)))
              RdcssDescriptor{&d->status,
                              static_cast<std::uintptr_t>(Status::kUndecided),
                              &cells_[word.index].value,
                              pack_value(word.expected), tag_mcas(d)};
        }
        const Word content = rdcss(rd);
        if (rd == embedded) {
          embedded = nullptr;  // used up; freed with d
        } else {
          // rdcss() unparked rd before returning and only it parks rd, so
          // no thread that pins from now on can reach it.
          reclaim::retire(rd, &destroy_rdcss);
        }
        if (is_mcas(content)) {
          if (as_mcas(content) != d) {
            // A different MCAS holds the word.  Its owner is usually about
            // to release it, and a helper would race the owner on the same
            // lines: wait first, and help only an operation that stays.
            if (still_held_after_wait(cells_[word.index].value, content)) {
              telemetry::prod().mcas_helps.inc();
              mcas_help(as_mcas(content));
            }
            continue;
          }
          break;  // already acquired for d (by a helper)
        }
        if (content != pack_value(word.expected)) {
          telemetry::prod().mcas_cas_failures.inc();
          desired_status = static_cast<std::uintptr_t>(Status::kFailed);
        }
        break;
      }
      if (desired_status ==
          static_cast<std::uintptr_t>(Status::kFailed)) {
        break;
      }
    }
    auto expected_status =
        static_cast<std::uintptr_t>(Status::kUndecided);
    runtime::step_tick();
    d->status.compare_exchange_strong(expected_status, desired_status,
                                      runtime::mo_acq_rel,
                                      runtime::mo_acquire);
  }
  // Phase 2: release every word to its decided value.
  runtime::step_tick();
  const bool success =
      d->status.load(runtime::mo_acquire) ==
      static_cast<std::uintptr_t>(Status::kSucceeded);
  for (const McasWord& word : d->words()) {
    Word parked = tag_mcas(d);
    runtime::step_tick();
    cells_[word.index].value.compare_exchange_strong(
        parked, pack_value(success ? word.desired : word.expected),
        runtime::mo_release, runtime::mo_relaxed);
  }
  return success;
}

bool McasArray::still_held_after_wait(const std::atomic<Word>& cell,
                                      Word held) {
  for (std::uint32_t i = 0; i < kHelpWaitPauses; ++i) {
    runtime::cpu_pause();
    runtime::step_tick();
    if (cell.load(runtime::mo_relaxed) != held) return false;
  }
  return true;
}

Value McasArray::read(ProcId /*proc*/, std::uint32_t index) {
  runtime::step_tick();
  const Word w = cells_[index].value.load(runtime::mo_acquire);
  if ((w & kTagMask) == 0) [[likely]] return unpack_value(w);
  // A descriptor, loaded unpinned: it may be freed already, so pin and
  // reload rather than dereference it.
  return read_resolving(index);
}

Value McasArray::read_resolving(std::uint32_t index) {
  const reclaim::Guard pin;
  runtime::step_tick();
  const Word w = cells_[index].value.load(runtime::mo_acquire);
  if (is_rdcss(w)) return unpack_value(as_rdcss(w)->expected);
  if (!is_mcas(w)) return unpack_value(w);
  McasDescriptor* d = as_mcas(w);
  runtime::step_tick();
  const bool succeeded = d->status.load(runtime::mo_acquire) ==
                         static_cast<std::uintptr_t>(Status::kSucceeded);
  const auto words = d->words();
  const auto word = std::find_if(
      words.begin(), words.end(),
      [index](const McasWord& x) { return x.index == index; });
  return succeeded ? word->desired : word->expected;
}

bool McasArray::mcas(ProcId /*proc*/, std::vector<McasWord> words) {
  return run(words);
}

bool McasArray::dcas(ProcId /*proc*/, const McasWord& a, const McasWord& b) {
  McasWord words[] = {a, b};
  return run(words);
}

bool McasArray::run(std::span<McasWord> words) {
  if (words.empty()) return true;
  std::sort(words.begin(), words.end(),
            [](const McasWord& a, const McasWord& b) {
              return a.index < b.index;
            });
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (words[i].index >= cells_.size()) {
      throw std::out_of_range{"McasArray::mcas: index out of range"};
    }
    if (i > 0 && words[i].index == words[i - 1].index) {
      throw std::invalid_argument{"McasArray::mcas: duplicate index"};
    }
    (void)pack_value(words[i].expected);  // range checks, loud
    (void)pack_value(words[i].desired);
  }
  telemetry::prod().mcas_ops.inc();
  const reclaim::Guard pin;
  McasDescriptor* d = make_descriptor(words);
  const bool ok = mcas_help(d, /*owner=*/true);
  // Two grace periods: helpers may write d back after phase 2 (mcas.h).
  reclaim::retire(d, &McasDescriptor::destroy, /*grace_periods=*/2);
  return ok;
}

}  // namespace ruco::kcas
