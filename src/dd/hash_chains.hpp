// Growth step shared by the demand-sized hash tables (UniqueTable,
// RealTable): an array of singly linked chains, indexed by the top `bits`
// bits of a 64-bit hash, that doubles as its population grows.

#pragma once

#include <cstddef>
#include <vector>

namespace qsimec::dd::detail {

/// Double `heads` in place and increment `bits`. `slotOf(entry)` must give
/// an entry's slot under the incremented `bits`: the top bits of its hash,
/// so old slot s splits into 2s and 2s + 1. Each chain keeps its order
/// (newest-first stays newest-first), which the real table's
/// first-within-tolerance lookup relies on. Old slots are split from the
/// top down: slot s is read before anything writes to index s (only the
/// later, smaller s / 2 does).
template <class T, class SlotOf>
void doubleChains(std::vector<T*>& heads, unsigned& bits, SlotOf slotOf) {
  const std::size_t oldCount = heads.size();
  heads.resize(2 * oldCount, nullptr);
  ++bits;
  for (std::size_t s = oldCount; s-- > 0;) {
    T* entry = heads[s];
    T** tail[2] = {&heads[2 * s], &heads[2 * s + 1]};
    *tail[0] = nullptr;
    *tail[1] = nullptr;
    while (entry != nullptr) {
      T* next = entry->next;
      T**& t = tail[slotOf(entry) & 1U];
      entry->next = nullptr;
      *t = entry;
      t = &entry->next;
      entry = next;
    }
  }
}

} // namespace qsimec::dd::detail
