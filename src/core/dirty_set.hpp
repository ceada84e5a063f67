#pragma once
// DirtySet — deduplicating dirty-mark collector over a dense id space.
//
// Marks live in a two-level bitmap: one bit per id in 64-bit words, plus one
// summary bit per word that is set while the word holds any mark. add() is
// O(1) and drops duplicates at insert, so hot paths can mark the same id
// many times (the traffic model touches every relay on every route change).
// flush() walks the summary, then each marked word, so it visits the marks
// in ascending id order without sorting them: O(id space / 4096 + marks).
// ids() keeps the marks in insertion order as well; that list is what the
// snapshot codec writes, and what clear() walks to stay O(marks).

#include <bit>
#include <cstdint>
#include <vector>

#include "core/error.hpp"

namespace wrsn {

class DirtySet {
 public:
  DirtySet() = default;
  explicit DirtySet(std::size_t n) { reset(n); }

  // Drops all marks and resizes the id space to [0, n).
  void reset(std::size_t n) {
    words_.assign((n + 63) / 64, 0);
    summary_.assign((words_.size() + 63) / 64, 0);
    ids_.clear();
  }

  void add(std::size_t id) {
    const std::size_t w = id >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((words_[w] & bit) != 0) return;
    words_[w] |= bit;
    summary_[w >> 6] |= std::uint64_t{1} << (w & 63);
    ids_.push_back(id);
  }

  [[nodiscard]] bool contains(std::size_t id) const {
    return ((words_[id >> 6] >> (id & 63)) & 1) != 0;
  }
  [[nodiscard]] bool empty() const { return ids_.empty(); }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  // The marks in insertion order.
  [[nodiscard]] const std::vector<std::size_t>& ids() const { return ids_; }

  // Calls f(id) for every mark in ascending id order, then un-marks
  // everything. `f` must not add marks.
  template <typename F>
  void flush(F&& f) {
    if (ids_.empty()) return;
    const std::size_t marks = ids_.size();
    for (std::size_t sw = 0; sw < summary_.size(); ++sw) {
      std::uint64_t summary = summary_[sw];
      summary_[sw] = 0;
      while (summary != 0) {
        const std::size_t w =
            (sw << 6) + static_cast<std::size_t>(std::countr_zero(summary));
        summary &= summary - 1;
        std::uint64_t bits = words_[w];
        words_[w] = 0;
        while (bits != 0) {
          f((w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
          bits &= bits - 1;
        }
      }
    }
    WRSN_ASSERT(ids_.size() == marks, "DirtySet::flush callback added a mark");
    ids_.clear();
  }

  // Un-marks everything; O(marks), not O(id space). Every bit of a marked
  // word belongs to a mark in ids_, so whole words (and their summary words)
  // are zeroed.
  void clear() {
    for (const std::size_t id : ids_) {
      words_[id >> 6] = 0;
      summary_[id >> 12] = 0;
    }
    ids_.clear();
  }

  // True when no word or summary bit is set. O(id space); for tests.
  [[nodiscard]] bool bits_clear() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) return false;
    }
    for (const std::uint64_t s : summary_) {
      if (s != 0) return false;
    }
    return true;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;
  std::vector<std::size_t> ids_;
};

}  // namespace wrsn
