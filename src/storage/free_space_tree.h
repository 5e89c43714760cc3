#ifndef WATTDB_STORAGE_FREE_SPACE_TREE_H_
#define WATTDB_STORAGE_FREE_SPACE_TREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace wattdb::storage {

/// Max-tree over the free bytes of a segment's pages, one leaf per page.
/// Finds the first page at or after a given index with at least `need` free
/// bytes in O(log pages), which keeps a segment's insert path from probing
/// every partly filled page on each insert.
///
/// The leaves are sized to the next power of two of the page count and
/// double as pages are appended, so a small segment carries a small tree.
class FreeSpaceTree {
 public:
  static constexpr size_t kNone = std::numeric_limits<size_t>::max();

  /// Add a leaf for a new last page with `free` bytes.
  void Append(size_t free) {
    if (size_ == leaves_) Grow();
    ++size_;
    Set(size_ - 1, free);
  }

  /// Set the leaf of page `page`. Climbing stops at the first node whose
  /// maximum does not change, at the leaf itself when its value is the same.
  void Set(size_t page, size_t free) {
    size_t n = leaves_ + page;
    const auto value = static_cast<uint16_t>(free);
    if (nodes_[n] == value) return;
    nodes_[n] = value;
    for (n /= 2; n >= 1; n /= 2) {
      const uint16_t max = std::max(nodes_[2 * n], nodes_[2 * n + 1]);
      if (nodes_[n] == max) return;
      nodes_[n] = max;
    }
  }

  /// First page at or after `from` with at least `need` free bytes, or
  /// kNone. `need` must be positive: the padding leaves hold 0.
  size_t FirstAtLeast(size_t from, size_t need) const {
    if (from >= size_) return kNone;
    // Climb: move right over whole subtrees until one holds a match.
    size_t n = leaves_ + from;
    while (nodes_[n] < need) {
      while (n % 2 == 1) n /= 2;  // Right child: its parent ends here too.
      if (n == 0) return kNone;   // Climbed past the root.
      ++n;                        // Left child: try its right sibling.
    }
    // Descend to the leftmost leaf of that subtree that holds a match.
    while (n < leaves_) {
      n *= 2;
      if (nodes_[n] < need) ++n;
    }
    return n - leaves_;
  }

 private:
  /// Double the leaf count (1 to start) and rebuild the inner nodes.
  void Grow() {
    const size_t leaves = leaves_ == 0 ? 1 : 2 * leaves_;
    std::vector<uint16_t> nodes(2 * leaves, 0);
    std::copy(nodes_.begin() + leaves_, nodes_.begin() + leaves_ + size_,
              nodes.begin() + leaves);
    for (size_t n = leaves - 1; n >= 1; --n) {
      nodes[n] = std::max(nodes[2 * n], nodes[2 * n + 1]);
    }
    nodes_ = std::move(nodes);
    leaves_ = leaves;
  }

  /// 1-based heap: node n has children 2n and 2n+1; the leaves sit at
  /// [leaves_, 2 * leaves_), page i at leaves_ + i. Page free bytes never
  /// exceed kPageSize, so 16 bits hold them.
  std::vector<uint16_t> nodes_;
  size_t leaves_ = 0;
  size_t size_ = 0;
};

}  // namespace wattdb::storage

#endif  // WATTDB_STORAGE_FREE_SPACE_TREE_H_
