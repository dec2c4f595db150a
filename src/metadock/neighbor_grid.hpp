#pragma once

/// \file neighbor_grid.hpp
/// Dense uniform grid over the stored points' bounding box. With a
/// scoring cutoff of r_c, each ligand atom only needs the receptor atoms
/// in the 27 cells around it, turning the O(n*m) pair loop of Algorithm 1
/// into an output-sensitive sweep — the same pruning METADOCK's GPU
/// kernels perform by tiling the receptor surface into independent spots.
///
/// Data-oriented layout: cells live in a dense 3-D array indexed by
/// integer coordinates (no hashing), points are stored as one permutation
/// grouped by cell (`cellOrder`), and every in-box cell carries a
/// precomputed flat list of the contiguous point ranges covering its
/// 27-neighbourhood. Because cells adjacent in x are adjacent in the
/// packed order, the 27 cells merge into at most 9 ranges (one per
/// (y, z) row), so a query is integer math plus up to 9 contiguous range
/// walks — the shape the SoA scoring kernel streams.
///
/// Optionally each cell is further subdivided into subdiv^3 subcells and
/// points within a cell are grouped by subcell (`subOffsets`). Cell-level
/// queries are unaffected (the permutation still groups by cell), but
/// consumers that know a query region tighter than the 27-cell
/// neighbourhood — the pose-batched scoring kernel slicing the cutoff
/// sphere around a batch of poses — can skip whole subcells whose minimum
/// distance to the region exceeds the cutoff.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/vec3.hpp"

namespace dqndock::metadock {

class NeighborGrid {
 public:
  /// Contiguous slice [first, first + count) of the cell-sorted order.
  struct Range {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  /// A 27-cell neighbourhood merges into at most 9 x-rows.
  static constexpr int kMaxQueryRanges = 9;

  /// Conservative fp slack for cutoff geometry over the grid: inflating a
  /// reach (or a subcell box) by it lets floor/division rounding only add
  /// cells, never drop a point within the un-inflated distance.
  static constexpr double kGeomMargin = 1e-6;

  /// Inclusive in-box cell window [x0, x1] x [y0, y1] x [z0, z1].
  struct CellWindow {
    int x0 = 0, x1 = -1, y0 = 0, y1 = -1, z0 = 0, z1 = -1;

    std::size_t cellCount() const {
      return static_cast<std::size_t>(x1 - x0 + 1) * static_cast<std::size_t>(y1 - y0 + 1) *
             static_cast<std::size_t>(z1 - z0 + 1);
    }
  };

  /// Builds a grid with cell edge `cellSize` (usually the scoring cutoff)
  /// over `points`. cellSize must be > 0. `subdiv` >= 2 additionally
  /// groups the points of every cell by subdiv^3 subcells (see
  /// subOffsets); 1 keeps the flat per-cell grouping.
  NeighborGrid(std::span<const Vec3> points, double cellSize, int subdiv = 1);

  double cellSize() const { return cell_; }
  std::size_t pointCount() const { return order_.size(); }

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  const Vec3& origin() const { return origin_; }

  /// Requested per-axis subdivision factor (>= 1).
  int subdiv() const { return subdiv_; }
  /// True when the per-subcell CSR was built (subdiv >= 2 and the cell
  /// count is small enough for the table).
  bool hasSubcells() const { return !subOffsets_.empty(); }
  /// CSR over cellOrder(): subcell s of cell c holds the points
  /// order_[subOffsets()[c * subdiv^3 + s] .. subOffsets()[c * subdiv^3 + s + 1]),
  /// where s = (sz * subdiv + sy) * subdiv + sx from the point's offset
  /// inside its cell. Empty unless hasSubcells().
  const std::vector<std::uint32_t>& subOffsets() const { return subOffsets_; }

  /// Cell coordinates of `query` (same arithmetic as queryRanges, so the
  /// two never disagree). Returns false when the query is so far outside
  /// the box that its clamped 27-cell window cannot overlap any cell; the
  /// coordinates are unclamped and may lie outside [0, n) otherwise.
  bool cellCoords(const Vec3& query, int& cx, int& cy, int& cz) const;

  /// Point indices (into the constructor's array) grouped by cell in
  /// dense linear-cell order; stable by original index within a cell
  /// (within a subcell when subdivided). This is the packed order SoA
  /// consumers sort their arrays by.
  const std::vector<std::uint32_t>& cellOrder() const { return order_; }

  /// numCells+1 prefix sums into cellOrder() by dense linear cell index.
  const std::vector<std::uint32_t>& cellOffsets() const { return offsets_; }

  /// Dense linear index of in-box cell (x, y, z); x varies fastest, so
  /// cells adjacent in x hold adjacent slices of cellOrder().
  std::size_t cellLinearIndex(int x, int y, int z) const { return cellIndex(x, y, z); }

  /// Fills `out` (capacity >= kMaxQueryRanges) with the contiguous
  /// cell-sorted ranges covering the 27-cell neighbourhood of `query`;
  /// returns the number of ranges written. Ranges index the *packed*
  /// order, i.e. points are order_[first..first+count). Queries anywhere
  /// in space are valid; far-outside queries yield 0 ranges.
  int queryRanges(const Vec3& query, Range* out) const;

  /// Sets `out` to the in-box cells that can hold a point within `reach`
  /// of the axis-aligned box [lo, hi] (lo == hi for one point); callers
  /// pass reach = cutoff + kGeomMargin. Returns false when that window
  /// misses the grid, which includes a non-finite box. Any coordinate is
  /// valid: the floors are taken in doubles, so far boxes cannot overflow
  /// int. Cells x0..x1 of one (y, z) row are one slice of cellOrder().
  bool cellWindow(const Vec3& lo, const Vec3& hi, double reach, CellWindow& out) const;

  /// Invoke fn(pointIndex) for every stored point within the 27-cell
  /// neighbourhood of `query` (superset of all points within cellSize of
  /// the query; callers still apply the exact distance test).
  template <typename Fn>
  void forEachNear(const Vec3& query, Fn&& fn) const {
    Range ranges[kMaxQueryRanges];
    const int n = queryRanges(query, ranges);
    for (int k = 0; k < n; ++k) {
      const std::uint32_t end = ranges[k].first + ranges[k].count;
      for (std::uint32_t i = ranges[k].first; i < end; ++i) {
        fn(static_cast<std::size_t>(order_[i]));
      }
    }
  }

  /// All stored points within the 27-cell neighbourhood (convenience for
  /// tests and non-hot paths).
  std::vector<std::size_t> near(const Vec3& query) const;

 private:
  std::size_t cellIndex(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * static_cast<std::size_t>(ny_) +
            static_cast<std::size_t>(y)) *
               static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(x);
  }

  /// Walks the clamped 3x3x3 window around cell (cx, cy, cz) and writes
  /// the non-empty merged x-row ranges; shared by the build-time
  /// precompute and the out-of-box query fallback.
  int gatherRanges(int cx, int cy, int cz, Range* out) const;

  double cell_ = 1.0;
  Vec3 origin_;
  int nx_ = 0, ny_ = 0, nz_ = 0;
  int subdiv_ = 1;
  std::vector<std::uint32_t> order_;    ///< point indices grouped by cell
  std::vector<std::uint32_t> offsets_;  ///< numCells+1 prefix sums into order_
  /// numCells*subdiv^3+1 prefix sums into order_ (empty when subdiv==1 or
  /// the cell count exceeds the table bound).
  std::vector<std::uint32_t> subOffsets_;
  /// CSR neighbour table: for in-box cell c, the precomputed ranges are
  /// neighborRanges_[neighborStart_[c] .. neighborStart_[c + 1]).
  /// Empty when the cell count exceeds kNeighborTableMaxCells.
  std::vector<std::uint32_t> neighborStart_;
  std::vector<Range> neighborRanges_;
};

}  // namespace dqndock::metadock
