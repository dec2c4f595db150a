#include "src/metadock/neighbor_grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dqndock::metadock {

namespace {

/// Above this many cells the precomputed neighbour table is skipped and
/// queries fall back to the on-the-fly window walk (still hash-free);
/// bounds memory for pathologically sparse point sets.
constexpr std::size_t kNeighborTableMaxCells = std::size_t{1} << 18;

}  // namespace

NeighborGrid::NeighborGrid(std::span<const Vec3> points, double cellSize, int subdiv)
    : cell_(cellSize), subdiv_(subdiv) {
  if (cellSize <= 0.0) throw std::invalid_argument("NeighborGrid: cellSize must be > 0");
  if (subdiv < 1) throw std::invalid_argument("NeighborGrid: subdiv must be >= 1");
  if (points.empty()) return;

  Vec3 lo = points.front();
  Vec3 hi = points.front();
  for (const auto& p : points) {
    lo = lo.min(p);
    hi = hi.max(p);
  }
  origin_ = lo;
  nx_ = static_cast<int>(std::floor((hi.x - lo.x) / cell_)) + 1;
  ny_ = static_cast<int>(std::floor((hi.y - lo.y) / cell_)) + 1;
  nz_ = static_cast<int>(std::floor((hi.z - lo.z) / cell_)) + 1;
  const std::size_t numCells = static_cast<std::size_t>(nx_) * ny_ * nz_;

  // Counting sort by dense cell index — extended to (cell, subcell) when
  // subdivided, so a cell's points are additionally grouped by subcell.
  const bool subcells = subdiv_ > 1 && numCells <= kNeighborTableMaxCells;
  const std::size_t S = subcells ? static_cast<std::size_t>(subdiv_) : 1;
  const std::size_t S3 = S * S * S;
  const double subCell = cell_ / static_cast<double>(S);
  const std::size_t numKeys = numCells * S3;

  std::vector<std::uint32_t> keyOf(points.size());
  std::vector<std::uint32_t> counts(numKeys, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Vec3& p = points[i];
    // Points define the box, so coords are in range up to fp rounding;
    // clamp to be safe at the faces.
    const int cx = std::min(nx_ - 1, std::max(0, static_cast<int>(std::floor((p.x - lo.x) / cell_))));
    const int cy = std::min(ny_ - 1, std::max(0, static_cast<int>(std::floor((p.y - lo.y) / cell_))));
    const int cz = std::min(nz_ - 1, std::max(0, static_cast<int>(std::floor((p.z - lo.z) / cell_))));
    std::size_t key = cellIndex(cx, cy, cz) * S3;
    if (subcells) {
      // Subcell from the offset inside the cell; the clamp keeps boundary
      // rounding (cell-floor vs subcell-floor disagreeing by one ulp)
      // from escaping the cell. Consumers pruning by subcell geometry
      // must therefore allow a tiny margin on the subcell box.
      const int maxS = static_cast<int>(S) - 1;
      const int sx = std::min(maxS, std::max(0, static_cast<int>(std::floor(
                                                    (p.x - lo.x - cx * cell_) / subCell))));
      const int sy = std::min(maxS, std::max(0, static_cast<int>(std::floor(
                                                    (p.y - lo.y - cy * cell_) / subCell))));
      const int sz = std::min(maxS, std::max(0, static_cast<int>(std::floor(
                                                    (p.z - lo.z - cz * cell_) / subCell))));
      key += (static_cast<std::size_t>(sz) * S + static_cast<std::size_t>(sy)) * S +
             static_cast<std::size_t>(sx);
    }
    keyOf[i] = static_cast<std::uint32_t>(key);
    ++counts[key];
  }
  std::vector<std::uint32_t> keyOffsets(numKeys + 1, 0);
  for (std::size_t k = 0; k < numKeys; ++k) keyOffsets[k + 1] = keyOffsets[k] + counts[k];
  order_.resize(points.size());
  std::vector<std::uint32_t> cursor(keyOffsets.begin(), keyOffsets.end() - 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    order_[cursor[keyOf[i]]++] = static_cast<std::uint32_t>(i);
  }
  // Per-cell prefix sums are the stride-S3 slice of the per-key sums.
  offsets_.assign(numCells + 1, 0);
  for (std::size_t c = 0; c <= numCells; ++c) offsets_[c] = keyOffsets[c * S3];
  if (subcells) subOffsets_ = std::move(keyOffsets);

  if (numCells > kNeighborTableMaxCells) return;

  // Precompute the merged 27-neighbourhood ranges per cell (CSR).
  neighborStart_.assign(numCells + 1, 0);
  neighborRanges_.reserve(numCells * 3);
  Range scratch[kMaxQueryRanges];
  for (int z = 0; z < nz_; ++z) {
    for (int y = 0; y < ny_; ++y) {
      for (int x = 0; x < nx_; ++x) {
        const int n = gatherRanges(x, y, z, scratch);
        for (int k = 0; k < n; ++k) neighborRanges_.push_back(scratch[k]);
        neighborStart_[cellIndex(x, y, z) + 1] = static_cast<std::uint32_t>(neighborRanges_.size());
      }
    }
  }
}

int NeighborGrid::gatherRanges(int cx, int cy, int cz, Range* out) const {
  int n = 0;
  const int x0 = cx > 1 ? cx - 1 : 0;
  const int x1 = cx + 1 < nx_ ? cx + 1 : nx_ - 1;
  if (cx + 1 < 0 || cx - 1 >= nx_) return 0;
  for (int dz = -1; dz <= 1; ++dz) {
    const int z = cz + dz;
    if (z < 0 || z >= nz_) continue;
    for (int dy = -1; dy <= 1; ++dy) {
      const int y = cy + dy;
      if (y < 0 || y >= ny_) continue;
      // Cells x0..x1 in one row are contiguous in the packed order.
      const std::uint32_t first = offsets_[cellIndex(x0, y, z)];
      const std::uint32_t end = offsets_[cellIndex(x1, y, z) + 1];
      if (end > first) out[n++] = Range{first, end - first};
    }
  }
  return n;
}

bool NeighborGrid::cellCoords(const Vec3& query, int& cx, int& cy, int& cz) const {
  // Compute floor coords as doubles first: far-away queries would
  // overflow int, but they also can't overlap the box. The test is
  // written so a NaN coordinate fails it too; casting NaN to int is
  // undefined.
  const double fx = std::floor((query.x - origin_.x) / cell_);
  const double fy = std::floor((query.y - origin_.y) / cell_);
  const double fz = std::floor((query.z - origin_.z) / cell_);
  if (!(fx >= -1.0 && fx <= static_cast<double>(nx_) && fy >= -1.0 &&
        fy <= static_cast<double>(ny_) && fz >= -1.0 && fz <= static_cast<double>(nz_))) {
    return false;
  }
  cx = static_cast<int>(fx);
  cy = static_cast<int>(fy);
  cz = static_cast<int>(fz);
  return true;
}

int NeighborGrid::queryRanges(const Vec3& query, Range* out) const {
  if (order_.empty()) return 0;
  int cx, cy, cz;
  if (!cellCoords(query, cx, cy, cz)) return 0;
  if (!neighborStart_.empty() && cx >= 0 && cx < nx_ && cy >= 0 && cy < ny_ && cz >= 0 &&
      cz < nz_) {
    const std::size_t c = cellIndex(cx, cy, cz);
    const std::uint32_t first = neighborStart_[c];
    const std::uint32_t end = neighborStart_[c + 1];
    for (std::uint32_t k = first; k < end; ++k) out[k - first] = neighborRanges_[k];
    return static_cast<int>(end - first);
  }
  return gatherRanges(cx, cy, cz, out);
}

bool NeighborGrid::cellWindow(const Vec3& lo, const Vec3& hi, double reach,
                              CellWindow& out) const {
  if (order_.empty()) return false;
  const double fx0 = std::floor((lo.x - reach - origin_.x) / cell_);
  const double fx1 = std::floor((hi.x + reach - origin_.x) / cell_);
  const double fy0 = std::floor((lo.y - reach - origin_.y) / cell_);
  const double fy1 = std::floor((hi.y + reach - origin_.y) / cell_);
  const double fz0 = std::floor((lo.z - reach - origin_.z) / cell_);
  const double fz1 = std::floor((hi.z + reach - origin_.z) / cell_);
  const bool overlaps = fx1 >= 0.0 && fx0 <= static_cast<double>(nx_ - 1) && fy1 >= 0.0 &&
                        fy0 <= static_cast<double>(ny_ - 1) && fz1 >= 0.0 &&
                        fz0 <= static_cast<double>(nz_ - 1);
  if (!overlaps) return false;
  out.x0 = static_cast<int>(std::max(fx0, 0.0));
  out.x1 = static_cast<int>(std::min(fx1, static_cast<double>(nx_ - 1)));
  out.y0 = static_cast<int>(std::max(fy0, 0.0));
  out.y1 = static_cast<int>(std::min(fy1, static_cast<double>(ny_ - 1)));
  out.z0 = static_cast<int>(std::max(fz0, 0.0));
  out.z1 = static_cast<int>(std::min(fz1, static_cast<double>(nz_ - 1)));
  return true;
}

std::vector<std::size_t> NeighborGrid::near(const Vec3& query) const {
  std::vector<std::size_t> out;
  forEachNear(query, [&out](std::size_t i) { out.push_back(i); });
  return out;
}

}  // namespace dqndock::metadock
