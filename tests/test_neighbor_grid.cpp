// Tests for the uniform spatial hash: the 27-cell neighbourhood must be a
// superset of all points within cellSize of the query.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "src/common/rng.hpp"
#include "src/metadock/neighbor_grid.hpp"

namespace dqndock::metadock {
namespace {

TEST(NeighborGridTest, InvalidCellSizeThrows) {
  std::vector<Vec3> pts{{0, 0, 0}};
  EXPECT_THROW(NeighborGrid(pts, 0.0), std::invalid_argument);
  EXPECT_THROW(NeighborGrid(pts, -1.0), std::invalid_argument);
}

TEST(NeighborGridTest, EmptyPointSet) {
  std::vector<Vec3> pts;
  NeighborGrid grid(pts, 1.0);
  EXPECT_EQ(grid.pointCount(), 0u);
  EXPECT_TRUE(grid.near(Vec3{0, 0, 0}).empty());
}

TEST(NeighborGridTest, SinglePointFound) {
  std::vector<Vec3> pts{{1, 2, 3}};
  NeighborGrid grid(pts, 2.0);
  const auto near = grid.near(Vec3{1.5, 2.5, 3.5});
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near[0], 0u);
}

TEST(NeighborGridTest, FarPointNotReturned) {
  std::vector<Vec3> pts{{0, 0, 0}, {100, 100, 100}};
  NeighborGrid grid(pts, 2.0);
  const auto near = grid.near(Vec3{0.5, 0.5, 0.5});
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near[0], 0u);
}

TEST(NeighborGridTest, EachPointAppearsExactlyOnceInItsOwnNeighbourhood) {
  Rng rng(5);
  std::vector<Vec3> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10)});
  }
  NeighborGrid grid(pts, 3.0);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto near = grid.near(pts[i]);
    EXPECT_EQ(std::count(near.begin(), near.end(), i), 1);
  }
}

class GridCoverageTest : public ::testing::TestWithParam<double> {};

TEST_P(GridCoverageTest, NeighbourhoodCoversCutoffSphere) {
  const double cell = GetParam();
  Rng rng(static_cast<std::uint64_t>(cell * 100));
  std::vector<Vec3> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back({rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 20)});
  }
  NeighborGrid grid(pts, cell);
  for (int q = 0; q < 50; ++q) {
    const Vec3 query{rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 20)};
    const auto near = grid.near(query);
    const std::set<std::size_t> nearSet(near.begin(), near.end());
    // Every point within `cell` of the query must be in the result.
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (distance(pts[i], query) <= cell) {
        EXPECT_TRUE(nearSet.count(i)) << "missed point " << i << " at cell=" << cell;
      }
    }
    // And every returned point is within the 3x3x3 cell block (loose bound
    // of 2 * cell * sqrt(3)).
    for (std::size_t i : near) {
      EXPECT_LE(distance(pts[i], query), 2.0 * cell * 1.7320508 + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CellSizes, GridCoverageTest, ::testing::Values(1.0, 2.5, 6.0, 12.0));

TEST(NeighborGridTest, NegativeCoordinatesHandled) {
  std::vector<Vec3> pts{{-5.1, -5.1, -5.1}, {-4.9, -4.9, -4.9}};
  NeighborGrid grid(pts, 1.0);
  const auto near = grid.near(Vec3{-5.0, -5.0, -5.0});
  EXPECT_EQ(near.size(), 2u);
}

TEST(NeighborGridTest, ForEachNearMatchesNear) {
  Rng rng(11);
  std::vector<Vec3> pts;
  for (int i = 0; i < 100; ++i) {
    pts.push_back({rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)});
  }
  NeighborGrid grid(pts, 2.0);
  const Vec3 q{5, 5, 5};
  std::vector<std::size_t> collected;
  grid.forEachNear(q, [&collected](std::size_t i) { collected.push_back(i); });
  auto near = grid.near(q);
  std::sort(collected.begin(), collected.end());
  std::sort(near.begin(), near.end());
  EXPECT_EQ(collected, near);
}

TEST(NeighborGridTest, CellOrderIsPermutationGroupedByCell) {
  Rng rng(21);
  std::vector<Vec3> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back({rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(-15, 15)});
  }
  NeighborGrid grid(pts, 4.0);
  const auto& order = grid.cellOrder();
  ASSERT_EQ(order.size(), pts.size());

  // A permutation: every index appears exactly once.
  std::vector<std::uint32_t> sorted(order.begin(), order.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);

  // Grouped by cell: the dense cell index is non-decreasing along the
  // packed order (counting sort is stable by cell).
  auto denseCell = [&](const Vec3& p) {
    const auto cx = static_cast<long>(std::floor((p.x - grid.origin().x) / grid.cellSize()));
    const auto cy = static_cast<long>(std::floor((p.y - grid.origin().y) / grid.cellSize()));
    const auto cz = static_cast<long>(std::floor((p.z - grid.origin().z) / grid.cellSize()));
    return (cz * grid.ny() + cy) * grid.nx() + cx;
  };
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(denseCell(pts[order[i - 1]]), denseCell(pts[order[i]])) << "at " << i;
  }
}

TEST(NeighborGridTest, QueryRangesCoverSamePointsAsNear) {
  Rng rng(31);
  std::vector<Vec3> pts;
  for (int i = 0; i < 250; ++i) {
    pts.push_back({rng.uniform(-12, 12), rng.uniform(-12, 12), rng.uniform(-12, 12)});
  }
  NeighborGrid grid(pts, 3.0);
  for (int q = 0; q < 40; ++q) {
    // Mix of in-box, edge, and out-of-box queries.
    const double span = q % 3 == 0 ? 30.0 : 12.0;
    const Vec3 query{rng.uniform(-span, span), rng.uniform(-span, span),
                     rng.uniform(-span, span)};
    NeighborGrid::Range ranges[NeighborGrid::kMaxQueryRanges];
    const int n = grid.queryRanges(query, ranges);
    ASSERT_LE(n, NeighborGrid::kMaxQueryRanges);
    std::vector<std::size_t> fromRanges;
    for (int k = 0; k < n; ++k) {
      for (std::uint32_t i = ranges[k].first; i < ranges[k].first + ranges[k].count; ++i) {
        fromRanges.push_back(grid.cellOrder()[i]);
      }
    }
    auto expected = grid.near(query);
    std::sort(fromRanges.begin(), fromRanges.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(fromRanges, expected) << "query " << q;
  }
}

TEST(NeighborGridTest, FarOutsideQueriesYieldNoRanges) {
  std::vector<Vec3> pts{{0, 0, 0}, {1, 1, 1}, {2, 0, 1}};
  NeighborGrid grid(pts, 2.0);
  NeighborGrid::Range ranges[NeighborGrid::kMaxQueryRanges];
  // More than one cell beyond the box on any axis: nothing can be within
  // cellSize, so the query returns zero ranges (and must not overflow on
  // astronomically distant coordinates).
  EXPECT_EQ(grid.queryRanges(Vec3{100, 0, 0}, ranges), 0);
  EXPECT_EQ(grid.queryRanges(Vec3{0, -100, 0}, ranges), 0);
  EXPECT_EQ(grid.queryRanges(Vec3{1e18, -1e18, 1e18}, ranges), 0);
  EXPECT_TRUE(grid.near(Vec3{1e18, -1e18, 1e18}).empty());
  // Just outside the box (within one cell) still sees the boundary cells.
  EXPECT_GT(grid.queryRanges(Vec3{-1.5, 0.5, 0.5}, ranges), 0);
}

TEST(NeighborGridTest, NaNCoordinateYieldsNoRangesAndNoWindow) {
  // A NaN on any one axis has no cell: no ranges, no window (the cell
  // lookup must not cast NaN to int).
  std::vector<Vec3> pts{{0, 0, 0}, {1, 1, 1}, {5, 4, 3}};
  NeighborGrid grid(pts, 2.0);
  NeighborGrid::Range ranges[NeighborGrid::kMaxQueryRanges];
  NeighborGrid::CellWindow window;
  const double nan = std::nan("");
  for (const Vec3& q : {Vec3{nan, 1, 1}, Vec3{1, nan, 1}, Vec3{1, 1, nan}}) {
    EXPECT_EQ(grid.queryRanges(q, ranges), 0);
    EXPECT_FALSE(grid.cellWindow(q, q, 2.0, window));
  }
}

TEST(NeighborGridTest, CellWindowCoversReachAroundBox) {
  // Cells of edge 2 from the origin (0, 0, 0); the box grows 3x3x2.
  std::vector<Vec3> pts{{0, 0, 0}, {5, 5, 3}};
  NeighborGrid grid(pts, 2.0);
  NeighborGrid::CellWindow w;
  ASSERT_TRUE(grid.cellWindow(Vec3{2.5, 2.5, 0.5}, Vec3{2.5, 2.5, 0.5}, 1.0, w));
  EXPECT_EQ(w.x0, 0);
  EXPECT_EQ(w.x1, 1);
  EXPECT_EQ(w.z0, 0);
  EXPECT_EQ(w.z1, 0);
  EXPECT_EQ(w.cellCount(), 4u);
  // A box's window is clamped to the grid; beyond reach there is none.
  ASSERT_TRUE(grid.cellWindow(Vec3{-1, -1, -1}, Vec3{9, 9, 9}, 0.5, w));
  EXPECT_EQ(w.cellCount(), static_cast<std::size_t>(grid.nx()) * grid.ny() * grid.nz());
  EXPECT_FALSE(grid.cellWindow(Vec3{-3, 0, 0}, Vec3{-3, 0, 0}, 0.5, w));
  EXPECT_TRUE(grid.cellWindow(Vec3{-3, 0, 0}, Vec3{-3, 0, 0}, 3.0, w));
  EXPECT_FALSE(grid.cellWindow(Vec3{1e300, 0, 0}, Vec3{1e300, 0, 0}, 3.0, w));
}

}  // namespace
}  // namespace dqndock::metadock
