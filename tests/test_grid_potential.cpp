// Tests for the precomputed affinity grids: interpolation exactness,
// agreement with the direct sum away from clash regions, and clamping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/chem/synthetic.hpp"
#include "src/metadock/grid_potential.hpp"

namespace dqndock::metadock {
namespace {

TEST(ScalarGridTest, ConstructionValidation) {
  EXPECT_THROW(ScalarGrid(Vec3{}, 0.0, 4, 4, 4), std::invalid_argument);
  EXPECT_THROW(ScalarGrid(Vec3{}, 1.0, 1, 4, 4), std::invalid_argument);
}

TEST(ScalarGridTest, ExactAtGridNodes) {
  ScalarGrid g(Vec3{1, 2, 3}, 0.5, 4, 4, 4);
  g.at(2, 1, 3) = 7.5;
  EXPECT_NEAR(g.sample(Vec3{1 + 2 * 0.5, 2 + 1 * 0.5, 3 + 3 * 0.5 - 1e-12}), 7.5, 1e-6);
}

TEST(ScalarGridTest, TrilinearReproducesLinearField) {
  // Fill with f(x,y,z) = 2x - y + 3z + 1; trilinear interpolation must be
  // exact for affine fields.
  ScalarGrid g(Vec3{0, 0, 0}, 1.0, 5, 5, 5);
  for (int z = 0; z < 5; ++z)
    for (int y = 0; y < 5; ++y)
      for (int x = 0; x < 5; ++x) g.at(x, y, z) = 2.0 * x - y + 3.0 * z + 1.0;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Vec3 p{rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(0, 4)};
    EXPECT_NEAR(g.sample(p), 2 * p.x - p.y + 3 * p.z + 1, 1e-10);
  }
}

TEST(ScalarGridTest, OutOfBoxReturnsFarFieldZero) {
  ScalarGrid g(Vec3{0, 0, 0}, 1.0, 3, 3, 3);
  for (int z = 0; z < 3; ++z)
    for (int y = 0; y < 3; ++y)
      for (int x = 0; x < 3; ++x) g.at(x, y, z) = 5.0;
  EXPECT_TRUE(g.contains(Vec3{1, 1, 1}));
  EXPECT_FALSE(g.contains(Vec3{100, 1, 1}));
  EXPECT_DOUBLE_EQ(g.sample(Vec3{-100, 1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(g.sample(Vec3{100, 1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(g.sample(Vec3{1, 1, 1}), 5.0);
}

class GridPotentialFixture : public ::testing::Test {
 protected:
  GridPotentialFixture()
      : scenario_(chem::buildScenario(chem::ScenarioSpec::tiny())),
        receptor_(scenario_.receptor, 12.0),
        ligand_(scenario_.ligand) {}

  chem::Scenario scenario_;
  ReceptorModel receptor_;
  LigandModel ligand_;
};

TEST_F(GridPotentialFixture, BuildsAndReportsMemory) {
  GridPotentialOptions opts;
  opts.spacing = 1.0;
  GridPotential grid(receptor_, opts);
  EXPECT_GT(grid.memoryBytes(), 0u);
  EXPECT_GT(grid.electrostaticMap().valueCount(), 0u);
}

TEST_F(GridPotentialFixture, ApproximatesDirectScoreAwayFromClashes) {
  GridPotentialOptions opts;
  opts.spacing = 0.8;
  GridPotential grid(receptor_, opts);

  ScoringOptions exactOpts;
  exactOpts.cutoff = opts.cutoff;
  exactOpts.useGrid = true;
  ScoringFunction exact(receptor_, ligand_, exactOpts);

  // Probe poses along the approach axis, outside the steric-clash zone.
  std::vector<Vec3> positions;
  for (double z = 18.0; z <= 30.0; z += 2.0) {
    Pose pose(ligand_.torsionCount());
    pose.translation = Vec3{0, 0, z};
    ligand_.applyPose(pose, positions);
    const double exactScore = exact.score(positions);
    const double gridScore = grid.score(ligand_, positions);
    // Interpolation error is bounded; the band is loose near the surface
    // where the Lennard-Jones field is steep relative to the spacing.
    EXPECT_NEAR(gridScore, exactScore, 4.0 + 0.35 * std::fabs(exactScore))
        << "z = " << z;
  }
}

TEST_F(GridPotentialFixture, ParallelFillMatchesSerial) {
  ThreadPool pool(4);
  GridPotentialOptions serial;
  serial.spacing = 1.2;
  GridPotentialOptions parallel = serial;
  parallel.pool = &pool;
  GridPotential a(receptor_, serial);
  GridPotential b(receptor_, parallel);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Vec3 p{rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(-15, 15)};
    EXPECT_DOUBLE_EQ(a.atomEnergy(chem::Element::C, -0.05, p),
                     b.atomEnergy(chem::Element::C, -0.05, p));
  }
}

TEST_F(GridPotentialFixture, EnergiesClampedInsideClashes) {
  GridPotentialOptions opts;
  opts.spacing = 1.0;
  opts.energyClamp = 1e6;
  GridPotential grid(receptor_, opts);
  // At a receptor atom position the raw LJ energy would be astronomical;
  // the map stores the clamp instead.
  const Vec3 clashPoint = receptor_.positions()[0];
  const double e = grid.elementMap(chem::Element::C).sample(clashPoint);
  EXPECT_LE(e, 1e6 + 1e-6);
  EXPECT_GT(e, 1e3);  // still clearly terrible
}

TEST_F(GridPotentialFixture, UnknownElementFallsBackToCarbon) {
  GridPotentialOptions opts;
  opts.spacing = 1.5;
  GridPotential grid(receptor_, opts);
  const Vec3 p{0, 0, 20};
  EXPECT_DOUBLE_EQ(grid.elementMap(chem::Element::I).sample(p),
                   grid.elementMap(chem::Element::C).sample(p));
}

TEST_F(GridPotentialFixture, ScoreCountMismatchThrows) {
  GridPotentialOptions opts;
  opts.spacing = 1.5;
  GridPotential grid(receptor_, opts);
  std::vector<Vec3> wrong(2);
  EXPECT_THROW(grid.score(ligand_, wrong), std::invalid_argument);
}

TEST_F(GridPotentialFixture, GridScoringFunctionRanksLikeExact) {
  // The grid approximation must preserve the qualitative ranking: pocket
  // pose beats far pose beats deep-clash pose.
  GridPotentialOptions opts;
  opts.spacing = 0.5;
  GridPotential grid(receptor_, opts);
  GridScoringFunction gsf(grid, ligand_);
  std::vector<Vec3> scratch;

  Pose far(ligand_.torsionCount());
  far.translation = Vec3{0, 0, 40};
  Pose pocket(ligand_.torsionCount());
  pocket.translation = scenario_.pocketCenter;
  Pose clash(ligand_.torsionCount());
  clash.translation = Vec3{0, 0, 0};  // receptor core

  const double sFar = gsf.scorePose(far, scratch);
  const double sPocket = gsf.scorePose(pocket, scratch);
  const double sClash = gsf.scorePose(clash, scratch);
  EXPECT_GT(sPocket, sFar);
  EXPECT_GT(sFar, sClash);
}

/// Test-local oracle: node (ix, iy, iz) of `probe`'s map as the fill
/// computes it, but with the N/O H-bond well (also stored in `well`)
/// summed over every donor site of the receptor rather than the cells
/// the cutoff reaches.
double fullWalkMapNode(const ReceptorModel& receptor, const GridPotentialOptions& opts,
                       const ScalarGrid& map, chem::Element probe, int ix, int iy, int iz,
                       double& well) {
  const chem::ForceField& ff = chem::ForceField::standard();
  const chem::HBondParams hb = ff.hbond();
  const chem::PairRowTable row = ff.pairRows(probe, receptor.packedElements());
  const double cut2 = opts.cutoff * opts.cutoff;
  constexpr double kMinDist2 = kMinPairDistance * kMinPairDistance;
  const Vec3 p = map.origin() + Vec3{ix * opts.spacing, iy * opts.spacing,
                                     static_cast<double>(iz) * opts.spacing};

  NeighborGrid::Range ranges[NeighborGrid::kMaxQueryRanges];
  int numRanges = 1;
  if (receptor.hasGrid() && receptor.grid().cellSize() + 1e-12 >= opts.cutoff) {
    numRanges = receptor.grid().queryRanges(p, ranges);
  } else {
    ranges[0] = NeighborGrid::Range{0, static_cast<std::uint32_t>(receptor.atomCount())};
  }
  double lj = 0.0;
  for (int k = 0; k < numRanges; ++k) {
    for (std::size_t j = ranges[k].first; j < ranges[k].first + ranges[k].count; ++j) {
      const double dx = receptor.packedX()[j] - p.x;
      const double dy = receptor.packedY()[j] - p.y;
      const double dz = receptor.packedZ()[j] - p.z;
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 > cut2) continue;
      const double r2c = r2 > kMinDist2 ? r2 : kMinDist2;
      const double rinv = 1.0 / std::sqrt(r2c);
      const double s2 = row.sigma2[j] * (rinv * rinv);
      const double s6 = s2 * s2 * s2;
      lj += row.epsilon[j] * (s6 * s6 - s6);
    }
  }
  double hbWell = 0.0;
  for (const ReceptorModel::HBondSite& d : receptor.donorHydrogenSites().sites) {
    const double r2 = distance2(d.pos, p);
    if (r2 > cut2) continue;
    const double r2c = r2 > kMinDist2 ? r2 : kMinDist2;
    const double r10 = r2c * r2c * r2c * r2c * r2c;
    hbWell += hb.c12 / (r10 * r2c) - hb.d10 / r10;
  }
  well = hbWell;
  return std::clamp(4.0 * lj + hbWell, -opts.energyClamp, opts.energyClamp);
}

TEST(GridPotentialHBondWellTest, MapsMatchFullSiteWalkOnHBearingReceptor) {
  // A 3-D lattice of hydroxyl O-H pairs: every hydrogen is a donor site,
  // so the N/O maps' well carries weight, and the receptor grid spans
  // several cells per axis, so the site walk skips cells. The N and O
  // maps must equal the full-walk fill bit for bit, with cells at least
  // the cutoff (pruned Lennard-Jones sweep) and smaller (window of more
  // than 3 cells per axis).
  chem::Molecule mol("hydroxyl-lattice");
  for (int gz = 0; gz < 3; ++gz) {
    for (int gy = 0; gy < 5; ++gy) {
      for (int gx = 0; gx < 5; ++gx) {
        const Vec3 o{gx * 4.0, gy * 4.0, gz * 4.0};
        const int oi = mol.addAtom(chem::Element::O, o, -0.4, chem::HBondRole::kAcceptor);
        const int hi = mol.addAtom(chem::Element::H, o + Vec3{0.3, 0.2, 0.9}, 0.4,
                                   chem::HBondRole::kDonorHydrogen);
        mol.addBond(oi, hi);
      }
    }
  }
  struct Case {
    double cell, cutoff;
  };
  for (const Case c : {Case{6.0, 6.0}, Case{4.0, 9.0}}) {
    const ReceptorModel receptor(mol, c.cell);
    GridPotentialOptions opts;
    opts.spacing = 2.0;
    opts.padding = 8.0;
    opts.cutoff = c.cutoff;
    const GridPotential grid(receptor, opts);
    for (const chem::Element e : {chem::Element::N, chem::Element::O}) {
      const ScalarGrid& map = grid.elementMap(e);
      std::size_t mismatches = 0, wellNodes = 0;
      for (int iz = 0; iz < map.nz(); ++iz) {
        for (int iy = 0; iy < map.ny(); ++iy) {
          for (int ix = 0; ix < map.nx(); ++ix) {
            double well = 0.0;
            const double want = fullWalkMapNode(receptor, opts, map, e, ix, iy, iz, well);
            const double got = map.at(ix, iy, iz);
            if (std::memcmp(&got, &want, sizeof got) != 0) ++mismatches;
            if (well != 0.0) ++wellNodes;
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << "cell " << c.cell << ", cutoff " << c.cutoff;
      EXPECT_GT(wellNodes, 0u);
    }
  }
}

}  // namespace
}  // namespace dqndock::metadock
