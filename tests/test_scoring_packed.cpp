// Golden-equivalence suite for the packed (SoA, cell-sorted) Eq. 1
// kernel against the original scalar AoS fallback, plus the
// thread-determinism regression test: scores must be bit-identical
// across serial evaluation and every thread-pool size. The H-bond window
// suite holds the packed pass's cell-window site walk to a test-local
// copy of the full-list walk, bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "src/chem/synthetic.hpp"
#include "src/metadock/evaluator.hpp"
#include "src/metadock/scoring.hpp"

namespace dqndock::metadock {
namespace {

using chem::Element;
using chem::HBondRole;

/// Relative tolerance for packed-vs-scalar comparisons. The two kernels
/// reassociate the pair sum differently (lane-blocked vs sequential), so
/// exact equality is not expected; 1e-9 relative is the ISSUE bar.
double tol(double ref) { return std::max(1e-9, std::fabs(ref) * 1e-9); }

/// Asserts packed and scalar kernels agree per term on every pose.
void expectPackedMatchesScalar(const ReceptorModel& receptor, const LigandModel& ligand,
                               const ScoringOptions& base, std::span<const Pose> poses,
                               const char* what) {
  ScoringOptions packedOpts = base;
  packedOpts.packed = true;
  ScoringOptions scalarOpts = base;
  scalarOpts.packed = false;
  ScoringFunction packed(receptor, ligand, packedOpts);
  ScoringFunction scalar(receptor, ligand, scalarOpts);

  std::vector<Vec3> pos;
  for (std::size_t i = 0; i < poses.size(); ++i) {
    ligand.applyPose(poses[i], pos);
    const ScoreTerms a = packed.energy(pos);
    const ScoreTerms b = scalar.energy(pos);
    EXPECT_NEAR(a.electrostatic, b.electrostatic, tol(b.electrostatic))
        << what << " pose " << i << " (electrostatic)";
    EXPECT_NEAR(a.vdw, b.vdw, tol(b.vdw)) << what << " pose " << i << " (vdw)";
    EXPECT_NEAR(a.hbond, b.hbond, tol(b.hbond)) << what << " pose " << i << " (hbond)";
    EXPECT_NEAR(a.total(), b.total(), tol(b.total())) << what << " pose " << i << " (total)";
  }
}

/// The three execution paths both kernels support.
std::vector<std::pair<const char*, ScoringOptions>> pathConfigs() {
  ScoringOptions grid;  // defaults: cutoff 12, grid on
  ScoringOptions cutoffOnly;
  cutoffOnly.useGrid = false;
  ScoringOptions brute;
  brute.cutoff = 0.0;
  brute.useGrid = false;
  return {{"cutoff+grid", grid}, {"cutoff", cutoffOnly}, {"brute", brute}};
}

std::vector<Pose> randomPoses(const ReceptorModel& receptor, const LigandModel& ligand,
                              int count, double radius, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Pose> poses;
  for (int i = 0; i < count; ++i) {
    poses.push_back(randomPose(receptor.centerOfMass(), radius, ligand.torsionCount(), rng));
  }
  return poses;
}

TEST(PackedEquivalenceTest, MatchesScalarOnPaper2BSM) {
  // The paper's full-size scenario: 3,264 receptor atoms, 45-atom ligand.
  const chem::Scenario sc = chem::buildScenario(chem::ScenarioSpec::paper2bsm());
  ReceptorModel receptor(sc.receptor, 12.0);
  LigandModel ligand(sc.ligand);
  const auto poses = randomPoses(receptor, ligand, 8, 30.0, 11);
  for (const auto& [name, opts] : pathConfigs()) {
    expectPackedMatchesScalar(receptor, ligand, opts, poses, name);
  }
}

TEST(PackedEquivalenceTest, MatchesScalarOnRandomizedScenarios) {
  // Sweep randomized synthetic scenarios: different sizes, seeds, and
  // rotatable-bond counts, each scored at random poses that range from
  // deep clashes to far-field placements.
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    chem::ScenarioSpec spec = chem::ScenarioSpec::tiny();
    spec.receptorAtoms = 180 + 60 * static_cast<std::size_t>(seed % 7);
    spec.ligandAtoms = 9 + static_cast<std::size_t>(seed % 11);
    spec.ligandRotatableBonds = 1 + seed % 4;
    spec.seed = seed;
    const chem::Scenario sc = chem::buildScenario(spec);
    ReceptorModel receptor(sc.receptor, 12.0);
    LigandModel ligand(sc.ligand);
    const auto poses = randomPoses(receptor, ligand, 12, 20.0, seed + 1);
    for (const auto& [name, opts] : pathConfigs()) {
      expectPackedMatchesScalar(receptor, ligand, opts, poses, name);
    }
  }
}

/// Hand-built complex where most atoms participate in hydrogen bonds: a
/// slab of hydroxyl-like O-H pairs (donor hydrogens + acceptor oxygens)
/// facing a small ligand that is itself all donors/acceptors.
struct HBondWall {
  chem::Molecule receptor{"hbond-wall"};
  chem::Molecule ligand{"hbond-probe"};
};

HBondWall hbondWall() {
  HBondWall w;
  for (int gx = 0; gx < 6; ++gx) {
    for (int gy = 0; gy < 6; ++gy) {
      const Vec3 o{gx * 3.0, gy * 3.0, 0.0};
      const int oi = w.receptor.addAtom(Element::O, o, -0.4, HBondRole::kAcceptor);
      const int hi = w.receptor.addAtom(Element::H, o + Vec3{0.3, 0.1, 0.95}, 0.4,
                                        HBondRole::kDonorHydrogen);
      w.receptor.addBond(oi, hi);  // anchors the donor direction
    }
  }
  const int n0 = w.ligand.addAtom(Element::N, {0, 0, 0}, -0.3, HBondRole::kAcceptor);
  const int h0 = w.ligand.addAtom(Element::H, {0.0, 0.0, 1.0}, 0.3, HBondRole::kDonorHydrogen);
  const int o1 = w.ligand.addAtom(Element::O, {1.4, 0.0, 0.0}, -0.35, HBondRole::kAcceptor);
  const int h1 =
      w.ligand.addAtom(Element::H, {1.4, 0.95, 0.2}, 0.35, HBondRole::kDonorHydrogen);
  const int c0 = w.ligand.addAtom(Element::C, {2.2, -1.1, 0.0}, 0.0);
  w.ligand.addBond(n0, h0);
  w.ligand.addBond(n0, o1);
  w.ligand.addBond(o1, h1);
  w.ligand.addBond(o1, c0);
  return w;
}

/// Poses hovering above the wall at H-bonding distances plus random ones.
std::vector<Pose> hbondWallPoses(const ReceptorModel& model, const LigandModel& lig) {
  std::vector<Pose> poses;
  for (double z : {1.9, 2.8, 5.0}) {
    Pose p(lig.torsionCount());
    p.translation = Vec3{7.5, 7.5, z};
    poses.push_back(p);
  }
  for (const Pose& p : randomPoses(model, lig, 10, 12.0, 78)) poses.push_back(p);
  return poses;
}

TEST(PackedEquivalenceTest, MatchesScalarOnHBondRichComplex) {
  // The packed kernel's H-bond pass carries real weight here.
  const HBondWall wall = hbondWall();
  ReceptorModel model(wall.receptor, 8.0);
  LigandModel lig(wall.ligand);
  ASSERT_GT(model.donorHydrogenSites().sites.size() + model.acceptorSites().sites.size(), 0u);
  const std::vector<Pose> poses = hbondWallPoses(model, lig);

  ScoringOptions grid;
  grid.cutoff = 8.0;
  ScoringOptions cutoffOnly;
  cutoffOnly.cutoff = 8.0;
  cutoffOnly.useGrid = false;
  ScoringOptions brute;
  brute.cutoff = 0.0;
  brute.useGrid = false;
  expectPackedMatchesScalar(model, lig, grid, poses, "hbond cutoff+grid");
  expectPackedMatchesScalar(model, lig, cutoffOnly, poses, "hbond cutoff");
  expectPackedMatchesScalar(model, lig, brute, poses, "hbond brute");
}

TEST(PackedEquivalenceTest, MatchesScalarOutsideGridBoundingBox) {
  // Ligand atoms far outside the receptor bounding box exercise the
  // grid's out-of-box query path (and, far enough out, the empty query).
  const chem::Scenario sc = chem::buildScenario(chem::ScenarioSpec::tiny());
  ReceptorModel receptor(sc.receptor, 12.0);
  LigandModel ligand(sc.ligand);

  std::vector<Pose> poses;
  for (const Vec3& offset :
       {Vec3{40, 0, 0}, Vec3{0, -40, 0}, Vec3{25, 25, 25}, Vec3{-18, 30, -11},
        Vec3{500, 500, 500}, Vec3{-1e6, 0, 0}}) {
    Pose p(ligand.torsionCount());
    p.translation = receptor.centerOfMass() + offset;
    poses.push_back(p);
  }
  for (const auto& [name, opts] : pathConfigs()) {
    expectPackedMatchesScalar(receptor, ligand, opts, poses, name);
  }

  // A pose beyond cutoff reach of every receptor atom scores exactly zero
  // on the grid path (no ranges) and on the scalar path (cutoff skip).
  ScoringFunction sf(receptor, ligand, {});
  Pose far(ligand.torsionCount());
  far.translation = receptor.centerOfMass() + Vec3{500, 500, 500};
  EXPECT_EQ(sf.scorePose(far), 0.0);
}

TEST(PackedDeterminismTest, ScoresBitIdenticalAcrossThreadCounts) {
  // Regression for multithreaded nondeterminism: the ordered
  // per-ligand-atom reduction must make serial and 1/2/8-thread pools
  // agree to the last bit, for both kernels.
  const chem::Scenario sc = chem::buildScenario(chem::ScenarioSpec::tiny());
  ReceptorModel receptor(sc.receptor, 12.0);
  LigandModel ligand(sc.ligand);
  const auto poses = randomPoses(receptor, ligand, 6, 18.0, 5);

  for (bool packed : {true, false}) {
    ScoringOptions serialOpts;
    serialOpts.packed = packed;
    ScoringFunction serial(receptor, ligand, serialOpts);

    std::vector<double> reference;
    std::vector<Vec3> scratch;
    for (const Pose& p : poses) reference.push_back(serial.scorePose(p, scratch));

    for (std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      ScoringOptions opts = serialOpts;
      opts.pool = &pool;
      ScoringFunction sf(receptor, ligand, opts);
      for (std::size_t i = 0; i < poses.size(); ++i) {
        // EXPECT_EQ, not NEAR: bit-identical is the contract.
        EXPECT_EQ(sf.scorePose(poses[i], scratch), reference[i])
            << (packed ? "packed" : "scalar") << " kernel, " << threads
            << " threads, pose " << i;
      }
    }
  }
}

TEST(PackedDeterminismTest, BatchEvaluatorMatchesSerialAndIsDeterministic) {
  // evaluateBatch runs the pose-batched kernel: scores agree with
  // one-at-a-time serial evaluation to ~1e-9 relative (the pair terms are
  // identical, only the lane accumulation order differs), and the batched
  // results themselves are bit-identical across repeated batches and
  // thread counts (buffer reuse must not leak state, chunking must not
  // change tiling-visible results).
  const chem::Scenario sc = chem::buildScenario(chem::ScenarioSpec::tiny());
  ReceptorModel receptor(sc.receptor, 12.0);
  LigandModel ligand(sc.ligand);
  ScoringFunction sf(receptor, ligand, {});
  const auto poses = randomPoses(receptor, ligand, 64, 18.0, 9);

  PoseEvaluator serial(sf, nullptr);
  std::vector<double> reference;
  for (const Pose& p : poses) reference.push_back(serial.evaluate(p));

  ThreadPool pool(4);
  PoseEvaluator batched(sf, &pool);
  const std::vector<double> first = batched.evaluateBatch(poses);
  const std::vector<double> second = batched.evaluateBatch(poses);
  ASSERT_EQ(first.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(first[i], reference[i], tol(reference[i])) << "pose " << i;
    EXPECT_EQ(second[i], first[i]) << "pose " << i << " (second batch)";
  }

  ThreadPool pool1(1);
  PoseEvaluator oneThread(sf, &pool1);
  const std::vector<double> single = oneThread.evaluateBatch(poses);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(single[i], first[i]) << "pose " << i << " (1 vs 4 threads)";
  }
}

// --- PackedHBondWindowTest: the H-bond pass's cell-window walk ---------

/// Test-local oracle: the packed H-bond pass as a walk of every site in
/// the list, in packed order, with the exact cutoff test, summed over the
/// ligand atoms in atom order as energy() sums them.
double fullWalkHBond(const ReceptorModel& receptor, const LigandModel& ligand,
                     std::span<const Vec3> pos, double cutoff) {
  const chem::ForceField& ff = chem::ForceField::standard();
  const chem::HBondParams hbp = ff.hbond();
  double total = 0.0;
  for (std::size_t la = 0; la < pos.size(); ++la) {
    const Vec3& lpos = pos[la];
    const Element le = ligand.molecule().element(la);
    double hb = 0.0;
    switch (ligand.molecule().hbondRole(la)) {
      case HBondRole::kAcceptor:
        for (const ReceptorModel::HBondSite& d : receptor.donorHydrogenSites().sites) {
          const double r = distance(d.pos, lpos);
          if (cutoff > 0.0 && r > cutoff) continue;
          const chem::LjParams lj = ff.ljPair(d.element, le);
          const Vec3 toAcceptor = (lpos - d.pos).normalized();
          const double cosTheta = d.donorDir.norm2() > 0.0 ? d.donorDir.dot(toAcceptor) : 1.0;
          hb += hbondEnergy(hbp, lj.epsilon, lj.sigma, r, cosTheta);
        }
        break;
      case HBondRole::kDonorHydrogen: {
        const int anchor = ligand.hydrogenAnchors()[la];
        for (const ReceptorModel::HBondSite& a : receptor.acceptorSites().sites) {
          const double r = distance(a.pos, lpos);
          if (cutoff > 0.0 && r > cutoff) continue;
          const chem::LjParams lj = ff.ljPair(a.element, le);
          double cosTheta = 1.0;
          if (anchor >= 0) {
            const Vec3 dir = (lpos - pos[static_cast<std::size_t>(anchor)]).normalized();
            cosTheta = dir.dot((a.pos - lpos).normalized());
          }
          hb += hbondEnergy(hbp, lj.epsilon, lj.sigma, r, cosTheta);
        }
        break;
      }
      case HBondRole::kNone:
        break;
    }
    total += hb;
  }
  return total;
}

/// Bit equality (memcmp); any NaN matches any NaN, since which NaN an
/// operation returns is the hardware's choice, not the walk's.
::testing::AssertionResult sameBits(double got, double want) {
  if (std::memcmp(&got, &want, sizeof got) == 0 || (std::isnan(got) && std::isnan(want))) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << std::hexfloat << "got " << got << ", full walk " << want;
}

/// Holds the H-bond term of every execution path under `opts` to the
/// full-walk oracle, bit for bit, on each pose: serial energy(), pooled
/// energy() on 3 threads, and energyBatch cut into tiles of 1, 7 and 32.
void expectHBondMatchesFullWalk(const ReceptorModel& receptor, const LigandModel& ligand,
                                const ScoringOptions& opts, std::span<const Pose> poses,
                                const char* what) {
  ScoringFunction serial(receptor, ligand, opts);
  ThreadPool pool(3);
  ScoringOptions pooledOpts = opts;
  pooledOpts.pool = &pool;
  ScoringFunction pooled(receptor, ligand, pooledOpts);

  std::vector<double> oracle;
  std::vector<Vec3> pos;
  for (std::size_t i = 0; i < poses.size(); ++i) {
    ligand.applyPose(poses[i], pos);
    oracle.push_back(fullWalkHBond(receptor, ligand, pos, opts.cutoff));
    EXPECT_TRUE(sameBits(serial.energy(pos).hbond, oracle[i])) << what << " serial, pose " << i;
    EXPECT_TRUE(sameBits(pooled.energy(pos).hbond, oracle[i])) << what << " pooled, pose " << i;
  }
  ScoringFunction::BatchScratch scratch;
  std::vector<ScoreTerms> out(poses.size());
  for (std::size_t split : {1u, 7u, 32u}) {
    for (std::size_t i0 = 0; i0 < poses.size(); i0 += split) {
      const std::size_t n = std::min(split, poses.size() - i0);
      serial.energyBatch(poses.subspan(i0, n), scratch, std::span(out).subspan(i0, n));
    }
    for (std::size_t i = 0; i < poses.size(); ++i) {
      EXPECT_TRUE(sameBits(out[i].hbond, oracle[i]))
          << what << " energyBatch split " << split << ", pose " << i;
    }
  }
}

TEST(PackedHBondWindowTest, MatchesFullWalkOnPaper2BSMPoses) {
  // The poses an episode, a dock and a population visit: the pocket,
  // Improve-move jitters around it, the rest pose every episode and dock
  // starts from (no site within the cutoff), spread random poses, and
  // one far outside the grid box.
  const chem::Scenario sc = chem::buildScenario(chem::ScenarioSpec::paper2bsm());
  ReceptorModel receptor(sc.receptor, 12.0);
  LigandModel ligand(sc.ligand);
  ASSERT_GT(receptor.acceptorSites().sites.size(), 1000u);

  Pose pocket(ligand.torsionCount());
  pocket.translation = sc.pocketCenter;
  std::vector<Pose> poses{pocket, ligand.restPose()};
  Rng rng(29);
  for (int i = 0; i < 12; ++i) poses.push_back(perturbPose(pocket, 1.0, 0.1745, 0.2618, rng));
  for (const Pose& p : randomPoses(receptor, ligand, 8, 30.0, 31)) poses.push_back(p);
  Pose far(ligand.torsionCount());
  far.translation = receptor.centerOfMass() + Vec3{500, -500, 500};
  poses.push_back(far);

  for (const auto& [name, opts] : pathConfigs()) {
    expectHBondMatchesFullWalk(receptor, ligand, opts, poses, name);
  }
}

TEST(PackedHBondWindowTest, MatchesFullWalkOnHBondWallComplex) {
  // The only complex with receptor donor hydrogens, so the only one whose
  // ligand acceptors walk the donor list.
  const HBondWall wall = hbondWall();
  ReceptorModel model(wall.receptor, 8.0);
  LigandModel lig(wall.ligand);
  ASSERT_FALSE(model.donorHydrogenSites().sites.empty());
  const std::vector<Pose> poses = hbondWallPoses(model, lig);

  ScoringOptions grid;
  grid.cutoff = 8.0;
  ScoringOptions cutoffOnly = grid;
  cutoffOnly.useGrid = false;
  ScoringOptions brute;
  brute.cutoff = 0.0;
  brute.useGrid = false;
  expectHBondMatchesFullWalk(model, lig, grid, poses, "cutoff+grid");
  expectHBondMatchesFullWalk(model, lig, cutoffOnly, poses, "cutoff");
  expectHBondMatchesFullWalk(model, lig, brute, poses, "brute");
}

/// A receptor spanning 3x3x3 cells of edge 8 from the origin, with one
/// acceptor site at `site`, and a hydroxyl probe ligand (O-H).
struct FaceProbe {
  chem::Molecule receptor{"face-wall"};
  chem::Molecule ligand{"face-probe"};

  explicit FaceProbe(const Vec3& site) {
    receptor.addAtom(Element::C, {0, 0, 0}, 0.0);
    receptor.addAtom(Element::C, {23.5, 23.5, 23.5}, 0.0);
    receptor.addAtom(Element::O, site, -0.4, HBondRole::kAcceptor);
    const int o = ligand.addAtom(Element::O, {0, 0, 0}, -0.4, HBondRole::kAcceptor);
    const int h = ligand.addAtom(Element::H, {1, 0, 0}, 0.4, HBondRole::kDonorHydrogen);
    ligand.addBond(o, h);
  }
};

TEST(PackedHBondWindowTest, CountsASiteExactlyOneCutoffAcrossACellFace) {
  // The site sits on the face of the cell next to the hydrogen's, exactly
  // one cutoff away along each axis in turn and from either side: the
  // cutoff test keeps r == cutoff, so the window must reach that cell.
  struct Case {
    Vec3 site, hydrogen, anchor;
  };
  const Case cases[] = {
      {{16, 4, 4}, {8, 4, 4}, {7, 4, 4}},     {{8, 4, 4}, {16, 4, 4}, {17, 4, 4}},
      {{4, 16, 4}, {4, 8, 4}, {4, 7, 4}},     {{4, 8, 4}, {4, 16, 4}, {4, 17, 4}},
      {{4, 4, 16}, {4, 4, 8}, {4, 4, 7}},     {{4, 4, 8}, {4, 4, 16}, {4, 4, 17}},
      {{12, 12, 16}, {12, 12, 8}, {12, 12, 7}},
  };
  for (const Case& c : cases) {
    FaceProbe probe(c.site);
    ReceptorModel receptor(probe.receptor, 8.0);
    LigandModel ligand(probe.ligand);
    ScoringOptions opts;
    opts.cutoff = 8.0;
    ScoringFunction sf(receptor, ligand, opts);
    const std::vector<Vec3> pos{c.anchor, c.hydrogen};
    ASSERT_EQ(distance(c.site, c.hydrogen), 8.0);
    const double hb = sf.energy(pos).hbond;
    EXPECT_NE(hb, 0.0) << "site " << c.site.x << "," << c.site.y << "," << c.site.z;
    EXPECT_TRUE(sameBits(hb, fullWalkHBond(receptor, ligand, pos, opts.cutoff)));
  }
}

TEST(PackedHBondWindowTest, NonFinitePositionKeepsNaN) {
  // A NaN ligand position meets every site in the full walk (NaN > cutoff
  // is false); the windowed pass must keep that NaN instead of finding no
  // cell for it and returning 0. Per-pose and batched alike.
  const chem::Scenario sc = chem::buildScenario(chem::ScenarioSpec::paper2bsm());
  ReceptorModel receptor(sc.receptor, 12.0);
  LigandModel ligand(sc.ligand);
  ScoringFunction sf(receptor, ligand, {});
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();

  Pose nanPose(ligand.torsionCount());
  nanPose.translation = Vec3{nan, sc.pocketCenter.y, sc.pocketCenter.z};
  std::vector<Vec3> pos;
  ligand.applyPose(nanPose, pos);
  ASSERT_TRUE(std::isnan(fullWalkHBond(receptor, ligand, pos, 12.0)));
  EXPECT_TRUE(std::isnan(sf.energy(pos).hbond));

  Pose pocket(ligand.torsionCount());
  pocket.translation = sc.pocketCenter;
  const std::vector<Pose> poses{pocket, nanPose, pocket};
  expectHBondMatchesFullWalk(receptor, ligand, {}, poses, "nan pose");

  // One non-finite atom in an otherwise finite conformation.
  ligand.applyPose(pocket, pos);
  for (std::size_t la = 0; la < pos.size(); ++la) {
    if (ligand.molecule().hbondRole(la) == HBondRole::kDonorHydrogen) {
      pos[la].z = nan;
      break;
    }
  }
  EXPECT_TRUE(std::isnan(sf.energy(pos).hbond));
}

TEST(PackedHBondWindowTest, CellOffsetsSliceEachCellsSites) {
  // The offset table is a CSR over the site list: monotone from 0 to the
  // list size, and cell c's slice holds exactly the sites in cell c.
  const chem::Scenario sc = chem::buildScenario(chem::ScenarioSpec::paper2bsm());
  const HBondWall wall = hbondWall();
  const ReceptorModel paper(sc.receptor, 12.0);
  const ReceptorModel wallModel(wall.receptor, 8.0);
  for (const ReceptorModel* model : {&paper, &wallModel}) {
    const NeighborGrid& g = model->grid();
    const std::size_t numCells = static_cast<std::size_t>(g.nx()) * g.ny() * g.nz();
    for (const ReceptorModel::SiteList* list :
         {&model->donorHydrogenSites(), &model->acceptorSites()}) {
      ASSERT_EQ(list->cellOffsets.size(), numCells + 1);
      EXPECT_EQ(list->cellOffsets.front(), 0u);
      EXPECT_EQ(list->cellOffsets.back(), list->sites.size());
      for (int z = 0; z < g.nz(); ++z) {
        for (int y = 0; y < g.ny(); ++y) {
          for (int x = 0; x < g.nx(); ++x) {
            const std::size_t c = g.cellLinearIndex(x, y, z);
            ASSERT_LE(list->cellOffsets[c], list->cellOffsets[c + 1]);
            for (std::uint32_t k = list->cellOffsets[c]; k < list->cellOffsets[c + 1]; ++k) {
              int cx, cy, cz;
              ASSERT_TRUE(g.cellCoords(list->sites[k].pos, cx, cy, cz));
              EXPECT_EQ(std::min(cx, g.nx() - 1), x) << "site " << k;
              EXPECT_EQ(std::min(cy, g.ny() - 1), y) << "site " << k;
              EXPECT_EQ(std::min(cz, g.nz() - 1), z) << "site " << k;
            }
          }
        }
      }
    }
  }
  // Without a grid there is no table and the walk covers the whole list.
  const ReceptorModel noGrid(sc.receptor, 0.0);
  EXPECT_TRUE(noGrid.acceptorSites().cellOffsets.empty());
  std::size_t visited = 0;
  noGrid.forEachSiteNear(noGrid.acceptorSites(), sc.pocketCenter, 12.0,
                         [&](const ReceptorModel::HBondSite&) { ++visited; });
  EXPECT_EQ(visited, noGrid.acceptorSites().sites.size());
}

}  // namespace
}  // namespace dqndock::metadock
