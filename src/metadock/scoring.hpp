#pragma once

/// \file scoring.hpp
/// METADOCK's three-term scoring function (Equation 1 of the paper):
///
///   E = sum_ij k q_i q_j / r_ij                         (electrostatics)
///     + sum_ij 4 eps_ij [ (s/r)^12 - (s/r)^6 ]          (Lennard-Jones)
///     + sum_ij cos(th) [ C/r^12 - D/r^10 ]
///            + sin(th) 4 eps_ij [ (s/r)^12 - (s/r)^6 ]  (hydrogen bond)
///
/// The docking *score* reported to callers is the negated energy, so
/// higher is better and steric clashes drive the score to huge negative
/// values — matching the paper's description of the score range
/// ("from big negative numbers (e.g. -4.5e+21) to 500 at most").
///
/// Execution paths: brute force (Algorithm 1 of the paper), cutoff
/// without grid, cutoff + neighbour-grid pruned, and thread-pool parallel
/// (the CPU analogue of METADOCK's GPU kernels). All of them run the
/// *packed* data-oriented kernel: pass 1 is a fused
/// electrostatics+Lennard-Jones sweep over the receptor's cell-sorted
/// SoA arrays with precomputed per-ligand-element pair-parameter rows
/// (branch-free, auto-vectorisable); pass 2 scores the hydrogen-bond
/// term over the receptor's packed donor/acceptor site lists, visiting
/// only the sites in the grid cells the cutoff reaches (the same sites
/// in the same order as a walk of the whole list, so bit-identical to
/// it). The original scalar AoS kernel, one receptor-ligand pair at a
/// time, lives on as the test oracle in tests/test_scoring_packed.cpp,
/// which holds every path to it within ~1e-9 relative per term.
///
/// Threaded evaluation sums ordered per-ligand-atom partials, so scores
/// are bit-identical across thread counts (and to the serial path).
///
/// The packed sweeps (per-pose and pose-batched) are runtime-dispatched:
/// per-ISA translation units (portable C++ and AVX-512F) are compiled
/// with explicit per-file flags, and the function-pointer table of the
/// active tier (src/common/cpu_tier.hpp, CPUID-probed once per process)
/// is installed at construction, so a portable Release binary still
/// runs the AVX-512 batched sweep on capable hosts.
/// An environment override pins the tier for testing and benchmarking
/// (see cpu_tier.hpp). The per-pose sweep is
/// bit-identical across tiers; the batched AVX-512 sweep agrees with the
/// generic one to ~1e-9 relative and each tier is bit-deterministic.
///
/// Pose-batched path (`energyBatch`/`scoreBatch`): B poses of the same
/// ligand are transformed into batch-major SoA position lanes and scored
/// in one receptor sweep — per ligand atom, the union of the poses' cell
/// ranges is swept once, each receptor atom's parameters are loaded once
/// and reused across all B pose lanes with a branch-free cutoff mask, and
/// subcells farther than the cutoff from the lane bounding box are
/// skipped entirely (the CPU analogue of METADOCK scoring many poses per
/// surface spot per GPU kernel launch). Per-atom lane bounding boxes that
/// diverge beyond a cell-locality heuristic are bisected into tighter
/// lane groups and reswept. Batched scores are deterministic: bit-identical
/// for any batch split and thread count, and within ~1e-9 relative of
/// per-pose packed scoring (the pair terms are identical; only the lane
/// accumulation order differs).

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/chem/forcefield.hpp"
#include "src/common/thread_pool.hpp"
#include "src/metadock/ligand_model.hpp"
#include "src/metadock/receptor_model.hpp"
#include "src/metadock/scoring_kernels.hpp"

namespace dqndock::metadock {

/// Distances are clamped to this floor before any 1/r term; keeps the
/// energy finite (though astronomically large) for coincident atoms.
constexpr double kMinPairDistance = 0.05;

/// Per-term energy decomposition, kcal/mol.
struct ScoreTerms {
  double electrostatic = 0.0;
  double vdw = 0.0;
  double hbond = 0.0;

  double total() const { return electrostatic + vdw + hbond; }

  ScoreTerms& operator+=(const ScoreTerms& o) {
    electrostatic += o.electrostatic;
    vdw += o.vdw;
    hbond += o.hbond;
    return *this;
  }
};

/// Pairwise terms, exposed for unit testing and reuse.
double electrostaticEnergy(double qi, double qj, double r);
double lennardJonesEnergy(double epsilon, double sigma, double r);
/// 12-10 hydrogen-bond well modulated by the donor geometry angle theta.
double hbondEnergy(const chem::HBondParams& hb, double epsilon, double sigma, double r,
                   double cosTheta);

struct ScoringOptions {
  /// Interaction cutoff in Angstrom; 0 disables the cutoff (full O(n*m)
  /// sum, Algorithm 1 of the paper).
  double cutoff = 12.0;
  /// Prune receptor atoms through the neighbour grid (requires cutoff > 0
  /// and a ReceptorModel built with a grid).
  bool useGrid = true;
  /// Thread pool for parallel evaluation; nullptr = single-threaded.
  ThreadPool* pool = nullptr;
};

/// Scores ligand conformations against one compiled receptor.
class ScoringFunction {
 public:
  ScoringFunction(const ReceptorModel& receptor, const LigandModel& ligand,
                  ScoringOptions options = {});

  /// Interaction energy of the ligand at `ligandPositions` (size must be
  /// ligand.atomCount()).
  ScoreTerms energy(std::span<const Vec3> ligandPositions) const;

  /// Docking score := -energy.total(); higher is better.
  double score(std::span<const Vec3> ligandPositions) const;

  /// Convenience: apply `pose` to the ligand model, then score. The
  /// scratch buffer avoids per-call allocation in hot loops.
  double scorePose(const Pose& pose, std::vector<Vec3>& scratch) const;
  double scorePose(const Pose& pose) const;

  /// Poses per batched-kernel tile; larger batches are processed in tiles
  /// of this many lanes (per-pose results do not depend on the tiling).
  static constexpr std::size_t kMaxBatchLanes = 32;
  /// Cell-locality heuristic: when the grid-cell window covering the
  /// cutoff neighbourhood of a lane group's bounding box exceeds this
  /// many cells (27 = one pose's neighbourhood), the batched kernel
  /// bisects the lane group and retries each half with its tighter
  /// bounding box (a single lane's window is at most 27 cells, so the
  /// recursion always bottoms out in a union sweep).
  static constexpr std::size_t kMaxUnionWindowCells = 64;

  /// Reusable scratch for the pose-batched kernel (one per worker).
  /// Contents are an implementation detail; callers only keep it alive
  /// between calls so the lane buffers stay warm.
  struct BatchScratch {
    std::vector<Vec3> pose;         ///< applyPose temp
    std::vector<double> lx, ly, lz; ///< batch-major lanes [ligandAtom * lanes + pose]
    std::vector<ScoreTerms> terms;  ///< per-pose totals for scoreBatch
    std::vector<std::uint32_t> ranges;  ///< packed [first, end) pairs per sweep
    std::vector<double> slab;       ///< per-subrow slab distances (geometry phase)
  };

  /// Pose-batched energies: `out[i]` receives the energy of `poses[i]`,
  /// equal to energy(applyPose(poses[i])) within ~1e-9 relative.
  /// out.size() must equal poses.size().
  void energyBatch(std::span<const Pose> poses, BatchScratch& scratch,
                   std::span<ScoreTerms> out) const;

  /// Pose-batched docking scores (score := -energy.total()).
  void scoreBatch(std::span<const Pose> poses, BatchScratch& scratch,
                  std::span<double> out) const;

  const ReceptorModel& receptor() const { return receptor_; }
  const LigandModel& ligand() const { return ligand_; }
  const ScoringOptions& options() const { return options_; }

  /// ISA tier of the sweep kernels this instance dispatches to: the
  /// active tier at construction (activeCpuTier(); see cpu_tier.hpp).
  CpuTier kernelTier() const { return kernel_->tier; }

 private:
  /// Full three-term energy of one ligand atom against the receptor
  /// (both packed passes). The unit the threaded reduction sums in order.
  ScoreTerms atomEnergy(std::size_t ligandAtom, const Vec3& ligandPos,
                        std::span<const Vec3> allLigandPositions) const;

  /// H-bond pass for one (ligand atom, pose): identical operations and
  /// site order for the per-pose and batched kernels. Grid-pruned, it
  /// walks the sites in the cutoff's cell window
  /// (ReceptorModel::forEachSiteNear), otherwise the whole list; both
  /// sum the same sites in the same order. `anchorPos` is the donor
  /// hydrogen's anchor heavy-atom position (nullptr if none).
  double packedHBondEnergy(std::size_t ligandAtom, const Vec3& ligandPos,
                           const Vec3* anchorPos) const;

  /// One tile (<= kMaxBatchLanes poses) of the batched kernel.
  void energyBatchTile(std::span<const Pose> poses, BatchScratch& scratch,
                       std::span<ScoreTerms> out) const;

  const ReceptorModel& receptor_;
  const LigandModel& ligand_;
  ScoringOptions options_;
  /// Runtime-dispatched sweep kernels (per-ISA TUs; chosen once here).
  const detail::ScoringKernelOps* kernel_;
  /// Precombined Lorentz-Berthelot pair parameters, indexed
  /// [receptorElement][ligandElement] (the H-bond pass).
  std::array<std::array<chem::LjParams, chem::kElementCount>, chem::kElementCount> ljTable_{};
  chem::HBondParams hbond_{};

  /// Packed-kernel tables: one epsilon/sigma^2 row over the cell-sorted
  /// receptor atoms per ligand element actually present in the scenario.
  std::vector<chem::PairRowTable> pairRows_;
  std::vector<int> atomRow_;        ///< ligand atom -> index into pairRows_
  std::vector<double> ligCharges_;  ///< ligand partial charges, hoisted
  std::vector<chem::HBondRole> ligRoles_;
  std::vector<chem::Element> ligElems_;
};

}  // namespace dqndock::metadock
