#include "src/metadock/scoring.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/metadock/scoring_kernels.hpp"

namespace dqndock::metadock {

using chem::Element;
using chem::ForceField;
using chem::HBondRole;

double electrostaticEnergy(double qi, double qj, double r) {
  return chem::kCoulomb * qi * qj / std::max(r, kMinPairDistance);
}

double lennardJonesEnergy(double epsilon, double sigma, double r) {
  const double inv = sigma / std::max(r, kMinPairDistance);
  const double inv2 = inv * inv;
  const double inv6 = inv2 * inv2 * inv2;
  return 4.0 * epsilon * (inv6 * inv6 - inv6);
}

double hbondEnergy(const chem::HBondParams& hb, double epsilon, double sigma, double r,
                   double cosTheta) {
  const double rc = std::max(r, kMinPairDistance);
  // cos(theta) gates the directional 12-10 well; the off-axis remainder
  // sin(theta) falls back to the plain Lennard-Jones shape (Eq. 1).
  const double c = std::clamp(cosTheta, 0.0, 1.0);
  const double s = std::sqrt(std::max(0.0, 1.0 - c * c));
  const double r2 = rc * rc;
  const double r10 = r2 * r2 * r2 * r2 * r2;
  const double r12 = r10 * r2;
  return c * (hb.c12 / r12 - hb.d10 / r10) + s * lennardJonesEnergy(epsilon, sigma, rc);
}

ScoringFunction::ScoringFunction(const ReceptorModel& receptor, const LigandModel& ligand,
                                 ScoringOptions options)
    : receptor_(receptor),
      ligand_(ligand),
      options_(options),
      // Dispatch table chosen once per ScoringFunction from the cached
      // process-wide tier (throws on an unsupported forced tier, so a
      // pinned test/bench run can't silently fall back).
      kernel_(&detail::scoringKernelOps(activeCpuTier())) {
  if (options_.useGrid && options_.cutoff > 0.0 && !receptor_.hasGrid()) {
    throw std::invalid_argument(
        "ScoringFunction: useGrid requires a ReceptorModel built with a grid");
  }
  if (options_.useGrid && options_.cutoff > 0.0 &&
      receptor_.grid().cellSize() + 1e-12 < options_.cutoff) {
    throw std::invalid_argument(
        "ScoringFunction: grid cell size must be >= cutoff for 27-cell coverage");
  }
  const ForceField& ff = ForceField::standard();
  for (int a = 0; a < chem::kElementCount; ++a) {
    for (int b = 0; b < chem::kElementCount; ++b) {
      ljTable_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          ff.ljPair(static_cast<Element>(a), static_cast<Element>(b));
    }
  }
  hbond_ = ff.hbond();

  // Packed-kernel tables: one pair-parameter row over the cell-sorted
  // receptor per ligand element actually present, plus hoisted per-atom
  // ligand data so the hot loop never touches the Molecule.
  const std::size_t ln = ligand_.atomCount();
  atomRow_.resize(ln);
  ligCharges_.resize(ln);
  ligRoles_.resize(ln);
  ligElems_.resize(ln);
  std::array<int, chem::kElementCount> rowOf;
  rowOf.fill(-1);
  for (std::size_t la = 0; la < ln; ++la) {
    const Element e = ligand_.molecule().element(la);
    int& row = rowOf[static_cast<std::size_t>(e)];
    if (row < 0) {
      row = static_cast<int>(pairRows_.size());
      pairRows_.push_back(ff.pairRows(e, receptor_.packedElements()));
    }
    atomRow_[la] = row;
    ligCharges_[la] = ligand_.molecule().charge(la);
    ligRoles_[la] = ligand_.molecule().hbondRole(la);
    ligElems_[la] = e;
  }
}

ScoreTerms ScoringFunction::pairEnergy(std::size_t ra, std::size_t la, const Vec3& ligandPos,
                                       std::span<const Vec3> allLigandPositions) const {
  ScoreTerms terms;
  const Vec3& rpos = receptor_.positions()[ra];
  const double r = distance(rpos, ligandPos);
  if (options_.cutoff > 0.0 && r > options_.cutoff) return terms;

  const Element re = receptor_.elements()[ra];
  const Element le = ligand_.molecule().element(la);
  const chem::LjParams lj = ljTable_[static_cast<std::size_t>(re)][static_cast<std::size_t>(le)];

  terms.electrostatic =
      electrostaticEnergy(receptor_.charges()[ra], ligand_.molecule().charge(la), r);
  terms.vdw = lennardJonesEnergy(lj.epsilon, lj.sigma, r);

  // Hydrogen bond: donor hydrogen on one side, acceptor on the other.
  const HBondRole rRole = receptor_.roles()[ra];
  const HBondRole lRole = ligand_.molecule().hbondRole(la);
  if (rRole == HBondRole::kDonorHydrogen && lRole == HBondRole::kAcceptor) {
    const Vec3 dir = receptor_.donorDirections()[ra];
    const Vec3 toAcceptor = (ligandPos - rpos).normalized();
    const double cosTheta = dir.norm2() > 0.0 ? dir.dot(toAcceptor) : 1.0;
    terms.hbond = hbondEnergy(hbond_, lj.epsilon, lj.sigma, r, cosTheta);
  } else if (rRole == HBondRole::kAcceptor && lRole == HBondRole::kDonorHydrogen) {
    const int anchor = ligand_.hydrogenAnchors()[la];
    double cosTheta = 1.0;
    if (anchor >= 0) {
      const Vec3 dir =
          (ligandPos - allLigandPositions[static_cast<std::size_t>(anchor)]).normalized();
      cosTheta = dir.dot((rpos - ligandPos).normalized());
    }
    terms.hbond = hbondEnergy(hbond_, lj.epsilon, lj.sigma, r, cosTheta);
  }
  return terms;
}

ScoreTerms ScoringFunction::scalarAtomEnergy(std::size_t la, const Vec3& lpos,
                                             std::span<const Vec3> all) const {
  ScoreTerms acc;
  const bool pruned = options_.useGrid && options_.cutoff > 0.0;
  if (pruned) {
    receptor_.grid().forEachNear(lpos,
                                 [&](std::size_t ra) { acc += pairEnergy(ra, la, lpos, all); });
  } else {
    const std::size_t n = receptor_.atomCount();
    for (std::size_t ra = 0; ra < n; ++ra) {
      acc += pairEnergy(ra, la, lpos, all);
    }
  }
  return acc;
}

ScoreTerms ScoringFunction::packedAtomEnergy(std::size_t la, const Vec3& lpos,
                                             std::span<const Vec3> all) const {
  ScoreTerms terms;
  const std::size_t n = receptor_.atomCount();
  if (n == 0) return terms;

  // Candidate ranges over the cell-sorted order: the 27-neighbourhood
  // when grid-pruned, the whole receptor otherwise, flattened to the
  // packed [first, end) pairs the dispatch kernels consume.
  NeighborGrid::Range ranges[NeighborGrid::kMaxQueryRanges];
  std::uint32_t flat[2 * NeighborGrid::kMaxQueryRanges];
  std::size_t numRanges;
  if (options_.useGrid && options_.cutoff > 0.0) {
    numRanges = static_cast<std::size_t>(receptor_.grid().queryRanges(lpos, ranges));
    for (std::size_t k = 0; k < numRanges; ++k) {
      flat[2 * k] = ranges[k].first;
      flat[2 * k + 1] = ranges[k].first + ranges[k].count;
    }
  } else {
    flat[0] = 0;
    flat[1] = static_cast<std::uint32_t>(n);
    numRanges = 1;
  }

  // Pass 1: fused electrostatics + Lennard-Jones over flat SoA arrays,
  // through the runtime-dispatched sweep (branch-free, out-of-cutoff
  // pairs contribute an exact 0.0; fixed 8-lane accumulator order, so
  // results are bit-identical across tiers, builds, and thread counts).
  const chem::PairRowTable& row = pairRows_[static_cast<std::size_t>(atomRow_[la])];
  const double cut2 = options_.cutoff > 0.0 ? options_.cutoff * options_.cutoff
                                            : std::numeric_limits<double>::infinity();
  double elec = 0.0, vdw = 0.0;
  kernel_->sweepAtom(receptor_.packedX().data(), receptor_.packedY().data(),
                     receptor_.packedZ().data(), receptor_.packedCharges().data(),
                     row.epsilon.data(), row.sigma2.data(), flat, numRanges, lpos.x, lpos.y,
                     lpos.z, cut2, &elec, &vdw);
  terms.electrostatic = chem::kCoulomb * ligCharges_[la] * elec;
  terms.vdw = 4.0 * vdw;

  // Pass 2: hydrogen bond over the sparse packed site lists, hoisted out
  // of the hot loop and shared with the batched kernel.
  const int anchor = ligand_.hydrogenAnchors()[la];
  const Vec3* anchorPos = anchor >= 0 ? &all[static_cast<std::size_t>(anchor)] : nullptr;
  terms.hbond = packedHBondEnergy(la, lpos, anchorPos);
  return terms;
}

double ScoringFunction::packedHBondEnergy(std::size_t la, const Vec3& lpos,
                                          const Vec3* anchorPos) const {
  // Donor hydrogen on one side, acceptor on the other. The cutoff test
  // mirrors the scalar path exactly. When grid-pruned, the walk visits
  // only the sites in the cell window the cutoff can reach, in the list's
  // own order, so the sum is bit-identical to scanning the full list.
  const HBondRole lRole = ligRoles_[la];
  if (lRole == HBondRole::kNone) return 0.0;
  const bool ligandAcceptor = lRole == HBondRole::kAcceptor;
  const ReceptorModel::SiteList& sites =
      ligandAcceptor ? receptor_.donorHydrogenSites() : receptor_.acceptorSites();
  const Element le = ligElems_[la];
  double hb = 0.0;
  auto addSite = [&](const ReceptorModel::HBondSite& site) {
    const double r = distance(site.pos, lpos);
    if (options_.cutoff > 0.0 && r > options_.cutoff) return;
    const chem::LjParams lj =
        ljTable_[static_cast<std::size_t>(site.element)][static_cast<std::size_t>(le)];
    double cosTheta = 1.0;
    if (ligandAcceptor) {
      const Vec3 toAcceptor = (lpos - site.pos).normalized();
      if (site.donorDir.norm2() > 0.0) cosTheta = site.donorDir.dot(toAcceptor);
    } else if (anchorPos != nullptr) {
      const Vec3 dir = (lpos - *anchorPos).normalized();
      cosTheta = dir.dot((site.pos - lpos).normalized());
    }
    hb += hbondEnergy(hbond_, lj.epsilon, lj.sigma, r, cosTheta);
  };
  if (options_.useGrid && options_.cutoff > 0.0) {
    receptor_.forEachSiteNear(sites, lpos, options_.cutoff, addSite);
  } else {
    for (const ReceptorModel::HBondSite& site : sites.sites) addSite(site);
  }
  return hb;
}

ScoreTerms ScoringFunction::atomEnergy(std::size_t la, const Vec3& lpos,
                                       std::span<const Vec3> all) const {
  return options_.packed ? packedAtomEnergy(la, lpos, all) : scalarAtomEnergy(la, lpos, all);
}

void ScoringFunction::energyBatchTile(std::span<const Pose> poses, BatchScratch& s,
                                      std::span<ScoreTerms> out) const {
  const std::size_t L = poses.size();
  const std::size_t n = ligand_.atomCount();

  // Transform the tile into batch-major SoA lanes: lane b of ligand atom
  // la lives at [la * L + b], so the kernel's inner loop streams
  // contiguous doubles.
  s.lx.resize(n * L);
  s.ly.resize(n * L);
  s.lz.resize(n * L);
  for (std::size_t b = 0; b < L; ++b) {
    ligand_.applyPose(poses[b], s.pose);
    for (std::size_t la = 0; la < n; ++la) {
      s.lx[la * L + b] = s.pose[la].x;
      s.ly[la * L + b] = s.pose[la].y;
      s.lz[la * L + b] = s.pose[la].z;
    }
  }
  for (std::size_t b = 0; b < L; ++b) out[b] = ScoreTerms{};

  const std::size_t rn = receptor_.atomCount();
  const bool pruned = options_.useGrid && options_.cutoff > 0.0;
  const double cut2 = options_.cutoff > 0.0 ? options_.cutoff * options_.cutoff
                                            : std::numeric_limits<double>::infinity();
  const double* X = receptor_.packedX().data();
  const double* Y = receptor_.packedY().data();
  const double* Z = receptor_.packedZ().data();
  const double* Q = receptor_.packedCharges().data();

  for (std::size_t la = 0; la < n; ++la) {
    const double* lx = s.lx.data() + la * L;
    const double* ly = s.ly.data() + la * L;
    const double* lz = s.lz.data() + la * L;
    const chem::PairRowTable& row = pairRows_[static_cast<std::size_t>(atomRow_[la])];
    const double* EPS = row.epsilon.data();
    const double* SG2 = row.sigma2.data();

    double elecAcc[kMaxBatchLanes] = {};
    double vdwAcc[kMaxBatchLanes] = {};

    if (rn > 0 && !pruned) {
      const std::uint32_t whole[2] = {0u, static_cast<std::uint32_t>(rn)};
      kernel_->sweepRanges(X, Y, Z, Q, EPS, SG2, whole, 1, lx, ly, lz, L, cut2, elecAcc, vdwAcc);
    } else if (rn > 0) {
      const NeighborGrid& g = receptor_.grid();
      // The grid-geometry slack inflates the cutoff reach and the subcell
      // boxes, so rounding can only add masked (exact-zero) work, never
      // drop an in-cutoff pair.
      constexpr double kGeomMargin = NeighborGrid::kGeomMargin;
      const double reach = options_.cutoff + kGeomMargin;
      const double cut2m = reach * reach;
      const double cell = g.cellSize();
      const Vec3& o = g.origin();
      const int S = g.hasSubcells() ? g.subdiv() : 1;
      const std::size_t S3 = static_cast<std::size_t>(S) * S * S;
      const std::uint32_t* subOff =
          g.hasSubcells() ? g.subOffsets().data() : g.cellOffsets().data();
      const double sub = cell / static_cast<double>(S);
      const double invSub = 1.0 / sub;

      // Lane-bisection work list: when a lane group's union cell window
      // exceeds the locality heuristic, split the group in half and retry
      // — halves have tighter bounding boxes. A single lane's window is
      // at most 3x3x3 cells, so recursion always terminates in a union
      // sweep; and because every path sweeps an ascending-packed-order
      // superset of each lane's in-cutoff pairs with exact-zero masking,
      // per-lane results are bit-independent of how the tile splits.
      struct LaneSpan {
        std::uint16_t b0, b1;
      };
      LaneSpan work[2 * kMaxBatchLanes];
      int top = 0;
      work[top++] = {0, static_cast<std::uint16_t>(L)};
      while (top > 0) {
        const LaneSpan span = work[--top];
        const std::size_t b0 = span.b0, b1 = span.b1;
        // Bounding box of this atom's positions over the lane group.
        double bx0 = lx[b0], bx1 = lx[b0], by0 = ly[b0], by1 = ly[b0];
        double bz0 = lz[b0], bz1 = lz[b0];
        for (std::size_t b = b0 + 1; b < b1; ++b) {
          bx0 = std::min(bx0, lx[b]);
          bx1 = std::max(bx1, lx[b]);
          by0 = std::min(by0, ly[b]);
          by1 = std::max(by1, ly[b]);
          bz0 = std::min(bz0, lz[b]);
          bz1 = std::max(bz1, lz[b]);
        }
        // Cell window covering the cutoff reach of the bounding box.
        NeighborGrid::CellWindow win;
        if (!g.cellWindow(Vec3{bx0, by0, bz0}, Vec3{bx1, by1, bz1}, reach, win)) {
          continue;  // every lane in the group is beyond reach
        }
        const int px0 = win.x0, px1 = win.x1;
        const int py0 = win.y0, py1 = win.y1;
        const int pz0 = win.z0, pz1 = win.z1;
        if (win.cellCount() > kMaxUnionWindowCells && b1 - b0 > 1) {
          const std::size_t mid = b0 + (b1 - b0) / 2;
          work[top++] = {static_cast<std::uint16_t>(mid), static_cast<std::uint16_t>(b1)};
          work[top++] = {static_cast<std::uint16_t>(b0), static_cast<std::uint16_t>(mid)};
          continue;
        }
        // Union sweep, sliced at subcell resolution. Phase 1 is pure
        // geometry: walk the window's global (z, y) subcell rows, skip
        // rows farther than the cutoff from the group bounding box, clip
        // each surviving row's x extent by the remaining budget (sphere
        // slicing), and emit the packed [first, end) receptor ranges into
        // the scratch range list. Phase 2 sweeps the whole list in one
        // kernel call, so lane positions and accumulators stay in
        // registers across every range. The row order (gz, gy, px
        // ascending) is a fixed total order on subcells independent of
        // the window bounds, so a lane's in-cutoff pairs are visited in
        // the same order no matter how the tile was split — the property
        // the bit-determinism argument needs.
        const std::size_t lanes = b1 - b0;
        const int gz0 = pz0 * S, gz1 = pz1 * S + (S - 1);
        const int gy0 = py0 * S, gy1 = py1 * S + (S - 1);
        const std::size_t nzSub = static_cast<std::size_t>(gz1 - gz0 + 1);
        const std::size_t nySub = static_cast<std::size_t>(gy1 - gy0 + 1);
        s.slab.resize(nzSub + nySub);
        double* dz2v = s.slab.data();
        double* dy2v = s.slab.data() + nzSub;
        for (int gz = gz0; gz <= gz1; ++gz) {
          const double zlo = o.z + gz * sub - kGeomMargin;
          const double zhi = zlo + sub + 2.0 * kGeomMargin;
          const double dz = std::max({0.0, zlo - bz1, bz0 - zhi});
          dz2v[gz - gz0] = dz * dz;
        }
        for (int gy = gy0; gy <= gy1; ++gy) {
          const double ylo = o.y + gy * sub - kGeomMargin;
          const double yhi = ylo + sub + 2.0 * kGeomMargin;
          const double dy = std::max({0.0, ylo - by1, by0 - yhi});
          dy2v[gy - gy0] = dy * dy;
        }
        s.ranges.clear();
        for (int gz = gz0; gz <= gz1; ++gz) {
          const double dz2 = dz2v[gz - gz0];
          if (dz2 > cut2m) continue;
          const int pz = gz / S, szz = gz - pz * S;
          for (int gy = gy0; gy <= gy1; ++gy) {
            const double d2 = dy2v[gy - gy0] + dz2;
            if (d2 > cut2m) continue;
            const int py = gy / S, syy = gy - py * S;
            const double rx = std::sqrt(cut2m - d2);
            // Global x subcell range for this row, sphere-clipped; clamp
            // in doubles so far-out bounding boxes cannot overflow int.
            const double fgx0 = std::floor((bx0 - rx - kGeomMargin - o.x) * invSub);
            const double fgx1 = std::floor((bx1 + rx + kGeomMargin - o.x) * invSub);
            const int gx0 =
                static_cast<int>(std::max(fgx0, static_cast<double>(px0) * S));
            const int gx1 =
                static_cast<int>(std::min(fgx1, static_cast<double>(px1) * S + (S - 1)));
            if (gx1 < gx0) continue;
            const std::size_t rowKey = (static_cast<std::size_t>(szz) * S + syy) * S;
            for (int px = gx0 / S; px <= gx1 / S; ++px) {
              const int sx0 = std::max(gx0 - px * S, 0);
              const int sx1 = std::min(gx1 - px * S, S - 1);
              const std::size_t k0 = g.cellLinearIndex(px, py, pz) * S3 + rowKey;
              const std::uint32_t first = subOff[k0 + static_cast<std::size_t>(sx0)];
              const std::uint32_t end = subOff[k0 + static_cast<std::size_t>(sx1) + 1];
              if (end > first) {
                // Coalesce ranges that abut in packed index space; the
                // swept j sequence is unchanged.
                if (!s.ranges.empty() && s.ranges.back() == first) {
                  s.ranges.back() = end;
                } else {
                  s.ranges.push_back(first);
                  s.ranges.push_back(end);
                }
              }
            }
          }
        }
        if (!s.ranges.empty()) {
          kernel_->sweepRanges(X, Y, Z, Q, EPS, SG2, s.ranges.data(), s.ranges.size() / 2, lx + b0,
                      ly + b0, lz + b0, lanes, cut2, elecAcc + b0, vdwAcc + b0);
        }
      }
    }
    for (std::size_t b = 0; b < L; ++b) {
      out[b].electrostatic += chem::kCoulomb * ligCharges_[la] * elecAcc[b];
      out[b].vdw += 4.0 * vdwAcc[b];
    }

    // H-bond pass: per pose, the exact per-pose-kernel code path (same
    // site order, same operations), so this term is bit-identical to
    // per-pose packed scoring.
    if (ligRoles_[la] != HBondRole::kNone) {
      const int anchor = ligand_.hydrogenAnchors()[la];
      for (std::size_t b = 0; b < L; ++b) {
        const Vec3 lpos{lx[b], ly[b], lz[b]};
        Vec3 anchorPos;
        const Vec3* ap = nullptr;
        if (anchor >= 0) {
          const std::size_t ai = static_cast<std::size_t>(anchor);
          anchorPos = Vec3{s.lx[ai * L + b], s.ly[ai * L + b], s.lz[ai * L + b]};
          ap = &anchorPos;
        }
        out[b].hbond += packedHBondEnergy(la, lpos, ap);
      }
    }
  }
}

void ScoringFunction::energyBatch(std::span<const Pose> poses, BatchScratch& scratch,
                                  std::span<ScoreTerms> out) const {
  if (out.size() != poses.size()) {
    throw std::invalid_argument("ScoringFunction::energyBatch: output size mismatch");
  }
  if (!options_.packed) {
    // Scalar fallback: exactly the per-pose path, pose by pose.
    for (std::size_t i = 0; i < poses.size(); ++i) {
      ligand_.applyPose(poses[i], scratch.pose);
      out[i] = energy(scratch.pose);
    }
    return;
  }
  for (std::size_t i0 = 0; i0 < poses.size(); i0 += kMaxBatchLanes) {
    const std::size_t tile = std::min(kMaxBatchLanes, poses.size() - i0);
    energyBatchTile(poses.subspan(i0, tile), scratch, out.subspan(i0, tile));
  }
}

void ScoringFunction::scoreBatch(std::span<const Pose> poses, BatchScratch& scratch,
                                 std::span<double> out) const {
  if (out.size() != poses.size()) {
    throw std::invalid_argument("ScoringFunction::scoreBatch: output size mismatch");
  }
  scratch.terms.resize(poses.size());
  energyBatch(poses, scratch, scratch.terms);
  for (std::size_t i = 0; i < poses.size(); ++i) out[i] = -scratch.terms[i].total();
}

ScoreTerms ScoringFunction::energy(std::span<const Vec3> ligandPositions) const {
  if (ligandPositions.size() != ligand_.atomCount()) {
    throw std::invalid_argument("ScoringFunction::energy: ligand position count mismatch");
  }
  const std::size_t n = ligandPositions.size();
  if (options_.pool == nullptr || n < 8) {
    ScoreTerms acc;
    for (std::size_t la = 0; la < n; ++la) {
      acc += atomEnergy(la, ligandPositions[la], ligandPositions);
    }
    return acc;
  }
  // Ordered per-atom partials: each atom's terms are computed exactly as
  // in the serial path and summed in atom order afterwards, so the result
  // is bit-identical for any thread count (and to the serial path) —
  // unlike the old mutex-ordered chunk accumulation.
  std::vector<ScoreTerms> partials(n);
  options_.pool->parallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t la = lo; la < hi; ++la) {
      partials[la] = atomEnergy(la, ligandPositions[la], ligandPositions);
    }
  });
  ScoreTerms acc;
  for (const ScoreTerms& p : partials) acc += p;
  return acc;
}

double ScoringFunction::score(std::span<const Vec3> ligandPositions) const {
  return -energy(ligandPositions).total();
}

double ScoringFunction::scorePose(const Pose& pose, std::vector<Vec3>& scratch) const {
  ligand_.applyPose(pose, scratch);
  return score(scratch);
}

double ScoringFunction::scorePose(const Pose& pose) const {
  std::vector<Vec3> scratch;
  return scorePose(pose, scratch);
}

}  // namespace dqndock::metadock
