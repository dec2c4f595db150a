#include "src/metadock/grid_potential.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dqndock::metadock {

using chem::Element;
using chem::ForceField;

ScalarGrid::ScalarGrid(const Vec3& origin, double spacing, int nx, int ny, int nz)
    : origin_(origin), spacing_(spacing), nx_(nx), ny_(ny), nz_(nz) {
  if (spacing <= 0 || nx < 2 || ny < 2 || nz < 2) {
    throw std::invalid_argument("ScalarGrid: need spacing > 0 and >= 2 points per axis");
  }
  values_.assign(static_cast<std::size_t>(nx) * ny * nz, 0.0);
}

double& ScalarGrid::at(int ix, int iy, int iz) {
  return values_[(static_cast<std::size_t>(iz) * ny_ + iy) * nx_ + ix];
}

double ScalarGrid::at(int ix, int iy, int iz) const {
  return values_[(static_cast<std::size_t>(iz) * ny_ + iy) * nx_ + ix];
}

bool ScalarGrid::contains(const Vec3& p) const {
  const double fx = (p.x - origin_.x) / spacing_;
  const double fy = (p.y - origin_.y) / spacing_;
  const double fz = (p.z - origin_.z) / spacing_;
  return fx >= 0.0 && fy >= 0.0 && fz >= 0.0 && fx <= nx_ - 1 && fy <= ny_ - 1 && fz <= nz_ - 1;
}

double ScalarGrid::sample(const Vec3& p) const {
  if (!contains(p)) return 0.0;  // far field: the padded boundary is ~0
  const double fx = (p.x - origin_.x) / spacing_;
  const double fy = (p.y - origin_.y) / spacing_;
  const double fz = (p.z - origin_.z) / spacing_;
  // Clamp into the valid interpolation range [0, n-1).
  const double cx = std::clamp(fx, 0.0, static_cast<double>(nx_ - 1) - 1e-9);
  const double cy = std::clamp(fy, 0.0, static_cast<double>(ny_ - 1) - 1e-9);
  const double cz = std::clamp(fz, 0.0, static_cast<double>(nz_ - 1) - 1e-9);
  const int ix = static_cast<int>(cx);
  const int iy = static_cast<int>(cy);
  const int iz = static_cast<int>(cz);
  const double tx = cx - ix, ty = cy - iy, tz = cz - iz;

  auto lerp = [](double a, double b, double t) { return a + (b - a) * t; };
  const double c00 = lerp(at(ix, iy, iz), at(ix + 1, iy, iz), tx);
  const double c10 = lerp(at(ix, iy + 1, iz), at(ix + 1, iy + 1, iz), tx);
  const double c01 = lerp(at(ix, iy, iz + 1), at(ix + 1, iy, iz + 1), tx);
  const double c11 = lerp(at(ix, iy + 1, iz + 1), at(ix + 1, iy + 1, iz + 1), tx);
  return lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz);
}

GridPotential::GridPotential(const ReceptorModel& receptor, GridPotentialOptions options)
    : options_(options) {
  const auto [lo, hi] = receptor.molecule().boundingBox();
  const Vec3 origin = lo - Vec3{options_.padding, options_.padding, options_.padding};
  const Vec3 extent = hi - lo + Vec3{2 * options_.padding, 2 * options_.padding,
                                     2 * options_.padding};
  const int nx = std::max(2, static_cast<int>(std::ceil(extent.x / options_.spacing)) + 1);
  const int ny = std::max(2, static_cast<int>(std::ceil(extent.y / options_.spacing)) + 1);
  const int nz = std::max(2, static_cast<int>(std::ceil(extent.z / options_.spacing)) + 1);

  electrostatic_ = std::make_unique<ScalarGrid>(origin, options_.spacing, nx, ny, nz);
  // Elements that occur in drug-like ligands and therefore need LJ maps.
  const Element probeElements[] = {Element::H, Element::C, Element::N, Element::O,
                                   Element::S, Element::F, Element::Cl};
  for (Element e : probeElements) {
    perElement_[static_cast<std::size_t>(e)] =
        std::make_unique<ScalarGrid>(origin, options_.spacing, nx, ny, nz);
  }

  const double cut2 = options_.cutoff * options_.cutoff;
  const ForceField& ff = ForceField::standard();
  const chem::HBondParams hb = ff.hbond();
  constexpr double kMinDist2 = kMinPairDistance * kMinPairDistance;

  // Stream the receptor's cell-packed SoA arrays with precomputed
  // per-probe pair rows (no per-pair Lorentz-Berthelot combining), and
  // prune through the neighbour grid when its cells cover the cutoff.
  constexpr std::size_t kNumProbes = sizeof(probeElements) / sizeof(probeElements[0]);
  chem::PairRowTable probeRows[kNumProbes];
  for (std::size_t pe = 0; pe < kNumProbes; ++pe) {
    probeRows[pe] = ff.pairRows(probeElements[pe], receptor.packedElements());
  }
  const double* X = receptor.packedX().data();
  const double* Y = receptor.packedY().data();
  const double* Z = receptor.packedZ().data();
  const double* Q = receptor.packedCharges().data();
  const bool pruned =
      receptor.hasGrid() && receptor.grid().cellSize() + 1e-12 >= options_.cutoff;

  // Fill plane-by-plane; planes are independent, so the pool splits on z.
  // Per-point sums are independent of the partition, so parallel and
  // serial fills are bit-identical.
  auto fillPlanes = [&](std::size_t zLo, std::size_t zHi) {
    NeighborGrid::Range ranges[NeighborGrid::kMaxQueryRanges];
    for (std::size_t z = zLo; z < zHi; ++z) {
      for (int iy = 0; iy < ny; ++iy) {
        for (int ix = 0; ix < nx; ++ix) {
          const Vec3 p = origin + Vec3{ix * options_.spacing, iy * options_.spacing,
                                       static_cast<double>(z) * options_.spacing};
          int numRanges = 1;
          if (pruned) {
            numRanges = receptor.grid().queryRanges(p, ranges);
          } else {
            ranges[0] = NeighborGrid::Range{0, static_cast<std::uint32_t>(receptor.atomCount())};
          }
          double elec = 0.0;
          double lj[kNumProbes] = {};
          for (int k = 0; k < numRanges; ++k) {
            const std::size_t end = ranges[k].first + ranges[k].count;
            for (std::size_t j = ranges[k].first; j < end; ++j) {
              const double dx = X[j] - p.x;
              const double dy = Y[j] - p.y;
              const double dz = Z[j] - p.z;
              const double r2 = dx * dx + dy * dy + dz * dz;
              if (r2 > cut2) continue;
              const double r2c = r2 > kMinDist2 ? r2 : kMinDist2;
              const double rinv = 1.0 / std::sqrt(r2c);
              elec += Q[j] * rinv;
              const double inv2 = rinv * rinv;
              for (std::size_t pe = 0; pe < kNumProbes; ++pe) {
                const double s2 = probeRows[pe].sigma2[j] * inv2;
                const double s6 = s2 * s2 * s2;
                lj[pe] += probeRows[pe].epsilon[j] * (s6 * s6 - s6);
              }
            }
          }
          // Fold the aligned 12-10 H-bond well into the N/O maps: a second
          // pass over the receptor's donor hydrogens, in the cells the
          // cutoff can reach around the point (the scoring pass's walk).
          double hbWell = 0.0;
          receptor.forEachSiteNear(
              receptor.donorHydrogenSites(), p, options_.cutoff,
              [&](const ReceptorModel::HBondSite& d) {
                const double r2 = distance2(d.pos, p);
                if (r2 > cut2) return;
                const double r2c = r2 > kMinDist2 ? r2 : kMinDist2;
                const double r10 = r2c * r2c * r2c * r2c * r2c;
                const double r12 = r10 * r2c;
                hbWell += hb.c12 / r12 - hb.d10 / r10;
              });
          electrostatic_->at(ix, iy, static_cast<int>(z)) =
              std::clamp(chem::kCoulomb * elec, -options_.energyClamp, options_.energyClamp);
          for (std::size_t pe = 0; pe < kNumProbes; ++pe) {
            const Element e = probeElements[pe];
            double energy = 4.0 * lj[pe];
            if (e == Element::N || e == Element::O) energy += hbWell;
            perElement_[static_cast<std::size_t>(e)]->at(ix, iy, static_cast<int>(z)) =
                std::clamp(energy, -options_.energyClamp, options_.energyClamp);
          }
        }
      }
    }
  };

  if (options_.pool) {
    options_.pool->parallelFor(0, static_cast<std::size_t>(nz), fillPlanes);
  } else {
    fillPlanes(0, static_cast<std::size_t>(nz));
  }
}

const ScalarGrid& GridPotential::elementMap(Element e) const {
  const auto& map = perElement_[static_cast<std::size_t>(e)];
  if (!map) {
    // Fall back to carbon for exotic elements.
    return *perElement_[static_cast<std::size_t>(Element::C)];
  }
  return *map;
}

double GridPotential::atomEnergy(Element e, double q, const Vec3& p) const {
  return q * electrostatic_->sample(p) + elementMap(e).sample(p);
}

double GridPotential::score(const LigandModel& ligand,
                            std::span<const Vec3> positions) const {
  if (positions.size() != ligand.atomCount()) {
    throw std::invalid_argument("GridPotential::score: position count mismatch");
  }
  double energy = 0.0;
  const chem::Molecule& mol = ligand.molecule();
  for (std::size_t i = 0; i < positions.size(); ++i) {
    energy += atomEnergy(mol.element(i), mol.charge(i), positions[i]);
  }
  return -energy;
}

std::size_t GridPotential::memoryBytes() const {
  std::size_t bytes = electrostatic_->memoryBytes();
  for (const auto& map : perElement_) {
    if (map) bytes += map->memoryBytes();
  }
  return bytes;
}

}  // namespace dqndock::metadock
