#pragma once

/// \file receptor_model.hpp
/// Precompiled rigid receptor: SoA parameter arrays the scoring kernels
/// stream, donor-hydrogen anchor directions for the H-bond angular term,
/// and an optional neighbour grid for cutoff pruning. Built once per
/// docking problem and shared read-only across threads.
///
/// Besides the original-order arrays, the model keeps a *cell-packed*
/// SoA copy: atoms permuted into the neighbour grid's cell-sorted order
/// (identity when no grid is built) with separate contiguous
/// x/y/z/charge/element arrays, so grid query ranges map to straight-line
/// walks over flat doubles. Hydrogen-bond-capable atoms (donor hydrogens,
/// acceptors) are additionally extracted into packed site lists so the
/// H-bond term can run as its own pass outside the hot loop. Each list
/// carries a per-cell offset table, so that pass (and the affinity maps'
/// H-bond well) visits only the grid cells its cutoff can reach rather
/// than every site: on the paper-2BSM receptor 1,254 of the 3,264 atoms
/// are acceptor sites.

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/chem/molecule.hpp"
#include "src/metadock/neighbor_grid.hpp"

namespace dqndock::metadock {

class ReceptorModel {
 public:
  /// Per-axis subcell factor of the receptor's neighbour grid: each
  /// cutoff-sized cell is split 4x4x4 so the pose-batched scoring kernel
  /// can slice the cutoff sphere at quarter-cell resolution (the swept
  /// volume saturates near the bounding-box Minkowski sum beyond this,
  /// while the per-subrow overhead keeps growing).
  static constexpr int kGridSubdiv = 4;

  /// One hydrogen-bond-capable receptor atom in the packed site lists.
  struct HBondSite {
    Vec3 pos;
    Vec3 donorDir;  ///< anchor->hydrogen unit vector; zero for acceptors
    chem::Element element = chem::Element::Unknown;
  };

  /// One packed H-bond site list. With a grid, `cellOffsets` holds
  /// numCells+1 prefix sums: the sites of cell c (dense linear index) are
  /// sites[cellOffsets[c] .. cellOffsets[c + 1]), so the cells x0..x1 of
  /// one (y, z) row are one contiguous slice, as in the packed arrays.
  /// Empty without a grid.
  struct SiteList {
    std::vector<HBondSite> sites;
    std::vector<std::uint32_t> cellOffsets;
  };

  /// Compiles `receptor`. When gridCellSize > 0 a NeighborGrid is built
  /// with that cell edge (callers normally pass the scoring cutoff).
  explicit ReceptorModel(const chem::Molecule& receptor, double gridCellSize = 0.0);

  std::size_t atomCount() const { return positions_.size(); }

  const std::vector<Vec3>& positions() const { return positions_; }
  const std::vector<double>& charges() const { return charges_; }
  const std::vector<chem::Element>& elements() const { return elements_; }
  const std::vector<chem::HBondRole>& roles() const { return roles_; }

  /// Unit vector from the anchor heavy atom to donor hydrogen i, or the
  /// zero vector when atom i is not a bonded donor hydrogen.
  const std::vector<Vec3>& donorDirections() const { return donorDirs_; }

  /// Cell-packed SoA views (atom `i` here is packedOrder()[i] in the
  /// original order; identity permutation when no grid is built).
  const std::vector<std::uint32_t>& packedOrder() const { return packedOrder_; }
  const std::vector<double>& packedX() const { return packedX_; }
  const std::vector<double>& packedY() const { return packedY_; }
  const std::vector<double>& packedZ() const { return packedZ_; }
  const std::vector<double>& packedCharges() const { return packedCharges_; }
  const std::vector<chem::Element>& packedElements() const { return packedElements_; }

  /// Packed H-bond site lists (subsets of the atoms, packed order).
  const SiteList& donorHydrogenSites() const { return donorSites_; }
  const SiteList& acceptorSites() const { return acceptorSites_; }

  /// Calls fn(site) for each site of `list` in the grid-cell window that
  /// covers `cutoff` around `p` (NeighborGrid::cellWindow), row by (z, y)
  /// row. The visits are in ascending packed order and include every site
  /// within `cutoff` of `p`, so a caller that keeps its exact cutoff test
  /// adds the same sites in the same order as a walk of the whole list,
  /// bit for bit. Without a grid, or for a non-finite `p` (whose cutoff
  /// test rejects nothing, so a NaN stays NaN), this walks the whole list.
  template <typename Fn>
  void forEachSiteNear(const SiteList& list, const Vec3& p, double cutoff, Fn&& fn) const {
    if (list.sites.empty()) return;
    if (!grid_ || !std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z)) {
      for (const HBondSite& s : list.sites) fn(s);
      return;
    }
    NeighborGrid::CellWindow w;
    if (!grid_->cellWindow(p, p, cutoff + NeighborGrid::kGeomMargin, w)) return;
    for (int z = w.z0; z <= w.z1; ++z) {
      for (int y = w.y0; y <= w.y1; ++y) {
        const std::uint32_t end = list.cellOffsets[grid_->cellLinearIndex(w.x1, y, z) + 1];
        for (std::uint32_t k = list.cellOffsets[grid_->cellLinearIndex(w.x0, y, z)]; k < end;
             ++k) {
          fn(list.sites[k]);
        }
      }
    }
  }

  const chem::Molecule& molecule() const { return molecule_; }
  Vec3 centerOfMass() const { return centerOfMass_; }

  bool hasGrid() const { return grid_ != nullptr; }
  const NeighborGrid& grid() const { return *grid_; }

 private:
  chem::Molecule molecule_;
  std::vector<Vec3> positions_;
  std::vector<double> charges_;
  std::vector<chem::Element> elements_;
  std::vector<chem::HBondRole> roles_;
  std::vector<Vec3> donorDirs_;
  Vec3 centerOfMass_;
  std::unique_ptr<NeighborGrid> grid_;

  std::vector<std::uint32_t> packedOrder_;
  std::vector<double> packedX_, packedY_, packedZ_, packedCharges_;
  std::vector<chem::Element> packedElements_;
  SiteList donorSites_, acceptorSites_;
};

}  // namespace dqndock::metadock
