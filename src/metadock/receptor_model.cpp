#include "src/metadock/receptor_model.hpp"

#include <algorithm>
#include <numeric>

#include "src/chem/topology.hpp"

namespace dqndock::metadock {

ReceptorModel::ReceptorModel(const chem::Molecule& receptor, double gridCellSize)
    : molecule_(receptor) {
  molecule_.validate();
  positions_.assign(molecule_.positions().begin(), molecule_.positions().end());
  charges_.assign(molecule_.charges().begin(), molecule_.charges().end());
  elements_.assign(molecule_.elements().begin(), molecule_.elements().end());
  roles_.assign(molecule_.hbondRoles().begin(), molecule_.hbondRoles().end());
  centerOfMass_ = molecule_.centerOfMass();

  donorDirs_.assign(atomCount(), Vec3{});
  chem::Topology topo(molecule_);
  const auto anchors = topo.hydrogenAnchors(molecule_);
  for (std::size_t i = 0; i < atomCount(); ++i) {
    if (roles_[i] != chem::HBondRole::kDonorHydrogen) continue;
    const int anchor = anchors[i];
    if (anchor < 0) continue;
    donorDirs_[i] = (positions_[i] - positions_[static_cast<std::size_t>(anchor)]).normalized();
  }

  if (gridCellSize > 0.0) {
    // Subdivide cells kGridSubdiv x per axis: the pose-batched kernel
    // prunes whole subcells against the cutoff sphere around a pose
    // batch, which the coarse (cell edge >= cutoff) cells are too big
    // for. Cell-level queries are unaffected.
    grid_ = std::make_unique<NeighborGrid>(positions_, gridCellSize, kGridSubdiv);
    packedOrder_ = grid_->cellOrder();
  } else {
    packedOrder_.resize(atomCount());
    std::iota(packedOrder_.begin(), packedOrder_.end(), 0u);
  }

  // Cell-packed SoA copies: the scoring kernel walks grid ranges as
  // contiguous slices of these arrays.
  const std::size_t n = atomCount();
  packedX_.resize(n);
  packedY_.resize(n);
  packedZ_.resize(n);
  packedCharges_.resize(n);
  packedElements_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t src = packedOrder_[i];
    packedX_[i] = positions_[src].x;
    packedY_[i] = positions_[src].y;
    packedZ_[i] = positions_[src].z;
    packedCharges_[i] = charges_[src];
    packedElements_[i] = elements_[src];
  }

  // H-bond site lists (packed order, so a site pass visits them in a
  // deterministic order independent of thread count), each with its
  // per-cell offsets: a cell's sites are those whose packed index lies
  // in the cell's slice of the packed order.
  std::vector<std::uint32_t> donorPacked, acceptorPacked;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t src = packedOrder_[i];
    switch (roles_[src]) {
      case chem::HBondRole::kDonorHydrogen:
        donorSites_.sites.push_back({positions_[src], donorDirs_[src], elements_[src]});
        donorPacked.push_back(static_cast<std::uint32_t>(i));
        break;
      case chem::HBondRole::kAcceptor:
        acceptorSites_.sites.push_back({positions_[src], Vec3{}, elements_[src]});
        acceptorPacked.push_back(static_cast<std::uint32_t>(i));
        break;
      case chem::HBondRole::kNone:
        break;
    }
  }
  if (grid_) {
    const std::vector<std::uint32_t>& cellOffsets = grid_->cellOffsets();
    auto siteOffsets = [&cellOffsets](const std::vector<std::uint32_t>& packed) {
      std::vector<std::uint32_t> out(cellOffsets.size());
      for (std::size_t c = 0; c < cellOffsets.size(); ++c) {
        out[c] = static_cast<std::uint32_t>(
            std::lower_bound(packed.begin(), packed.end(), cellOffsets[c]) - packed.begin());
      }
      return out;
    };
    donorSites_.cellOffsets = siteOffsets(donorPacked);
    acceptorSites_.cellOffsets = siteOffsets(acceptorPacked);
  }
}

}  // namespace dqndock::metadock
