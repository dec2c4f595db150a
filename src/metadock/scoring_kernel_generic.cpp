/// \file scoring_kernel_generic.cpp
/// Portable tier of the Eq. 1 sweep kernels. Compiled with the baseline
/// target flags only (-O3 -fno-math-errno; never -mavx512f), so the
/// binary runs on any x86-64 (or non-x86) host; GCC auto-vectorises the
/// fixed-lane loops for whatever the *build* baseline allows.

#include "src/metadock/scoring_kernel_impl.hpp"
#include "src/metadock/scoring_kernels.hpp"

namespace dqndock::metadock::detail {

namespace {

void sweepRangesGeneric(const double* X, const double* Y, const double* Z, const double* Q,
                        const double* EPS, const double* SG2, const std::uint32_t* ranges,
                        std::size_t numRanges, const double* lx, const double* ly,
                        const double* lz, std::size_t lanes, double cut2, double* elecAcc,
                        double* vdwAcc) {
  sweepRangesGenericImpl(X, Y, Z, Q, EPS, SG2, ranges, numRanges, lx, ly, lz, lanes, cut2,
                         elecAcc, vdwAcc);
}

void sweepAtomGeneric(const double* X, const double* Y, const double* Z, const double* Q,
                      const double* EPS, const double* SG2, const std::uint32_t* ranges,
                      std::size_t numRanges, double lx, double ly, double lz, double cut2,
                      double* elecOut, double* vdwOut) {
  sweepAtomImpl(X, Y, Z, Q, EPS, SG2, ranges, numRanges, lx, ly, lz, cut2, elecOut, vdwOut);
}

}  // namespace

const ScoringKernelOps kGenericKernelOps = {CpuTier::kGeneric, &sweepRangesGeneric,
                                            &sweepAtomGeneric};

}  // namespace dqndock::metadock::detail
