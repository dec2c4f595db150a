#pragma once

/// \file checkpoint.hpp
/// Weight checkpointing for any QNetwork (MLP or dueling): a flat,
/// shape-checked parameter blob. Enables the paper's stated pay-off —
/// "reducing the computational cost once the NN is already trained" —
/// by training once and reloading the policy for cheap greedy docking
/// (see examples/evaluate_policy.cpp).

#include <iosfwd>
#include <string>

#include "src/rl/dqn_agent.hpp"

namespace dqndock::rl {

/// Serialize every parameter tensor of `net` (order and shapes as
/// returned by parameters()).
void saveWeights(std::ostream& out, const QNetwork& net);
void saveWeightsFile(const std::string& path, const QNetwork& net);

/// Restore into an identically-architected network. Throws
/// std::runtime_error on magic/shape mismatch or truncation.
void loadWeights(std::istream& in, QNetwork& net);
void loadWeightsFile(const std::string& path, QNetwork& net);

/// Agent-level convenience: saves the online network; load restores the
/// online network and re-syncs the target.
void saveAgent(const std::string& path, const DqnAgent& agent);
void loadAgent(const std::string& path, DqnAgent& agent);

}  // namespace dqndock::rl
