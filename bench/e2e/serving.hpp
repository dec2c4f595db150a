#pragma once

// The serving stack the dock workloads load and the layer sweeps call
// directly: the gateway_server wiring (per-tenant ModelRegistry +
// DockingService: 2 workers, queue 64, batch 32, flush 200 us) with a
// paper-2BSM Table 1 network in the paper's kFullWithBonds state mode,
// plus the screen-dist job configuration.

#include <memory>
#include <string>
#include <vector>

#include "src/chem/synthetic.hpp"
#include "src/common/thread_pool.hpp"
#include "src/gateway/gateway.hpp"
#include "src/screen/protocol.hpp"
#include "src/serve/docking_service.hpp"
#include "src/serve/model_registry.hpp"
#include "src/serve/tenant.hpp"

namespace e2e {

struct ServingStack {
  struct Pool {
    std::unique_ptr<dqndock::serve::ModelRegistry> registry;
    std::unique_ptr<dqndock::serve::DockingService> service;
  };

  std::vector<std::string> names;
  std::vector<Pool> pools;  ///< one per name, same order
  dqndock::serve::TenantDirectory directory;
  /// Declared last: stopped and destroyed before the services it routes to.
  std::unique_ptr<dqndock::gateway::HttpGateway> gateway;

  ServingStack() = default;
  ~ServingStack();
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;
};

/// One tenant per name (at most two), each with fixed random Table 1
/// weights. The weights are not drawn from the workload seed: the policy
/// sets how many steps a dock takes, so seeded weights would change the
/// work per request from seed to seed. Most random nets loop until the
/// 200-step budget; the two fixed seeds give nets whose epsilon = 0.1
/// docks leave the box in ~44 steps (~13 ms), the dock the serving
/// stack's sizing was measured on. With `withGateway` an HttpGateway on
/// an ephemeral loopback port fronts the tenants.
std::unique_ptr<ServingStack> buildServingStack(const dqndock::chem::Scenario& scenario,
                                                const std::vector<std::string>& names,
                                                bool withGateway, dqndock::ThreadPool& pool);

/// A dock request: max_steps 200, epsilon 0.1, its own seed.
dqndock::serve::DockRequest dockRequest(std::uint64_t requestSeed);

/// A screen request: 8 generated 12-atom ligands x 400 evaluations.
dqndock::serve::ScreenRequest screenRequest(std::uint64_t requestSeed, bool smoke);

/// screen-dist job: paper2bsm receptor, monte-carlo x 150 evaluations,
/// refine + cluster, shards of 64, granted chunks of 8, full ranking.
dqndock::screen::ScreenJobConfig screenJobConfig(const std::string& libraryPath);

}  // namespace e2e
