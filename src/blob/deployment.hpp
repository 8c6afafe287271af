// Wires a complete BlobSeer deployment on a simulated cluster: version
// manager, provider manager, metadata providers, data providers and client
// nodes, spread round-robin across the topology's sites. The elasticity
// engine uses add_provider()/remove_provider() as its actuators.
#pragma once

#include <memory>
#include <vector>

#include "blob/client.hpp"
#include "blob/data_provider.hpp"
#include "blob/metadata_provider.hpp"
#include "blob/provider_manager.hpp"
#include "blob/version_manager.hpp"
#include "net/topology.hpp"
#include "rpc/rpc.hpp"

namespace bs::blob {

struct DeploymentConfig {
  std::size_t sites{9};
  std::size_t data_providers{20};
  std::size_t metadata_providers{4};
  std::uint64_t provider_capacity{64ull * units::GB};
  rpc::NodeSpec node_spec{};          ///< providers and managers
  rpc::NodeSpec client_spec{};        ///< client machines
  ProviderManager::Options pm_options{};
  VersionManager::Options vm_options{};
  bool start_heartbeats{true};
  bool start_reaper{true};
  /// Auto-abort uncommitted writes whose client died (lease expiry), so a
  /// crash mid-write never stalls the publication queue forever.
  bool start_lease_sweeper{true};
  /// Seed for the cluster's fault/retry RNG (backoff jitter).
  std::uint64_t fault_seed{0xB5FA117ull};
  /// Shard the simulation into per-site event lanes (rpc::Cluster). Off
  /// keeps the single-heap reference queue the stepper ablations compare
  /// against; both execute the same event order.
  bool site_lanes{true};
  /// Persistent store model for every stateful service (version manager,
  /// metadata providers, data providers). Disabled by default: state
  /// survives crashes intact and restarts are free, exactly as before.
  /// Overridable with BS_JOURNAL=on|off.
  JournalOptions journal{};
};

class Deployment {
 public:
  explicit Deployment(sim::Simulation& sim, DeploymentConfig config = DeploymentConfig());

  [[nodiscard]] rpc::Cluster& cluster() { return *cluster_; }
  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] const DeploymentConfig& config() const { return config_; }

  [[nodiscard]] VersionManager& version_manager() { return *vm_; }
  [[nodiscard]] ProviderManager& provider_manager() { return *pm_; }
  [[nodiscard]] rpc::Node& version_manager_node() { return *vm_node_; }
  [[nodiscard]] rpc::Node& provider_manager_node() { return *pm_node_; }

  [[nodiscard]] std::vector<std::unique_ptr<DataProvider>>& providers() {
    return providers_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<MetadataProvider>>&
  metadata_providers() {
    return meta_providers_;
  }
  [[nodiscard]] DataProvider* provider_by_node(NodeId id);

  [[nodiscard]] BlobClient::Endpoints endpoints() const;

  /// Creates a client on a fresh node (round-robin site placement).
  BlobClient* add_client(ClientConfig config = ClientConfig());
  [[nodiscard]] std::vector<std::unique_ptr<BlobClient>>& clients() {
    return clients_;
  }

  /// Elasticity actuator: boots one more data provider and registers it.
  DataProvider* add_provider();

  /// Elasticity actuator: takes a provider out of service (ungracefully;
  /// graceful draining is the self-configuration engine's job).
  void remove_provider(NodeId id);

  /// Next site in round-robin order (for custom node placement).
  [[nodiscard]] net::SiteId next_site() {
    return static_cast<net::SiteId>(site_cursor_++ %
                                    cluster_->topology().site_count());
  }

 private:
  sim::Simulation& sim_;
  DeploymentConfig config_;
  std::unique_ptr<rpc::Cluster> cluster_;
  rpc::Node* vm_node_{nullptr};
  rpc::Node* pm_node_{nullptr};
  std::unique_ptr<VersionManager> vm_;
  std::unique_ptr<ProviderManager> pm_;
  std::vector<std::unique_ptr<MetadataProvider>> meta_providers_;
  std::vector<std::unique_ptr<DataProvider>> providers_;
  std::vector<std::unique_ptr<BlobClient>> clients_;
  std::size_t site_cursor_{0};
  std::uint64_t next_client_id_{1};
};

}  // namespace bs::blob
