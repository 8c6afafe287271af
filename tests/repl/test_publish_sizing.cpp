// Publish custody bundles are sized by the bytes a version wrote, not by
// the blob's size: a small append to a large blob must not ship the whole
// blob to every remote site again. The live geo hook, the version
// manager's published snapshot (the reprime source) and its journal
// replay all agree on that size.
#include <gtest/gtest.h>

#include "blob/deployment.hpp"
#include "fault/fault_plane.hpp"
#include "repl/plane.hpp"
#include "test_util.hpp"

namespace bs {
namespace {

constexpr std::uint64_t kChunk = 1 * units::MB;
constexpr std::uint64_t kLarge = 64 * units::MB;
constexpr std::uint64_t kSmall = 100 * units::KB;

std::uint64_t snapshot_bytes(const blob::VersionManager& vm, BlobId blob,
                             blob::Version v) {
  for (const auto& pv : vm.published_snapshot()) {
    if (pv.blob == blob && pv.version == v) return pv.written;
  }
  return 0;
}

TEST(PublishSizing, SmallWriteIntoLargeBlobEnqueuesWriteSizedBundle) {
  sim::Simulation sim;
  blob::DeploymentConfig cfg;
  cfg.sites = 3;
  cfg.data_providers = 6;
  cfg.metadata_providers = 2;
  cfg.journal.enabled = true;
  blob::Deployment dep(sim, cfg);
  repl::ReplOptions ro;
  ro.egress.journal = cfg.journal;
  const net::SiteId origin = dep.version_manager_node().site();
  repl::ReplicationPlane plane(dep.cluster(), origin, ro);
  plane.attach(dep);
  plane.start();
  fault::FaultPlane fp(dep.cluster(), 0x5123ull);
  plane.attach_fault_plane(fp);

  blob::BlobClient* client = dep.add_client();
  auto blob = test::run_task(sim, client->create(kChunk, /*replication=*/1));
  ASSERT_TRUE(blob.ok());
  auto big = test::run_task(
      sim, client->append(blob.value(), blob::Payload::synthetic(kLarge, 1)));
  ASSERT_TRUE(big.ok());
  sim.run_until(sim.now() + simtime::seconds(30));
  ASSERT_EQ(plane.egress(origin).queued_bytes(), 0u);

  // Take the remote egresses down so the next version's bundles stay
  // under the origin's custody.
  for (net::SiteId s : plane.remote_sites()) {
    fp.crash(plane.egress(s).node().id());
  }
  auto small = test::run_task(
      sim, client->append(blob.value(), blob::Payload::synthetic(kSmall, 2)));
  ASSERT_TRUE(small.ok());
  const blob::Version v = small.value().version;
  sim.run_until(sim.now() + simtime::seconds(1));

  repl::SiteEgress& o = plane.egress(origin);
  EXPECT_EQ(o.published_bytes(blob.value(), v), kSmall);
  EXPECT_EQ(o.queue_depth(), plane.remote_sites().size());
  EXPECT_EQ(o.queued_bytes(), kSmall * plane.remote_sites().size());
  EXPECT_EQ(snapshot_bytes(dep.version_manager(), blob.value(), v), kSmall);
  EXPECT_EQ(snapshot_bytes(dep.version_manager(), blob.value(), v - 1),
            kLarge);

  // The version manager's journal replay restores the same sizes.
  const NodeId vm_node = dep.version_manager_node().id();
  fp.crash(vm_node);
  sim.run_until(sim.now() + simtime::seconds(1));
  fp.restart(vm_node);
  sim.run_until(sim.now() + simtime::seconds(30));
  ASSERT_FALSE(dep.version_manager().recovering());
  EXPECT_EQ(snapshot_bytes(dep.version_manager(), blob.value(), v), kSmall);
  EXPECT_EQ(snapshot_bytes(dep.version_manager(), blob.value(), v - 1),
            kLarge);
}

}  // namespace
}  // namespace bs
