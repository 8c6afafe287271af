// dos_flood: the paper's §IV-C concurrent-DoS experiment (E-C2) at 30
// clients with the self-protection stack on. 15 honest writers append
// 256 MB at a time in a closed loop; 15 flooders send small writes in an
// open loop at seeded rates spread over 90-400 req/s from t = 10 s;
// monitoring, introspection and the security engine run for 220 sim-s
// (E-C2 runs 150; the longer run gives put_p99_ms at least ten samples
// beyond it, and every attacker stays blocked to the end). The harness drives
// DetectionEngine::scan() itself at the engine's cadence (in every rep, so
// the event order never depends on tracing) and times each call.
//
// bslint: allow-file(det-wallclock): benchmark harness timing.
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "blob/deployment.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "intro/introspection.hpp"
#include "mon/layer.hpp"
#include "sec/framework.hpp"
#include "sim/frame_pool.hpp"
#include "workload/clients.hpp"

namespace perfbench {
namespace {

using namespace bs;

constexpr int kHonest = 15;
constexpr int kAttackers = 15;
constexpr std::uint64_t kFirstAttacker = 500;
constexpr SimTime kAttackStart = simtime::seconds(10);
constexpr SimTime kEnd = simtime::seconds(220);
// E-C2's append size (launch_dos_workload's op_bytes in bench/dos_common.hpp).
constexpr std::uint64_t kAppendBytes = 256 * units::MB;

struct HonestStats {
  std::uint64_t attempted{0};
  std::uint64_t acked{0};
  std::uint64_t failed{0};
  Samples latency_ms;
};

// One honest closed-loop writer: append, wait for the ack, repeat.
sim::Task<void> honest_writer(sim::Simulation& sim, blob::BlobClient& client,
                              BlobId blob, std::uint64_t content,
                              HonestStats* st) {
  while (sim.now() < kEnd) {
    const SimTime t0 = sim.now();
    auto r = co_await client.append(
        blob, blob::Payload::synthetic(kAppendBytes, content++));
    ++st->attempted;
    if (r.ok()) {
      ++st->acked;
      st->latency_ms.add(simtime::to_millis(sim.now() - t0));
    } else {
      ++st->failed;
      co_await sim.delay(simtime::seconds(1));
    }
  }
}

// The detection loop of DetectionEngine::start(), driven from here so each
// scan can be timed on the host clock in traced reps.
sim::Task<void> scan_loop(sim::Simulation& sim, sec::SecurityFramework& sf,
                          bool timed,
                          std::map<std::uint64_t, SimTime>* first_block) {
  for (;;) {
    co_await sim.delay(sf.engine().scan_interval());
    const double t0 = timed ? host_now() : 0;
    std::vector<sec::Violation> found = sf.engine().scan();
    for (const sec::Violation& v : found) {
      sf.enforcement().handle(v);
      first_block->emplace(v.client.value, v.detected_at);
    }
    if (timed) g_sec_scan_ns += (host_now() - t0) * 1e9;
  }
}

sec::SecurityConfig security_config() {
  sec::SecurityConfig cfg;
  cfg.detection.scan_interval = simtime::seconds(5);
  cfg.policy_source =
      "policy dos_write_flood {\n"
      "  severity high;\n"
      "  description \"chunk-write request flood\";\n"
      "  when rate(write_ops, 60s) > 60;\n"
      "  then block(300s), trust(-0.4), alert;\n"
      "}\n";
  return cfg;
}

}  // namespace

Rep run_dos_flood(std::uint64_t seed, Mode mode) {
  const bool traced = mode == Mode::traced;
  Rep rep;
  sim::FramePool::instance().trim();
  std::optional<obs::TraceSink> sink;
  if (traced) sink.emplace(obs::TraceSinkOptions{std::size_t{6} << 20});
  obs::MetricsRegistry metrics;

  const double t_setup = host_now();
  sim::Simulation sim;
  // 56 data + 8 metadata providers (about the paper's 70 BlobSeer nodes),
  // DoS-sensitive: one request slot, 25 ms service overhead, bounded queue.
  blob::DeploymentConfig dcfg;
  dcfg.data_providers = 56;
  dcfg.metadata_providers = 8;
  dcfg.node_spec.service_concurrency = 1;
  dcfg.node_spec.service_overhead = simtime::millis(25);
  dcfg.node_spec.service_queue_limit = 64;
  blob::Deployment dep(sim, dcfg);

  rpc::Node* intro_node = dep.cluster().add_node(0);
  intro::IntrospectionService intro(*intro_node);
  intro.start();
  mon::MonitoringConfig mcfg;
  mcfg.services = 8;
  mcfg.storage_servers = 2;
  mcfg.instrument.flush_interval = simtime::seconds(1);
  mcfg.service_flush_interval = simtime::seconds(2);
  mcfg.sinks = {intro_node->id()};
  mon::MonitoringLayer monitoring(dep, mcfg);
  monitoring.start();
  sec::SecurityFramework security(sim, intro.activity(), security_config());
  security.attach_deployment(dep);

  // The honest clients try up to 8 fresh providers for a chunk (the
  // client's default is 3). Before the first blocks the flood saturates
  // most providers, and with the default an append failed on 4 of them in
  // a row on about one seed in fifty (seed 41: 2-3 failed appends a rep).
  blob::ClientConfig honest_cfg;
  honest_cfg.max_put_retries = 8;
  std::vector<HonestStats> honest(kHonest);
  for (int i = 0; i < kHonest; ++i) {
    blob::BlobClient* c = dep.add_client(honest_cfg);
    monitoring.attach_client(*c);
    auto blob = run_task(sim, c->create(64 * units::MB));
    if (!blob.ok()) {
      rep.gate_failures.push_back("honest blob create failed");
      return rep;
    }
    sim.spawn(honest_writer(sim, *c, blob.value(),
                            hash_combine(seed, static_cast<std::uint64_t>(i)),
                            &honest[static_cast<std::size_t>(i)]));
  }
  std::vector<NodeId> targets;
  for (auto& p : dep.providers()) targets.push_back(p->id());
  std::vector<workload::AttackerStats> attackers(kAttackers);
  // Heterogeneous aggressiveness over 90-400 req/s: one attacker per
  // equal-width stratum, strata dealt in seeded order, so the seed moves
  // who floods how hard but barely moves the total flood rate.
  Rng rng(hash_combine(seed, 0xA77AC4));
  std::vector<int> stratum(kAttackers);
  for (int i = 0; i < kAttackers; ++i) stratum[static_cast<std::size_t>(i)] = i;
  for (std::size_t i = stratum.size() - 1; i > 0; --i) {
    std::swap(stratum[i], stratum[rng.next_below(i + 1)]);
  }
  for (int i = 0; i < kAttackers; ++i) {
    rpc::Node* node = dep.cluster().add_node(dep.next_site());
    workload::AttackerOptions a;
    a.request_rate =
        90.0 + (400.0 - 90.0) / kAttackers *
                   (stratum[static_cast<std::size_t>(i)] + rng.next_double());
    a.start = kAttackStart;
    a.deadline = kEnd;
    a.rng_seed = rng.next_u64();
    sim.spawn(workload::DosAttacker::run(
        *node, ClientId{kFirstAttacker + static_cast<std::uint64_t>(i)},
        targets, a, &attackers[static_cast<std::size_t>(i)]));
  }
  std::map<std::uint64_t, SimTime> first_block;
  sim.spawn(scan_loop(sim, security, traced, &first_block));
  sim.schedule_at(kEnd, [&sim] { sim.stop(); });
  rep.setup_s = host_now() - t_setup;
  if (mode == Mode::setup_only) return rep;

  // ---- timed phase
  if (traced) {
    sim.attach_trace(*sink);
    obs::set_metrics(&metrics);
  }
  const LayerBase base = layer_base(sim, &dep.cluster());
  const std::uint64_t sec_scans0 = security.engine().scans();
  const std::uint64_t ingested0 = intro.records_ingested();
  const std::uint64_t ev0 = sim.events_processed();
  const std::uint64_t alloc0 = heap_allocs();
  StepProfile prof;
  g_sec_scan_ns = 0;
  const double t0 = host_now();
  if (traced) {
    traced_run(sim, *sink, prof);
  } else {
    probed_run(sim, rep);
  }
  rep.wall_s = host_now() - t0 - rep.probe_s;
  rep.heap_allocs = heap_allocs() - alloc0;
  rep.events = sim.events_processed() - ev0;
  obs::set_metrics(nullptr);
  sim::Simulation::detach_trace();

  // ---- outputs and gates
  Samples put_ms;
  std::uint64_t acked = 0;
  std::uint64_t digest = fnv1a_u64(rep.events);
  for (const HonestStats& h : honest) {
    rep.attempted += h.attempted;
    rep.failed += h.failed;
    acked += h.acked;
    digest = hash_combine(digest, h.acked);
    digest = hash_combine(digest, h.failed);
  }
  for (const HonestStats& h : honest) put_ms.merge(h.latency_ms);
  if (rep.failed != 0) rep.gate_failures.push_back("honest appends failed");
  Samples detect;
  for (int i = 0; i < kAttackers; ++i) {
    auto it = first_block.find(kFirstAttacker + static_cast<std::uint64_t>(i));
    if (it == first_block.end() || it->second >= kEnd) {
      rep.gate_failures.push_back("attacker never blocked");
      continue;
    }
    detect.add(simtime::to_seconds(it->second - kAttackStart));
    digest = hash_combine(digest, static_cast<std::uint64_t>(it->second));
  }
  std::uint64_t attack_sent = 0;
  for (const auto& a : attackers) attack_sent += a.sent;
  digest = hash_combine(digest, attack_sent);
  rep.digest = digest;

  rep.sim["goodput_mb_s"] = static_cast<double>(acked * kAppendBytes) / 1e6 /
                            simtime::to_seconds(kEnd);
  rep.sim["put_p50_ms"] = put_ms.pct(0.50);
  rep.sim["put_p99_ms"] = put_ms.pct(0.99);
  rep.sim["put_samples"] = static_cast<double>(put_ms.size());
  rep.sim["put_beyond_p99"] = static_cast<double>(put_ms.beyond(0.99));
  rep.sim["detect_s"] = detect.pct(0.50);
  rep.sim["detect_samples"] = static_cast<double>(detect.size());
  rep.sim["attack_requests"] = static_cast<double>(attack_sent);

  record_sim_config(rep, sim);
  rep.config["flow_scheduler"] =
      dep.cluster().flows().incremental() ? "incremental" : "reference";
  if (traced) {
    record_profile(rep, prof);
    record_layers(rep, base, sim, &dep.cluster(), metrics, *sink,
                  static_cast<double>(rep.attempted), 0.0,
                  static_cast<double>(rep.attempted));
    rep.layer["intro.records_ingested"] =
        static_cast<double>(intro.records_ingested() - ingested0);
    rep.layer["sec.scans"] =
        static_cast<double>(security.engine().scans() - sec_scans0);
    rep.layer["sec.violations"] =
        static_cast<double>(security.engine().violations());
  }
  return rep;
}

}  // namespace perfbench
