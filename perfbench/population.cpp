// population: 10^6 pooled lite clients over the 9-site grid5000 topology
// for 30 sim-min, on the default serial per-site lanes. A timer-driven open
// loop with no RPC, flows or blobs: it exercises the kernel's lane,
// staged-rung and far-pool tiers, which engage only at this scale.
//
// bslint: allow-file(det-wallclock): benchmark harness timing.
#include <optional>

#include "common/hash.hpp"
#include "harness.hpp"
#include "net/topology.hpp"
#include "sim/frame_pool.hpp"
#include "workload/lite_clients.hpp"

namespace perfbench {

Rep run_population(std::uint64_t seed, Mode mode) {
  using namespace bs;
  constexpr std::size_t kClients = 1'000'000;
  constexpr std::size_t kSites = 9;
  constexpr SimTime kEnd = simtime::minutes(30);

  const bool traced = mode == Mode::traced;
  Rep rep;
  sim::FramePool::instance().trim();
  // No layer above the kernel runs, so the trace stays empty.
  std::optional<obs::TraceSink> sink;
  if (traced) sink.emplace(obs::TraceSinkOptions{1024});
  obs::MetricsRegistry metrics;

  const double t_setup = host_now();
  sim::Simulation sim;
  const net::Topology topo = net::Topology::grid5000(kSites);
  sim.configure_sites(topo.site_count(), topo.min_cross_site_latency());
  workload::LiteParams params;
  params.clients = kClients;
  params.end = kEnd;
  params.seed = hash_combine(seed, 0x11e7c11e7001ull);
  workload::LiteClientPool pool(sim, topo, params);
  pool.start();
  rep.setup_s = host_now() - t_setup;
  if (mode == Mode::setup_only) return rep;

  if (traced) {
    sim.attach_trace(*sink);
    obs::set_metrics(&metrics);
  }
  const LayerBase base = layer_base(sim, nullptr);
  const std::uint64_t ev0 = sim.events_processed();
  const std::uint64_t alloc0 = heap_allocs();
  StepProfile prof;
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

  std::uint64_t bytes = 0;
  std::uint64_t cross_sent = 0;
  std::uint64_t cross_recv = 0;
  for (std::size_t s = 0; s < pool.sites(); ++s) {
    bytes += pool.site_stats(s).bytes;
    cross_sent += pool.site_stats(s).cross_sent;
    cross_recv += pool.site_stats(s).cross_recv;
  }
  rep.attempted = pool.total_ops();
  rep.digest = hash_combine(pool.digest(), rep.events);
  // Every cross-site message sent before the end is delivered: the pool
  // stops rescheduling ticks past `end`, and the run drains the queue.
  if (cross_sent != cross_recv) {
    rep.gate_failures.push_back("cross-site messages lost");
    ++rep.failed;
  }
  rep.sim["goodput_mb_s"] =
      static_cast<double>(bytes) / 1e6 / simtime::to_seconds(kEnd);

  record_sim_config(rep, sim);
  rep.config["flow_scheduler"] = "none";
  if (traced) {
    record_profile(rep, prof);
    record_layers(rep, base, sim, nullptr, metrics, *sink,
                  static_cast<double>(rep.attempted), 0.0, 0.0);
  }
  return rep;
}

}  // namespace perfbench
