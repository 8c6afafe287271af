// Shared plumbing for the benchmark workloads: host clocks, the allocation
// counter, percentile helpers, the traced stepper that attributes host time
// to the layer named by each step's first trace record, and the per-rep
// result every workload fills in.
//
// bslint: allow-file(det-wallclock): benchmark harness timing; the
// simulated workloads themselves are wall-clock-free.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/rpc.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace perfbench {

/// Host seconds on a monotonic clock.
double host_now();

/// Global operator-new calls since program start, counted by the
/// repository's allocation probe (bench/alloc_probe.hpp, via harness.cpp).
std::uint64_t heap_allocs();

/// Process peak resident set (VmHWM) in MiB.
double peak_rss_mb();

/// Sample set with nearest-rank percentiles.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void merge(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  /// Nearest-rank percentile, q in [0, 1]; 0 for an empty set.
  [[nodiscard]] double pct(double q) const;
  /// Samples strictly above the q-percentile (the tail a percentile rests on).
  [[nodiscard]] std::size_t beyond(double q) const;

 private:
  std::vector<double> v_;
};

/// Median of a host-timing series (mean of the middle pair when even).
double median(std::vector<double> v);

/// Layers host time is attributed to. A step is charged by the first trace
/// record it emits (see step_layer in harness.cpp): RPC arrival, admission
/// and serve records to `rpc`, call and attempt records to the calling
/// layer, other records to the layer their name prefix names. Steps that
/// emit none (and records of no listed layer) are charged to `sim`.
enum Layer : int { kSim, kCloud, kBlob, kMon, kRepl, kCore, kRpc, kSec, kLayers };
const char* layer_name(int layer);
int layer_of(const char* record_name);

/// Host-time attribution of one traced run.
struct StepProfile {
  double ns[kLayers] = {};
  std::uint64_t steps{0};
  std::uint64_t pending_peak{0};
  [[nodiscard]] double total_ns() const;
};

/// Host nanoseconds spent in DetectionEngine::scan() calls the harness
/// drives; the traced stepper moves them from the step to the `sec` layer.
extern double g_sec_scan_ns;

/// Steps `sim` until it stops (or drains), timing every step with the host
/// clock and attributing it to a layer. `sink` must have been installed
/// empty at the start of the run and must not wrap.
void traced_run(bs::sim::Simulation& sim, const bs::obs::TraceSink& sink,
                StepProfile& out);

struct Rep;

/// Steps `sim` until it stops (or drains), as Simulation::run() does, and
/// after every kProbeEvery steps runs one slice of a fixed host-speed
/// probe: pops and pushes on a small binary heap and small malloc/free
/// pairs. The probe uses no simulator code and no operator new, so a
/// change to the simulator never changes its cost and it never shows in
/// heap_allocs; only the host's speed moves it. Adds the probe's host
/// seconds and slice count to `rep` (the caller takes them out of wall_s).
void probed_run(bs::sim::Simulation& sim, Rep& rep);

/// Runs `n` probe slices outside a run and returns their mean host seconds.
double probe_slices_s(int n);
inline constexpr std::uint64_t kProbeEvery = 1024;

/// Runs `task` to completion by stepping the simulation (untimed helper
/// for set-up and post-run checks).
template <class T>
T run_task(bs::sim::Simulation& sim, bs::sim::Task<T> task) {
  std::optional<T> out;
  sim.spawn([](bs::sim::Task<T> t, std::optional<T>& slot)
                -> bs::sim::Task<void> { slot.emplace(co_await std::move(t)); }(
      std::move(task), out));
  while (!out.has_value() && sim.step()) {
  }
  return std::move(*out);
}

/// One execution of a workload: set-up, timed phase, correctness gates.
struct Rep {
  double setup_s{0};
  double wall_s{0};
  std::uint64_t events{0};
  std::uint64_t heap_allocs{0};
  std::uint64_t digest{0};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// Host seconds and slices of the probe probed_run() interleaved with
  /// the timed phase (0 for traced reps).
  double probe_s{0};
  std::uint64_t probe_slices{0};
  std::vector<std::string> gate_failures;
  /// Sim-time model outputs; must repeat exactly rep to rep and between
  /// traced and untraced reps.
  std::map<std::string, double> sim;
  /// Per-layer metrics, filled by traced reps only.
  std::map<std::string, double> layer;
  /// Effective configuration (lanes, frame pool, flow scheduler...).
  std::map<std::string, std::string> config;
};

/// What a rep runs: the set-up alone (timed, then torn down), or the
/// set-up and the timed phase, untraced or traced.
enum class Mode { setup_only, untraced, traced };

using Workload = Rep (*)(std::uint64_t seed, Mode mode);

Rep run_dos_flood(std::uint64_t seed, Mode mode);
Rep run_s3_mixed(std::uint64_t seed, Mode mode);
Rep run_population(std::uint64_t seed, Mode mode);

/// Records the simulator configuration every workload shares.
void record_sim_config(Rep& rep, bs::sim::Simulation& sim);

/// Fills the layer metrics common to every traced rep from the profile.
void record_profile(Rep& rep, const StepProfile& prof);

/// Kernel, network and RPC counters read at the start of the timed phase,
/// so the traced rep reports the timed phase alone.
struct LayerBase {
  std::uint64_t handoffs{0};
  std::uint64_t frame_heap_allocs{0};
  std::uint64_t flows{0};
  double bytes_moved{0};
};
LayerBase layer_base(bs::sim::Simulation& sim, bs::rpc::Cluster* cluster);

/// Fills the per-layer metrics every traced rep reports from the kernel,
/// the cluster (null for workloads without one), the registry and the
/// trace. `ops`, `gets` and `puts` are the workload's user operations in
/// the timed phase. Metrics of layers the workload does not run read 0.
void record_layers(Rep& rep, const LayerBase& base, bs::sim::Simulation& sim,
                   bs::rpc::Cluster* cluster,
                   const bs::obs::MetricsRegistry& metrics,
                   const bs::obs::TraceSink& sink, double ops, double gets,
                   double puts);

}  // namespace perfbench
