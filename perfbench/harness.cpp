// bslint: allow-file(det-wallclock): benchmark harness timing; the
// simulated workloads themselves are wall-clock-free.
#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <unordered_map>
#include <utility>

#include "sim/frame_pool.hpp"

// The one translation unit that includes the probe: it replaces the global
// operator new/delete with counting wrappers.
#include "../bench/alloc_probe.hpp"

namespace perfbench {

std::uint64_t heap_allocs() { return bs::bench::alloc_probe::allocations(); }

double g_sec_scan_ns = 0;

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

namespace {

// The probe's state lives in static storage, so a slice allocates nothing
// through operator new and costs the same in every rep.
struct Probe {
  static constexpr std::size_t kHeap = 4096;
  static constexpr std::size_t kBlocks = 1024;
  std::uint64_t heap[kHeap];
  void* blocks[kBlocks] = {};
  std::uint64_t x = 0x9E3779B97F4A7C15ull;

  Probe() {
    for (std::uint64_t& v : heap) v = next() >> 20;
    std::make_heap(heap, heap + kHeap, std::greater<>());
  }
  std::uint64_t next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
  // One slice: 600 event-queue-like pop/push pairs, then 60 small
  // malloc/free pairs.
  void slice() {
    std::uint64_t sum = 0;
    for (int i = 0; i < 600; ++i) {
      std::pop_heap(heap, heap + kHeap, std::greater<>());
      sum += heap[kHeap - 1];
      heap[kHeap - 1] += next() >> 44;
      std::push_heap(heap, heap + kHeap, std::greater<>());
    }
    for (int i = 0; i < 60; ++i) {
      void*& b = blocks[next() % kBlocks];
      std::free(b);
      b = std::malloc(8 * (1 + (sum & 15)));
      if (b != nullptr) std::memcpy(b, &sum, sizeof sum);
      sum += next();
    }
  }
};

Probe& probe_instance() {
  static Probe probe;
  return probe;
}

}  // namespace

double probe_slices_s(int n) {
  Probe& probe = probe_instance();
  const double t0 = host_now();
  for (int i = 0; i < n; ++i) probe.slice();
  return (host_now() - t0) / n;
}

void probed_run(bs::sim::Simulation& sim, Rep& rep) {
  using clock = std::chrono::steady_clock;
  Probe& probe = probe_instance();
  std::uint64_t steps = 0;
  double ns = 0;
  while (!sim.stopped() && sim.step()) {
    if (++steps % kProbeEvery == 0) {
      const auto t0 = clock::now();
      probe.slice();
      ns += std::chrono::duration<double, std::nano>(clock::now() - t0)
                .count();
      ++rep.probe_slices;
    }
  }
  rep.probe_s += ns * 1e-9;
}

double Samples::pct(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(s.size())));
  return s[rank == 0 ? 0 : rank - 1];
}

std::size_t Samples::beyond(double q) const {
  const double p = pct(q);
  return static_cast<std::size_t>(
      std::count_if(v_.begin(), v_.end(), [p](double x) { return x > p; }));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const char* layer_name(int layer) {
  static const char* const kNames[kLayers] = {"sim",  "cloud", "blob", "mon",
                                              "repl", "core",  "rpc",  "sec"};
  return kNames[layer];
}

int layer_of(const char* name) {
  static const std::pair<const char*, int> kPrefixes[] = {
      {"s3.", kCloud}, {"blob.", kBlob}, {"vm.", kBlob},   {"mon.", kMon},
      {"repl.", kRepl}, {"mape.", kCore}, {"rpc.", kRpc}};
  for (const auto& [prefix, layer] : kPrefixes) {
    if (std::strncmp(name, prefix, std::strlen(prefix)) == 0) return layer;
  }
  return kSim;
}

double StepProfile::total_ns() const {
  double t = 0;
  for (double v : ns) t += v;
  return t;
}

namespace {

bool is_cat(const bs::obs::TraceRecord& r, const char* cat) {
  return std::strcmp(r.cat, cat) == 0;
}

bool is_name(const char* name, const char* want) {
  return std::strcmp(name, want) == 0;
}

struct OpenSpan {
  const char* name;
  const char* cat;
  bs::obs::SpanId parent;
};

// The layer a step is charged to, from the first record it emitted and the
// spans open at that point:
// - a serve-span record (category "rpc.serve": request arrival, admission,
//   queueing, reply dispatch) and an rpc.reject, rpc.drop or rpc.shed
//   instant are the RPC layer's own work: rpc;
// - any other record of category "rpc" (a call span, an rpc.attempt span
//   or an rpc.retry instant) starts or resumes the caller's code: the step
//   goes to the caller, found by walking the parents past call and attempt
//   spans to the first other span. A module span names its module; a serve
//   span names the module whose handler made the call. A call with no such
//   ancestor (a root call: mon batches, the workloads' own calls) goes to
//   the module named by the outermost call's message name;
// - any other record goes to the layer its name prefix names.
int step_layer(const bs::obs::TraceRecord& r,
               const std::unordered_map<bs::obs::SpanId, OpenSpan>& open) {
  if (is_cat(r, "rpc.serve")) return kRpc;
  if (!is_cat(r, "rpc")) return layer_of(r.name);
  if (is_name(r.name, "rpc.reject") || is_name(r.name, "rpc.drop") ||
      is_name(r.name, "rpc.shed")) {
    return kRpc;
  }
  const char* called =
      std::strncmp(r.name, "rpc.", 4) != 0 ? r.name : nullptr;
  for (bs::obs::SpanId p = r.parent;;) {
    auto it = open.find(p);
    if (it == open.end()) break;
    const OpenSpan& s = it->second;
    if (std::strcmp(s.cat, "rpc") != 0) return layer_of(s.name);
    if (std::strncmp(s.name, "rpc.", 4) != 0) called = s.name;
    p = s.parent;
  }
  return called != nullptr ? layer_of(called) : kRpc;
}

}  // namespace

void traced_run(bs::sim::Simulation& sim, const bs::obs::TraceSink& sink,
                StepProfile& out) {
  using clock = std::chrono::steady_clock;
  // Steps that emitted records: (index of their first record, host ns).
  // Layers are resolved in one pass over the ring afterwards.
  std::vector<std::pair<std::size_t, double>> tagged;
  while (!sim.stopped()) {
    const std::size_t before = sink.size();
    const double scan0 = g_sec_scan_ns;
    const auto t0 = clock::now();
    const bool more = sim.step();
    const auto t1 = clock::now();
    const double scan = g_sec_scan_ns - scan0;
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() - scan;
    out.ns[kSec] += scan;
    if (sink.size() > before) {
      tagged.emplace_back(before, ns);
    } else {
      out.ns[kSim] += ns;
    }
    if ((++out.steps & 1023) == 0) {
      out.pending_peak = std::max<std::uint64_t>(out.pending_peak, sim.pending());
    }
    if (!more) break;
  }
  std::unordered_map<bs::obs::SpanId, OpenSpan> open;
  std::size_t idx = 0;
  std::size_t k = 0;
  sink.for_each([&](const bs::obs::TraceRecord& r) {
    if (k < tagged.size() && tagged[k].first == idx) {
      out.ns[step_layer(r, open)] += tagged[k].second;
      ++k;
    }
    if (r.kind == bs::obs::RecordKind::span_begin) {
      open.emplace(r.id, OpenSpan{r.name, r.cat, r.parent});
    } else if (r.kind == bs::obs::RecordKind::span_end) {
      open.erase(r.id);
    }
    ++idx;
  });
}

void record_sim_config(Rep& rep, bs::sim::Simulation& sim) {
  rep.config["lanes"] = std::to_string(sim.site_lane_count());
  rep.config["worker_threads"] = std::to_string(sim.worker_threads());
  rep.config["frame_pool"] =
      bs::sim::FramePool::instance().enabled() ? "on" : "off";
}

void record_profile(Rep& rep, const StepProfile& prof) {
  const double total = prof.total_ns();
  for (int l = 0; l < kLayers; ++l) {
    rep.layer[std::string(layer_name(l)) + ".host_share"] =
        total > 0 ? 100.0 * prof.ns[l] / total : 0.0;
  }
  rep.layer["sim.host_s"] = prof.ns[kSim] * 1e-9;
  rep.layer["sim.pending_peak"] = static_cast<double>(prof.pending_peak);
}

}  // namespace perfbench
