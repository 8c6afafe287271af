// Benchmark binary: runs one workload repeatedly in this process and
// prints one JSON line with its end-to-end metrics (untraced reps) or its
// per-layer metrics (traced reps, interleaved with untraced ones).
//
//   perfbench --workload dos_flood|s3_mixed|population --seed N
//             --seconds S --trace 0|1
//
// A warm-up rep runs first, then set-up-only reps, then timed reps until S
// host seconds have passed. Host timings are medians over the reps, scaled
// to the reference host's speed by a probe interleaved with each timed
// phase (see probed_run). Every rep must
// reproduce the warm-up's events, digest and sim-time outputs exactly, and
// untraced reps their heap-allocation count; any mismatch or failed
// correctness gate is reported as a failure, never averaged away.
//
// bslint: allow-file(det-wallclock): benchmark harness timing.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "harness.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "dos_flood|s3_mixed|population --seed N --seconds S "
               "--trace 0|1\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (argc % 2 == 0) usage("arguments come in --key value pairs");
  return a;
}

Workload lookup(const std::string& name) {
  if (name == "dos_flood") return run_dos_flood;
  if (name == "s3_mixed") return run_s3_mixed;
  if (name == "population") return run_population;
  usage(("unknown workload " + name).c_str());
}

void json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void json_map(const char* key, const std::map<std::string, double>& m) {
  std::printf(", \"%s\": {", key);
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s", first ? "" : ", ");
    json_string(k);
    std::printf(": %.17g", v);
    first = false;
  }
  std::printf("}");
}

// Host seconds one probe slice (see probed_run) takes on the reference
// host: a 4-core VM, Intel Xeon 2.1 GHz, GCC 12.2, -O2.
constexpr double kProbeSliceRefS = 44e-6;

// Host seconds of set-up-only reps a run makes before its timed reps.
constexpr double kSetupBudgetS = 1.5;

// Set-up-only reps: at least five, then more until kSetupBudgetS host
// seconds have passed (at most 40). Each set-up time is scaled to the
// reference host's speed by eight probe slices run right after it: the
// same set-up takes about 0.55 ms in one process and 0.8 ms in the next,
// and the probe slows down with it.
std::vector<double> setup_reps(Workload run, std::uint64_t seed) {
  std::vector<double> out;
  const double t0 = host_now();
  while (out.size() < 5 ||
         (out.size() < 40 && host_now() - t0 < kSetupBudgetS)) {
    const double setup_s = run(seed, Mode::setup_only).setup_s;
    out.push_back(setup_s * kProbeSliceRefS / probe_slices_s(8));
  }
  return out;
}

// Exact-repeat checks against the warm-up rep.
void check_repeat(const Rep& ref, const Rep& r, const char* what,
                  std::vector<std::string>& failures) {
  const std::string w(what);
  if (r.events != ref.events) failures.push_back(w + ": events differ");
  if (r.digest != ref.digest) failures.push_back(w + ": digest differs");
  if (r.sim != ref.sim) failures.push_back(w + ": sim-time outputs differ");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  const Workload run = lookup(args.workload);
  // Every simulator knob is pinned to its default: a stray BS_* variable
  // would change what is measured.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "BS_", 3) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      return 2;
    }
  }

  // Warnings (e.g. one per security alert) would time stderr writes.
  bs::Logger::instance().set_level(bs::LogLevel::error);

  std::vector<std::string> failures;
  const Rep warm = run(args.seed, Mode::untraced);
  const std::vector<double> setup = setup_reps(run, args.seed);
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  const double start = host_now();
  // At least three untraced reps (or two untraced + traced pairs) so a
  // median exists even when one rep outlasts the budget.
  do {
    plain.push_back(run(args.seed, Mode::untraced));
    if (args.trace) traced.push_back(run(args.seed, Mode::traced));
  } while (host_now() - start < args.seconds ||
           plain.size() < (args.trace ? 2u : 3u));

  std::uint64_t attempted = warm.attempted;
  std::uint64_t failed = warm.failed;
  auto gates = [&](const Rep& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& g : r.gate_failures) failures.push_back(g);
  };
  gates(warm);
  for (const Rep& r : plain) {
    gates(r);
    check_repeat(warm, r, "untraced rep", failures);
    if (r.heap_allocs != plain.front().heap_allocs) {
      failures.push_back("untraced rep: heap_allocs differ");
    }
  }
  for (const Rep& r : traced) {
    gates(r);
    check_repeat(warm, r, "traced rep", failures);
  }

  // Host times are reported in reference seconds: each rep's time scaled
  // by how much faster or slower than on the reference host the probe
  // slices interleaved with that rep ran. The host's speed drifts by tens
  // of percent over seconds to minutes; the probe slices, run throughout
  // the timed phase, slow down with it, so the scaled time moves with the
  // simulator's own cost. Set-up times were scaled in setup_reps.
  std::vector<double> wall;
  std::vector<double> wall_raw;
  std::vector<double> scale;
  for (const Rep& r : plain) {
    scale.push_back(r.probe_slices == 0
                        ? 1.0
                        : kProbeSliceRefS *
                              static_cast<double>(r.probe_slices) /
                              r.probe_s);
    wall_raw.push_back(r.wall_s);
    wall.push_back(r.wall_s * scale.back());
  }
  std::map<std::string, double> e2e;
  e2e["setup_s"] = median(setup);
  e2e["wall_s"] = median(wall);
  e2e["peak_rss_mb"] = peak_rss_mb();
  e2e["events"] = static_cast<double>(warm.events);
  e2e["heap_allocs"] = static_cast<double>(plain.front().heap_allocs);
  e2e["goodput_mb_s"] = warm.sim.at("goodput_mb_s");

  std::map<std::string, double> layers;
  if (args.trace) {
    std::map<std::string, std::vector<double>> series;
    std::vector<double> traced_wall;
    for (const Rep& r : traced) {
      traced_wall.push_back(r.wall_s);
      for (const auto& [k, v] : r.layer) series[k].push_back(v);
    }
    for (auto& [k, v] : series) layers[k] = median(v);
    layers["obs.trace_overhead"] = median(traced_wall) / median(wall_raw);
  }

  std::printf("{\"workload\": ");
  json_string(args.workload);
  std::printf(", \"seed\": %" PRIu64 ", \"trace\": %d", args.seed,
              args.trace ? 1 : 0);
  std::printf(", \"reps\": {\"untraced\": %zu, \"traced\": %zu}",
              plain.size(), traced.size());
  std::printf(", \"config\": {\"build_type\": ");
  json_string(PERFBENCH_BUILD_TYPE " (" PERFBENCH_CXX_FLAGS ")");
  std::printf(", \"compiler\": ");
  json_string(PERFBENCH_COMPILER);
  std::printf(", \"nproc\": %u, \"log_level\": \"error\"",
              std::thread::hardware_concurrency());
  for (const auto& [k, v] : warm.config) {
    std::printf(", ");
    json_string(k);
    std::printf(": ");
    json_string(v);
  }
  std::printf("}, \"digest\": \"%016" PRIx64 "\"", warm.digest);
  json_map("e2e", e2e);
  json_map("service", warm.sim);
  json_map("layers", layers);
  std::printf(", \"wall_raw_s\": %.6g", median(wall_raw));
  std::printf(", \"host_scale_reps\": [");
  for (std::size_t i = 0; i < scale.size(); ++i) {
    std::printf("%s%.6g", i == 0 ? "" : ", ", scale[i]);
  }
  std::printf("], \"setup_reps_s\": [");
  for (std::size_t i = 0; i < setup.size(); ++i) {
    std::printf("%s%.6g", i == 0 ? "" : ", ", setup[i]);
  }
  std::printf("], \"wall_raw_reps_s\": [");
  for (std::size_t i = 0; i < wall_raw.size(); ++i) {
    std::printf("%s%.6g", i == 0 ? "" : ", ", wall_raw[i]);
  }
  std::printf("], \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"failures\": [",
              attempted, failed + failures.size());
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i != 0) std::printf(", ");
    json_string(failures[i]);
  }
  std::printf("]}\n");
  return failures.empty() ? 0 : 1;
}
