// Per-layer metrics shared by every workload's traced rep: kernel, network
// and RPC counters from public accessors and the metrics registry, and the
// metadata / version-manager figures derived from the trace's spans.
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "harness.hpp"
#include "sim/frame_pool.hpp"

namespace perfbench {
namespace {

double bytes_moved(bs::rpc::Cluster* cluster) {
  if (cluster == nullptr) return 0;
  double total = 0;
  for (std::size_t i = 0; i < cluster->node_count(); ++i) {
    bs::rpc::Node* n = cluster->node(bs::NodeId{i});
    if (n != nullptr) total += n->nic_tx()->bytes_served();
  }
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::uint64_t counter(const bs::obs::MetricsRegistry& m, const char* name) {
  const bs::obs::Counter* c = m.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

double hist_q(const bs::obs::MetricsRegistry& m, const char* name, double q) {
  const bs::Histogram* h = m.find_histogram(name);
  return h != nullptr && h->count() > 0 ? h->quantile(q) : 0.0;
}

bool named(const bs::obs::TraceRecord& r, const char* name, const char* cat) {
  return std::strcmp(r.name, name) == 0 && std::strcmp(r.cat, cat) == 0;
}

// Trace-derived blob figures: metadata RPCs issued, and per write op the
// sim time spent in its version-manager calls (start_write + commit_write),
// the serialisation point of BlobSeer's write path.
struct BlobTrace {
  std::uint64_t meta_reads{0};
  std::uint64_t meta_writes{0};
  Samples vm_ms;
};

BlobTrace analyze_blob(const bs::obs::TraceSink& sink) {
  BlobTrace out;
  std::unordered_set<bs::obs::SpanId> write_ops;
  struct Open {
    bs::SimTime begin;
    bs::obs::SpanId op;
  };
  std::unordered_map<bs::obs::SpanId, Open> vm_calls;
  std::unordered_map<bs::obs::SpanId, double> vm_ns_per_op;
  sink.for_each([&](const bs::obs::TraceRecord& r) {
    if (r.kind == bs::obs::RecordKind::span_begin) {
      if (named(r, "blob.meta_get", "rpc")) ++out.meta_reads;
      if (named(r, "blob.meta_put", "rpc")) ++out.meta_writes;
      if (named(r, "blob.append", "blob") || named(r, "blob.write", "blob")) {
        write_ops.insert(r.id);
      } else if ((named(r, "blob.start_write", "rpc") ||
                  named(r, "blob.commit_write", "rpc")) &&
                 write_ops.count(r.parent) != 0) {
        vm_calls[r.id] = Open{r.time, r.parent};
      }
    } else if (r.kind == bs::obs::RecordKind::span_end) {
      auto it = vm_calls.find(r.id);
      if (it != vm_calls.end()) {
        vm_ns_per_op[it->second.op] +=
            static_cast<double>(r.time - it->second.begin);
        vm_calls.erase(it);
      }
    }
  });
  // Percentiles sort, so the map's iteration order does not matter.
  for (const auto& [op, ns] : vm_ns_per_op) out.vm_ms.add(ns * 1e-6);
  return out;
}

}  // namespace

LayerBase layer_base(bs::sim::Simulation& sim, bs::rpc::Cluster* cluster) {
  LayerBase b;
  b.handoffs = sim.cross_site_handoffs();
  b.frame_heap_allocs = bs::sim::FramePool::instance().stats().heap_allocs;
  b.flows = cluster != nullptr ? cluster->flows().completed_flows() : 0;
  b.bytes_moved = bytes_moved(cluster);
  return b;
}

void record_layers(Rep& rep, const LayerBase& base, bs::sim::Simulation& sim,
                   bs::rpc::Cluster* cluster,
                   const bs::obs::MetricsRegistry& m,
                   const bs::obs::TraceSink& sink, double ops, double gets,
                   double puts) {
  auto& L = rep.layer;
  // Layers a workload does not run read 0; the workload overwrites the
  // ones it does.
  for (const char* name :
       {"intro.records_ingested", "sec.scans", "sec.violations",
        "cloud.dedup_hit_ratio", "cloud.provider_bytes_ratio",
        "cloud.delta_wire_ratio", "cloud.index_entries", "repl.enqueued",
        "repl.delivery_ratio", "repl.custody_peak", "repl.reconcile_rounds"}) {
    L[name] = 0;
  }
  // Sim-time service outputs, beside the layers that produce them.
  for (const char* name : {"put_p50_ms", "put_p99_ms", "put_samples",
                           "get_p50_ms", "get_p99_ms", "get_samples",
                           "detect_s"}) {
    auto it = rep.sim.find(name);
    L[std::string("svc.") + name] = it != rep.sim.end() ? it->second : 0.0;
  }
  L["sim.events_per_op"] = ratio(static_cast<double>(rep.events), ops);
  L["sim.cross_site_handoffs"] =
      static_cast<double>(sim.cross_site_handoffs() - base.handoffs);
  L["sim.frame_heap_allocs"] = static_cast<double>(
      bs::sim::FramePool::instance().stats().heap_allocs -
      base.frame_heap_allocs);
  L["net.flows"] = static_cast<double>(
      cluster != nullptr ? cluster->flows().completed_flows() - base.flows : 0);
  L["net.bytes_moved"] = (bytes_moved(cluster) - base.bytes_moved) / 1e6;

  const double calls = static_cast<double>(counter(m, "rpc.calls_started"));
  L["rpc.calls"] = calls;
  L["rpc.retries"] = static_cast<double>(counter(m, "rpc.calls_retried"));
  L["rpc.timeouts"] = static_cast<double>(counter(m, "rpc.timeouts"));
  L["rpc.rejects"] = static_cast<double>(counter(m, "rpc.admission_rejects") +
                                         counter(m, "rpc.load_shed"));
  L["rpc.served_ratio"] =
      ratio(static_cast<double>(counter(m, "rpc.requests_served")), calls);
  L["rpc.queue_wait_p99_ms"] = hist_q(m, "rpc.queue_wait_ms", 0.99);
  L["rpc.service_p50_ms"] = hist_q(m, "rpc.service_ms", 0.50);

  const BlobTrace bt = analyze_blob(sink);
  L["blob.meta_reads_per_get"] =
      ratio(static_cast<double>(bt.meta_reads), gets);
  L["blob.meta_writes_per_put"] =
      ratio(static_cast<double>(bt.meta_writes), puts);
  L["blob.vm_serialize_p99_ms"] = bt.vm_ms.pct(0.99);

  const double emitted = static_cast<double>(counter(m, "mon.events_emitted"));
  L["mon.events_emitted"] = emitted;
  L["mon.batches_sent"] = static_cast<double>(counter(m, "mon.batches_sent"));
  L["mon.drop_ratio"] =
      ratio(static_cast<double>(counter(m, "mon.events_dropped")), emitted);

  L["core.iterations"] = static_cast<double>(counter(m, "mape.iterations"));
  const double executed =
      static_cast<double>(counter(m, "mape.actions_executed"));
  const double failed = static_cast<double>(counter(m, "mape.actions_failed"));
  L["core.action_fail_ratio"] = ratio(failed, executed + failed);

  L["repl.lag_p99_ms"] = hist_q(m, "repl.staleness_ms", 0.99);
  L["obs.trace_records"] = static_cast<double>(sink.size());
  if (sink.dropped() != 0) {
    rep.gate_failures.push_back("trace ring overwrote records");
  }
}

}  // namespace perfbench
