// s3_mixed: a seeded multi-tenant S3 read/write mix driven through the
// gateway's public s3.* verbs (the paper's §V Cumulus front). Set-up
// preloads every tenant's objects; then each tenant runs a closed loop with
// think time over zipf-hot keys: whole and ranged GETs, PUTs, multipart
// uploads, delta syncs, LISTs and DELETEs, each timed in sim time. The
// stack has journal-backed providers, version manager and gateway, MAPE-K
// elasticity and replication modules, and custody geo-replication with one
// seeded partition/heal window between the origin site and a remote site.
// After the tenants finish and the stack quiesces, every object a tenant
// holds an ack for is read back whole and must have its written size.
//
// bslint: allow-file(det-wallclock): benchmark harness timing.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "blob/deployment.hpp"
#include "cloud/gateway.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "core/elasticity.hpp"
#include "core/replication.hpp"
#include "fault/fault_plane.hpp"
#include "harness.hpp"
#include "intro/introspection.hpp"
#include "mon/layer.hpp"
#include "repl/plane.hpp"
#include "sim/frame_pool.hpp"
#include "sim/sync.hpp"

namespace perfbench {
namespace {

using namespace bs;
using namespace bs::cloud;

constexpr std::uint32_t kTenants = 10;
constexpr std::uint32_t kKeysPerTenant = 32;
constexpr std::uint32_t kOpsPerTenant = 400;
// Chunking, content sharing, multipart parts and think time are
// workload::GatewayTraceConfig's defaults, the repository's S3 traffic model.
constexpr std::uint64_t kChunk = 4 * units::MB;
constexpr std::uint32_t kParts = 4;
constexpr std::uint64_t kSharedPool = 64;
constexpr double kSharedRatio = 0.5;
constexpr SimDuration kThink = simtime::millis(20);
constexpr SimDuration kQuiesce = simtime::seconds(30);
constexpr std::uint64_t kFirstTenant = 1000;

/// A tenant's view of one acked object: chunk layout and content sums.
struct Obj {
  std::uint64_t chunks{0};
  std::uint64_t tail{0};
  std::vector<std::uint64_t> sums;
  std::uint64_t etag{0};
  [[nodiscard]] std::uint64_t size() const {
    return (chunks - 1) * kChunk + tail;
  }
};

std::uint64_t object_checksum(std::uint64_t size,
                              const std::vector<std::uint64_t>& sums) {
  std::uint64_t d = fnv1a_u64(size);
  for (std::uint64_t s : sums) d = hash_combine(d, s);
  return d;
}

struct TenantStats {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t acked_bytes{0};  ///< object bytes of acked PUT-family ops
  Samples put_ms;
  Samples get_ms;
  std::uint64_t digest{0};
};

/// Deals values from a fixed multiset in seeded order, reshuffling when
/// exhausted: the seed moves which op or size comes when, while the mix
/// itself (and so the work a run does) barely moves with the seed.
class Deck {
 public:
  explicit Deck(std::vector<int> cards) : cards_(std::move(cards)) {}
  int draw(Rng& rng) {
    if (next_ == 0) {
      for (std::size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng.next_below(i + 1)]);
      }
    }
    const int v = cards_[next_];
    next_ = (next_ + 1) % cards_.size();
    return v;
  }

 private:
  std::vector<int> cards_;
  std::size_t next_{0};
};

enum Op : int { kGet, kPut, kList, kDelete };

struct Tenant {
  std::uint32_t index{0};
  ClientId user{};
  std::string bucket;
  Rng rng;
  std::uint64_t unique{0};
  std::map<std::string, Obj> objects;
  TenantStats stats;
  // GatewayTrace's mix: 55 % PUT family, 30 % GET, 10 % LIST, 5 % DELETE.
  Deck ops{{kPut, kPut, kPut, kPut, kPut, kPut, kPut, kPut, kPut, kPut, kPut,
            kGet, kGet, kGet, kGet, kGet, kGet, kList, kList, kDelete}};
  // An overwrite ships a delta 60 % of the time; an upload that is not a
  // delta goes multipart 25 % of the time, else it is a whole-object PUT.
  Deck delta{{1, 1, 1, 0, 0}};
  Deck multipart{{1, 0, 0, 0}};
  Deck chunks{{1, 2, 3, 4, 5, 6, 7, 8}};
  Deck partial_tail{{1, 1, 1, 0, 0, 0, 0, 0, 0, 0}};

  std::uint64_t content_sum() {
    if (rng.chance(kSharedRatio)) {
      return fnv1a_u64(0x5A5Aull ^ rng.next_below(kSharedPool));
    }
    return fnv1a_u64((static_cast<std::uint64_t>(index) << 40) | ++unique);
  }
  Obj fresh_layout() {
    Obj o;
    o.chunks = static_cast<std::uint64_t>(chunks.draw(rng));
    o.tail = partial_tail.draw(rng) != 0 ? 1 + rng.next_below(kChunk) : kChunk;
    o.sums.resize(o.chunks);
    for (auto& s : o.sums) s = content_sum();
    return o;
  }
  void fold(std::uint64_t v) { stats.digest = hash_combine(stats.digest, v); }
};

rpc::CallOptions call_opts(const Tenant& t) {
  rpc::CallOptions o;
  o.client = t.user;
  o.timeout = simtime::minutes(2);
  return o;
}

template <class Req, class Resp>
sim::Task<Result<Resp>> s3(rpc::Node& node, NodeId gw, Req req,
                           rpc::CallOptions o) {
  co_return co_await node.cluster().call<Req, Resp>(node, gw, std::move(req),
                                                    o);
}

sim::Task<bool> put_object(rpc::Node& node, NodeId gw, Tenant& t,
                           std::string key, Obj next) {
  S3PutObjectReq put;
  put.bucket = t.bucket;
  put.key = key;
  put.payload.size = next.size();
  put.payload.checksum = object_checksum(next.size(), next.sums);
  put.chunk_sums = next.sums;
  next.etag = put.payload.checksum;
  auto r = co_await s3<S3PutObjectReq, S3PutObjectResp>(node, gw,
                                                        std::move(put),
                                                        call_opts(t));
  if (!r.ok()) co_return false;
  t.fold(r.value().etag);
  t.fold(r.value().chunks_deduped);
  t.stats.acked_bytes += next.size();
  t.objects[key] = std::move(next);
  co_return true;
}

sim::Task<bool> put_delta(rpc::Node& node, NodeId gw, Tenant& t,
                          std::string key) {
  const Obj& base = t.objects.at(key);
  Obj next = base;
  const std::uint64_t changed = std::max<std::uint64_t>(1, next.chunks / 4);
  for (std::uint64_t c = 0; c < changed; ++c) {
    next.sums[t.rng.next_below(next.chunks)] = t.content_sum();
  }
  S3PutDeltaReq req;
  req.bucket = t.bucket;
  req.key = key;
  req.base_etag = base.etag;
  for (std::uint64_t i = 0; i < next.chunks; ++i) {
    if (next.sums[i] == base.sums[i]) continue;
    S3DeltaChunk dc;
    dc.index = i;
    dc.payload.size = i + 1 == next.chunks ? next.tail : kChunk;
    dc.payload.checksum = next.sums[i];
    req.chunks.push_back(std::move(dc));
  }
  req.new_size = next.size();
  req.new_etag = object_checksum(next.size(), next.sums);
  next.etag = req.new_etag;
  auto r = co_await s3<S3PutDeltaReq, S3PutDeltaResp>(node, gw, std::move(req),
                                                      call_opts(t));
  if (!r.ok()) co_return false;
  t.fold(r.value().etag);
  t.fold(r.value().chunks_shared);
  t.stats.acked_bytes += next.size();
  t.objects[key] = std::move(next);
  co_return true;
}

sim::Task<void> upload_part(rpc::Node& node, NodeId gw, S3UploadPartReq req,
                            rpc::CallOptions o, bool* ok) {
  auto r = co_await s3<S3UploadPartReq, S3UploadPartResp>(node, gw,
                                                          std::move(req), o);
  *ok = r.ok();
}

sim::Task<bool> put_multipart(rpc::Node& node, NodeId gw, Tenant& t,
                              std::string key) {
  Obj next = t.fresh_layout();
  S3CreateMultipartReq mk;
  mk.bucket = t.bucket;
  mk.key = key;
  auto created = co_await s3<S3CreateMultipartReq, S3CreateMultipartResp>(
      node, gw, std::move(mk), call_opts(t));
  if (!created.ok()) co_return false;
  const std::uint32_t parts = std::min<std::uint32_t>(
      kParts, static_cast<std::uint32_t>(next.chunks));
  bool ok[kParts] = {};
  {
    sim::WaitGroup wg(node.cluster().sim());
    std::uint64_t chunk = 0;
    for (std::uint32_t p = 0; p < parts; ++p) {
      const std::uint64_t n = next.chunks / parts + (p < next.chunks % parts);
      S3UploadPartReq up;
      up.bucket = t.bucket;
      up.key = key;
      up.upload_id = created.value().upload_id;
      up.part_number = p + 1;
      for (std::uint64_t c = 0; c < n; ++c, ++chunk) {
        up.chunk_sums.push_back(next.sums[chunk]);
        up.payload.size += chunk + 1 == next.chunks ? next.tail : kChunk;
      }
      up.payload.checksum = object_checksum(up.payload.size, up.chunk_sums);
      wg.launch(upload_part(node, gw, std::move(up), call_opts(t), &ok[p]));
    }
    co_await wg.wait();
  }
  S3CompleteMultipartReq fin;
  fin.bucket = t.bucket;
  fin.key = key;
  fin.upload_id = created.value().upload_id;
  fin.part_count = parts;
  auto done = co_await s3<S3CompleteMultipartReq, S3CompleteMultipartResp>(
      node, gw, std::move(fin), call_opts(t));
  if (!std::all_of(ok, ok + parts, [](bool b) { return b; }) || !done.ok()) {
    co_return false;
  }
  next.etag = done.value().etag;
  t.fold(next.etag);
  t.stats.acked_bytes += next.size();
  t.objects[key] = std::move(next);
  co_return true;
}

sim::Task<bool> get_object(rpc::Node& node, NodeId gw, Tenant& t,
                           std::string key, bool ranged) {
  const Obj& o = t.objects.at(key);
  S3GetObjectReq get;
  get.bucket = t.bucket;
  get.key = key;
  if (ranged) {
    get.offset = t.rng.next_below(o.size());
    get.length = 1 + t.rng.next_below(o.size() - get.offset);
  }
  auto r = co_await s3<S3GetObjectReq, S3GetObjectResp>(node, gw,
                                                        std::move(get),
                                                        call_opts(t));
  if (!r.ok()) co_return false;
  t.fold(r.value().etag);
  t.fold(r.value().payload.size);
  co_return true;
}

sim::Task<bool> list_objects(rpc::Node& node, NodeId gw, Tenant& t) {
  S3ListObjectsReq ls;
  ls.bucket = t.bucket;
  ls.prefix = "obj";
  ls.max_keys = 10;
  auto r = co_await s3<S3ListObjectsReq, S3ListObjectsResp>(node, gw,
                                                            std::move(ls),
                                                            call_opts(t));
  if (!r.ok()) co_return false;
  t.fold(r.value().objects.size());
  for (const auto& o : r.value().objects) t.fold(o.etag);
  co_return true;
}

sim::Task<bool> delete_object(rpc::Node& node, NodeId gw, Tenant& t,
                              std::string key) {
  S3DeleteObjectReq del;
  del.bucket = t.bucket;
  del.key = key;
  auto r = co_await s3<S3DeleteObjectReq, S3DeleteObjectResp>(
      node, gw, std::move(del), call_opts(t));
  if (!r.ok()) co_return false;
  t.objects.erase(key);
  co_return true;
}

std::string key_name(std::uint64_t rank) { return "obj" + std::to_string(rank); }

// Set-up: one bucket per tenant, every key written once.
sim::Task<void> preload(rpc::Node& node, NodeId gw, Tenant& t) {
  S3CreateBucketReq mk;
  mk.bucket = t.bucket;
  auto r = co_await s3<S3CreateBucketReq, S3CreateBucketResp>(
      node, gw, std::move(mk), call_opts(t));
  if (!r.ok()) ++t.stats.failed;
  for (std::uint32_t k = 0; k < kKeysPerTenant; ++k) {
    if (!co_await put_object(node, gw, t, key_name(k), t.fresh_layout())) {
      ++t.stats.failed;
    }
  }
}

// The timed closed loop: one op, wait for its reply, think, repeat.
sim::Task<void> tenant_loop(rpc::Node& node, NodeId gw, Tenant& t) {
  auto& sim = node.cluster().sim();
  for (std::uint32_t op = 0; op < kOpsPerTenant; ++op) {
    const std::string key = key_name(t.rng.zipf(kKeysPerTenant, 0.9));
    const bool exists = t.objects.count(key) != 0;
    // GET and DELETE of a deleted key write it back instead.
    int op_kind = t.ops.draw(t.rng);
    if (!exists && (op_kind == kGet || op_kind == kDelete)) op_kind = kPut;
    const SimTime t0 = sim.now();
    bool ok = true;
    Samples* lat = nullptr;
    if (op_kind == kGet) {
      ok = co_await get_object(node, gw, t, key, t.rng.chance(0.5));
      lat = &t.stats.get_ms;
    } else if (op_kind == kPut) {
      if (exists && t.delta.draw(t.rng) != 0) {
        ok = co_await put_delta(node, gw, t, key);
      } else if (t.multipart.draw(t.rng) != 0) {
        ok = co_await put_multipart(node, gw, t, key);
      } else {
        ok = co_await put_object(node, gw, t, key, t.fresh_layout());
      }
      lat = &t.stats.put_ms;
    } else if (op_kind == kList) {
      ok = co_await list_objects(node, gw, t);
    } else {
      ok = co_await delete_object(node, gw, t, key);
    }
    ++t.stats.attempted;
    if (!ok) {
      ++t.stats.failed;
    } else if (lat != nullptr) {
      lat->add(simtime::to_millis(sim.now() - t0));
    }
    co_await sim.delay(kThink);
  }
}

sim::Task<void> run_tenants(rpc::Node& node, NodeId gw,
                            std::vector<Tenant>& tenants) {
  auto& sim = node.cluster().sim();
  {
    sim::WaitGroup wg(sim);
    for (Tenant& t : tenants) wg.launch(tenant_loop(node, gw, t));
    co_await wg.wait();
  }
  co_await sim.delay(kQuiesce);
  sim.stop();
}

sim::Task<int> preload_all(rpc::Node& node, NodeId gw,
                           std::vector<Tenant>& tenants) {
  sim::WaitGroup wg(node.cluster().sim());
  for (Tenant& t : tenants) wg.launch(preload(node, gw, t));
  co_await wg.wait();
  co_return 0;
}

// Post-run gate: every object a tenant holds an ack for reads back whole.
sim::Task<int> read_back(rpc::Node& node, NodeId gw,
                         std::vector<Tenant>& tenants) {
  int bad = 0;
  for (Tenant& t : tenants) {
    for (const auto& [key, obj] : t.objects) {
      S3GetObjectReq get;
      get.bucket = t.bucket;
      get.key = key;
      auto r = co_await s3<S3GetObjectReq, S3GetObjectResp>(
          node, gw, std::move(get), call_opts(t));
      if (!r.ok() || r.value().payload.size != obj.size() ||
          r.value().etag != obj.etag) {
        ++bad;
      }
    }
  }
  co_return bad;
}

}  // namespace

Rep run_s3_mixed(std::uint64_t seed, Mode mode) {
  const bool traced = mode == Mode::traced;
  Rep rep;
  sim::FramePool::instance().trim();
  std::optional<obs::TraceSink> sink;
  if (traced) sink.emplace(obs::TraceSinkOptions{std::size_t{4} << 20});
  obs::MetricsRegistry metrics;

  const double t_setup = host_now();
  sim::Simulation sim;
  blob::DeploymentConfig dcfg;
  dcfg.sites = 3;
  dcfg.data_providers = 12;
  dcfg.metadata_providers = 4;
  dcfg.provider_capacity = 8ull * units::GB;
  dcfg.fault_seed = hash_combine(seed, 0x6A7E);
  dcfg.journal.enabled = true;
  blob::Deployment dep(sim, dcfg);
  const net::SiteId origin = dep.version_manager_node().site();

  repl::ReplOptions ro;
  ro.egress.journal = dcfg.journal;
  ro.reconcile.interval = simtime::seconds(10);
  repl::ReplicationPlane plane(dep.cluster(), origin, ro);
  plane.attach(dep);
  plane.start();

  rpc::Node* intro_node = dep.cluster().add_node(origin);
  intro::IntrospectionService intro(*intro_node);
  intro.start();
  mon::MonitoringConfig mcfg;
  mcfg.sinks = {intro_node->id()};
  mon::MonitoringLayer monitoring(dep, mcfg);
  monitoring.start();

  core::AutonomicController controller(dep, intro);
  core::ElasticityOptions eopts;
  eopts.min_providers = dcfg.data_providers;
  controller.add_module(std::make_unique<core::ElasticityModule>(eopts));
  controller.add_module(std::make_unique<core::ReplicationModule>());
  controller.executor().set_provider_added_hook([&](blob::DataProvider& p) {
    monitoring.attach_provider(p);
    plane.attach_data_provider(p);
  });
  controller.start();

  rpc::Node* gw_node = dep.cluster().add_node(origin);
  GatewayOptions gopts;
  gopts.object_chunk_size = kChunk;
  gopts.replication = 2;
  gopts.journal.enabled = true;
  S3Gateway gateway(*gw_node, dep.endpoints(), gopts);
  rpc::Node* user_node = dep.cluster().add_node(origin);

  fault::FaultPlane faults(dep.cluster(), hash_combine(seed, 0xFA17));
  plane.attach_fault_plane(faults);

  std::vector<Tenant> tenants(kTenants);
  for (std::uint32_t i = 0; i < kTenants; ++i) {
    Tenant& t = tenants[i];
    t.index = i;
    t.user = ClientId{kFirstTenant + i};
    t.bucket = "t" + std::to_string(i);
    t.rng = Rng(hash_combine(seed, 0x7E4A47 + i));
    t.stats.digest = fnv1a_u64(i);
  }
  run_task(sim, preload_all(*user_node, gw_node->id(), tenants));
  for (const Tenant& t : tenants) {
    if (t.stats.failed != 0) rep.gate_failures.push_back("preload failed");
  }

  // One 20 s partition/heal window between the origin and the next site,
  // starting at a seeded 8-12 s into the tenants' active period. Only the
  // start moves with the seed: which site and how long shape the custody
  // backlog, and so most of the run's work.
  Rng frng(hash_combine(seed, 0x9A47));
  fault::FaultEvent part;
  part.kind = fault::FaultEvent::Kind::partition;
  part.at = sim.now() + simtime::seconds(8) +
            static_cast<SimDuration>(frng.next_below(
                static_cast<std::uint64_t>(simtime::seconds(4))));
  part.a = origin;
  part.b = (origin + 1) % dcfg.sites;
  fault::FaultEvent heal = part;
  heal.kind = fault::FaultEvent::Kind::heal;
  heal.at = part.at + simtime::seconds(20);
  faults.schedule(part);
  faults.schedule(heal);
  sim.spawn(run_tenants(*user_node, gw_node->id(), tenants));
  rep.setup_s = host_now() - t_setup;
  if (mode == Mode::setup_only) return rep;

  // ---- timed phase
  if (traced) {
    sim.attach_trace(*sink);
    obs::set_metrics(&metrics);
  }
  const LayerBase base = layer_base(sim, &dep.cluster());
  const GatewayStats gw0 = gateway.stats();
  const repl::CustodyQueueStats custody0 = plane.total_custody_stats();
  const std::uint64_t rounds0 = plane.reconciler().rounds();
  const std::uint64_t ev0 = sim.events_processed();
  const std::uint64_t alloc0 = heap_allocs();
  const SimTime sim0 = sim.now();
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
  const double active_s = simtime::to_seconds(sim.now() - sim0 - kQuiesce);
  obs::set_metrics(nullptr);
  sim::Simulation::detach_trace();

  // ---- outputs and gates
  Samples put_ms;
  Samples get_ms;
  std::uint64_t acked = 0;
  std::uint64_t digest = fnv1a_u64(rep.events);
  for (const Tenant& t : tenants) {
    rep.attempted += t.stats.attempted;
    rep.failed += t.stats.failed;
    acked += t.stats.acked_bytes;
    put_ms.merge(t.stats.put_ms);
    get_ms.merge(t.stats.get_ms);
    digest = hash_combine(digest, t.stats.digest);
  }
  if (rep.failed != 0) rep.gate_failures.push_back("s3 ops failed");
  const int unreadable = run_task(sim, read_back(*user_node, gw_node->id(),
                                                 tenants));
  if (unreadable != 0) {
    rep.gate_failures.push_back("acked objects unreadable after heal");
    rep.failed += static_cast<std::uint64_t>(unreadable);
  }
  digest = hash_combine(digest, gateway.state_digest());
  digest = hash_combine(digest, plane.digest());
  rep.digest = digest;

  rep.sim["goodput_mb_s"] = static_cast<double>(acked) / 1e6 / active_s;
  rep.sim["put_p50_ms"] = put_ms.pct(0.50);
  rep.sim["put_p99_ms"] = put_ms.pct(0.99);
  rep.sim["put_samples"] = static_cast<double>(put_ms.size());
  rep.sim["put_beyond_p99"] = static_cast<double>(put_ms.beyond(0.99));
  rep.sim["get_p50_ms"] = get_ms.pct(0.50);
  rep.sim["get_p99_ms"] = get_ms.pct(0.99);
  rep.sim["get_samples"] = static_cast<double>(get_ms.size());
  rep.sim["get_beyond_p99"] = static_cast<double>(get_ms.beyond(0.99));
  rep.sim["active_sim_s"] = active_s;

  record_sim_config(rep, sim);
  rep.config["flow_scheduler"] =
      dep.cluster().flows().incremental() ? "incremental" : "reference";
  if (traced) {
    record_profile(rep, prof);
    const GatewayStats& gs = gateway.stats();
    record_layers(rep, base, sim, &dep.cluster(), metrics, *sink,
                  static_cast<double>(rep.attempted),
                  static_cast<double>(gs.gets - gw0.gets),
                  static_cast<double>(gs.puts - gw0.puts + gs.delta_puts -
                                      gw0.delta_puts + gs.multipart_uploads -
                                      gw0.multipart_uploads));
    auto& L = rep.layer;
    const auto d = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(a - b);
    };
    const auto ratio = [](double n, double m) { return m > 0 ? n / m : 0.0; };
    const double hits = d(gs.dedup_hits, gw0.dedup_hits);
    L["cloud.dedup_hit_ratio"] =
        ratio(hits, hits + d(gs.dedup_misses, gw0.dedup_misses));
    L["cloud.provider_bytes_ratio"] =
        ratio(d(gs.bytes_to_providers, gw0.bytes_to_providers),
              d(gs.bytes_ingested, gw0.bytes_ingested));
    const double shipped = d(gs.delta_bytes_shipped, gw0.delta_bytes_shipped);
    L["cloud.delta_wire_ratio"] =
        ratio(shipped, shipped + d(gs.delta_bytes_shared, gw0.delta_bytes_shared));
    L["cloud.index_entries"] = static_cast<double>(gateway.index().size());
    const repl::CustodyQueueStats cs = plane.total_custody_stats();
    const double enq = d(cs.enqueued, custody0.enqueued);
    L["repl.enqueued"] = enq;
    L["repl.delivery_ratio"] =
        ratio(d(cs.released, custody0.released),
              enq + d(cs.reforwards, custody0.reforwards));
    L["repl.custody_peak"] = static_cast<double>(cs.peak_depth);
    L["repl.reconcile_rounds"] = d(plane.reconciler().rounds(), rounds0);
  }
  return rep;
}

}  // namespace perfbench
