// Simulated cluster + typed RPC. A Cluster owns Nodes placed on a Topology;
// calls between nodes pay propagation latency, transfer payloads through the
// flow scheduler (large payloads contend for NIC/disk bandwidth), pass an
// admission hook (the attachment point of the self-protection framework) and
// an optional service queue (bounded concurrency + per-request overhead,
// which is what a flood of small requests saturates), then run a registered
// coroutine handler.
//
// Request/response types are plain structs declaring:
//   static constexpr const char* kName;            // for observability
//   std::uint64_t wire_size() const;               // payload bytes
// and optionally:
//   static constexpr bool kPayloadToDisk = true;   // request payload is
//                                                  // streamed to dst disk
//   static constexpr bool kResponseFromDisk = true;// response payload is
//                                                  // read from dst disk
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "common/log.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/flow.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace bs::rpc {

class Cluster;

/// Per-call metadata travelling with every request.
struct Envelope {
  ClientId client{};      ///< authenticated caller identity (may be invalid)
  NodeId src_node{};
  SimTime sent_at{0};
  /// Trace span enclosing the server-side work (the serve span once the
  /// request is admitted); handlers parent their downstream calls on it so
  /// a client write shows its nested provider/metadata/manager activity.
  obs::SpanId parent_span{0};
};

/// Retry policy: exponential backoff with jitter, deterministic because the
/// jitter is drawn from the cluster's seeded RNG. `max_attempts == 1`
/// disables retries. Only transport-level failures (timeout, unavailable)
/// are retried; application errors propagate to the caller unchanged.
struct RetryPolicy {
  std::uint32_t max_attempts{1};
  SimDuration base_backoff{simtime::millis(50)};
  double multiplier{2.0};
  SimDuration max_backoff{simtime::seconds(5)};
  /// Fraction of each backoff that is randomized: the delay before retry k
  /// is uniform in [d*(1-jitter), d] with d = min(base*mult^(k-1), max).
  double jitter{0.5};

  [[nodiscard]] bool enabled() const { return max_attempts > 1; }
  [[nodiscard]] SimDuration backoff(std::uint32_t retry, Rng& rng) const;
  [[nodiscard]] static bool retryable(Errc code) {
    return code == Errc::timeout || code == Errc::unavailable;
  }
};

/// Options for a single call. `timeout` is per attempt; with a retry policy
/// the overall deadline is the sum of attempt timeouts plus backoffs.
struct CallOptions {
  SimDuration timeout{simtime::seconds(30)};
  ClientId client{};
  /// Per-call override; when absent the cluster default applies.
  std::optional<RetryPolicy> retry{};
  /// Trace span this call nests under (0 = root).
  obs::SpanId parent_span{0};
};

/// How a node crashes. Fail-stop: in-flight RPCs touching the node (either
/// side), queued requests and un-sent responses are all lost.
struct CrashOptions {
  bool lose_storage{false};  ///< stateful services wipe their stores
  /// Power-loss flavour: the journaled store's last un-synced record is
  /// left half-written and must be scanned and truncated at recovery.
  bool torn_tail{false};
};

/// Observation record handed to the instrumentation layer for every request
/// a node serves (or rejects).
struct RequestInfo {
  const char* name{""};
  ClientId client{};
  NodeId src{};
  std::uint64_t request_bytes{0};
  std::uint64_t response_bytes{0};
  SimDuration queue_wait{0};
  SimDuration service_time{0};
  Errc outcome{Errc::ok};
};

/// Hardware description of a simulated machine.
struct NodeSpec {
  double nic_bps{net::gbit_per_sec(1.0)};   ///< full-duplex per direction
  double disk_bps{net::mb_per_sec(400.0)};
  std::uint64_t disk_capacity{64ull * units::GB};
  std::size_t service_concurrency{4};       ///< parallel request slots
  SimDuration service_overhead{simtime::micros(300)};  ///< per request
  /// Requests queued beyond this are rejected with `unavailable`
  /// (overload shedding); effectively unbounded by default.
  std::size_t service_queue_limit{100000};
};

namespace detail {
using AnyPtr = std::shared_ptr<void>;
struct AnyResponse {
  Result<void> status;   // error, if the handler failed
  AnyPtr payload;        // valid iff status.ok()
  std::uint64_t wire_size{0};
  bool from_disk{false};
};
using ErasedHandler =
    std::function<sim::Task<AnyResponse>(AnyPtr, Envelope)>;

template <class T>
concept HasPayloadToDisk = requires { T::kPayloadToDisk; };
template <class T>
concept HasResponseFromDisk = requires { T::kResponseFromDisk; };

template <class T>
constexpr bool payload_to_disk() {
  if constexpr (HasPayloadToDisk<T>) return T::kPayloadToDisk;
  return false;
}
template <class T>
constexpr bool response_from_disk() {
  if constexpr (HasResponseFromDisk<T>) return T::kResponseFromDisk;
  return false;
}
}  // namespace detail

class Node {
 public:
  using AdmissionHook =
      std::function<Result<void>(const Envelope&, const char* req_name)>;
  using RequestObserver = std::function<void(const RequestInfo&)>;
  using CrashListener = std::function<void(const CrashOptions&)>;
  using RestartListener = std::function<void()>;

  Node(Cluster& cluster, NodeId id, net::SiteId site, const NodeSpec& spec);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] net::SiteId site() const { return site_; }
  [[nodiscard]] const NodeSpec& spec() const { return spec_; }
  [[nodiscard]] Cluster& cluster() { return cluster_; }

  [[nodiscard]] bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  /// Fail-stop crash: bumps the incarnation (invalidating every RPC pinned
  /// to the old one) and runs crash listeners so stateful services can stop
  /// background loops and optionally wipe their stores. No-op if down.
  void crash(const CrashOptions& opts = {});
  /// Brings a crashed node back up and runs restart listeners (services
  /// re-register, heartbeats resume). No-op if already up.
  void restart();
  /// Bumped on every crash. RPCs pin both endpoints' incarnations at send
  /// time and abandon the call when either changes mid-flight.
  [[nodiscard]] std::uint64_t incarnation() const { return incarnation_; }
  void add_crash_listener(CrashListener l) {
    crash_listeners_.push_back(std::move(l));
  }
  void add_restart_listener(RestartListener l) {
    restart_listeners_.push_back(std::move(l));
  }

  net::Resource* nic_tx() { return nic_tx_; }
  net::Resource* nic_rx() { return nic_rx_; }
  net::Resource* disk() { return disk_; }

  /// Registers a coroutine handler for requests of type Req.
  template <class Req, class Resp, class F>
  void serve(F handler) {
    handlers_[std::type_index(typeid(Req))] =
        [handler = std::move(handler)](detail::AnyPtr any,
                                       Envelope env) -> sim::Task<detail::AnyResponse> {
      auto req = std::static_pointer_cast<Req>(std::move(any));
      Result<Resp> result = co_await handler(*req, env);
      detail::AnyResponse out;
      if (result.ok()) {
        auto payload = std::make_shared<Resp>(std::move(result).value());
        out.wire_size = payload->wire_size();
        out.from_disk = detail::response_from_disk<Req>();
        out.payload = std::move(payload);
        out.status = ok_result();
      } else {
        out.status = result.error();
      }
      co_return out;
    };
  }

  [[nodiscard]] bool serves(std::type_index t) const {
    return handlers_.count(t) > 0;
  }

  /// Admission control: run before queueing; an error rejects the request
  /// without consuming service capacity (this is how blocked clients are
  /// turned away cheaply).
  void set_admission(AdmissionHook hook) { admission_ = std::move(hook); }

  /// Instrumentation tap: invoked once per served/rejected request.
  void set_request_observer(RequestObserver obs) { observer_ = std::move(obs); }

  [[nodiscard]] std::uint64_t requests_served() const { return served_; }

 private:
  friend class Cluster;

  Cluster& cluster_;
  NodeId id_;
  net::SiteId site_;
  NodeSpec spec_;
  bool up_{true};
  std::uint64_t incarnation_{0};
  std::vector<CrashListener> crash_listeners_;
  std::vector<RestartListener> restart_listeners_;
  net::Resource* nic_tx_;
  net::Resource* nic_rx_;
  net::Resource* disk_;
  std::unique_ptr<sim::Semaphore> service_sem_;
  std::unordered_map<std::type_index, detail::ErasedHandler> handlers_;
  AdmissionHook admission_;
  RequestObserver observer_;
  std::uint64_t served_{0};
};

class Cluster {
 public:
  /// `fault_seed` feeds the RNG used for retry jitter (and nothing else),
  /// keeping backoff schedules deterministic per seed. `site_lanes` shards
  /// the simulation into one event lane per topology site; false keeps the
  /// single-heap queue, which executes the same order.
  Cluster(sim::Simulation& sim, net::Topology topology,
          std::uint64_t fault_seed = 0xB5FA117ull, bool site_lanes = true);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] net::FlowScheduler& flows() { return flows_; }
  [[nodiscard]] const net::Topology& topology() const { return topology_; }

  /// Creates a node on `site`.
  Node* add_node(net::SiteId site, const NodeSpec& spec = {});

  /// Removes a node from service (it stays addressable but unavailable).
  void retire_node(NodeId id);

  [[nodiscard]] Node* node(NodeId id);
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Typed RPC. Fails with `unavailable` when dst is down/unknown,
  /// `timeout` when opts.timeout elapses first, or whatever the admission
  /// hook / handler returns.
  template <class Req, class Resp>
  // bslint: allow(coro-ref-param): src is cluster-owned and lives for the
  // whole simulation; the request moves into a shared_ptr immediately
  sim::Task<Result<Resp>> call(Node& src, NodeId dst, Req req,
                               CallOptions opts = {}) {
    auto any = std::make_shared<Req>(std::move(req));
    const std::uint64_t req_bytes = any->wire_size();
    auto erased = co_await call_erased(
        src, dst, std::type_index(typeid(Req)), Req::kName, std::move(any),
        req_bytes, detail::payload_to_disk<Req>(), opts);
    if (!erased.ok()) co_return erased.error();
    co_return std::move(*std::static_pointer_cast<Resp>(erased.value()));
  }

  /// Messages smaller than this bypass the flow scheduler (pure
  /// latency + serialization delay); larger payloads contend for bandwidth.
  static constexpr std::uint64_t kFlowThreshold = 64 * units::KiB;

  /// Link-level fault, evaluated once per message direction at send time. A
  /// dropped message vanishes (the caller's timeout fires); extra latency is
  /// added to the propagation delay of that message only.
  struct LinkFault {
    bool drop{false};
    SimDuration extra_latency{0};
  };
  using LinkFaultFn = std::function<LinkFault(net::SiteId from, net::SiteId to)>;
  /// Installs the fault-plane hook (empty function clears it).
  void set_link_fault_fn(LinkFaultFn fn) { link_fault_ = std::move(fn); }

  /// Default retry policy for calls that don't carry their own. Disabled by
  /// default: retries are opt-in per client.
  void set_default_retry(RetryPolicy policy) { default_retry_ = policy; }
  [[nodiscard]] const RetryPolicy& default_retry() const {
    return default_retry_;
  }

  /// `calls_started` counts every attempt (retries included); `timeouts`
  /// counts every attempt that timed out, so with retries enabled one
  /// logical call can contribute several of each.
  [[nodiscard]] std::uint64_t calls_started() const { return calls_started_; }
  [[nodiscard]] std::uint64_t calls_timed_out() const { return timeouts_; }
  [[nodiscard]] std::uint64_t calls_retried() const { return calls_retried_; }
  [[nodiscard]] std::uint64_t messages_dropped() const {
    return messages_dropped_;
  }

 private:
  /// One attempt's outcome, shared by the attempt, its call body and its
  /// timeout-FIFO entry. Whichever settles first (body or timeout) sets
  /// `settled` and `result`; the other then leaves it alone.
  struct CallState {
    explicit CallState(sim::Simulation& sim) : done(sim) {}
    sim::Event done;
    bool settled{false};
    Result<detail::AnyPtr> result{Errc::internal};
  };

  /// Pending attempts sharing one timeout duration, in issue order. Equal
  /// durations make issue order deadline order, and the entries' tickets
  /// ascend too, so the FIFO is sorted by (deadline, ticket). One kernel
  /// event is armed per non-empty FIFO, at the key of its first entry when
  /// armed; when it runs it times out that entry if the call is unsettled,
  /// drops settled entries and re-arms for the next one. Each timeout thus
  /// fires at the (time, seq, lane) key an event scheduled at issue time
  /// for now + timeout would have had: the order of one timer per call.
  struct TimeoutFifo {
    struct Entry {
      SimTime deadline{0};
      sim::Simulation::Ticket ticket{};
      std::shared_ptr<CallState> state;  ///< null once the attempt settled
    };
    SimDuration timeout{0};
    std::vector<Entry> ring;  ///< power-of-two capacity
    std::uint64_t head{0};    ///< absolute index of the first entry
    std::uint64_t tail{0};    ///< absolute index one past the last
    sim::Simulation::Ticket armed{};  ///< the queued event; valid iff non-empty

    [[nodiscard]] bool empty() const { return head == tail; }
    Entry& at(std::uint64_t pos) { return ring[pos & (ring.size() - 1)]; }
  };
  /// Where an attempt's timeout entry sits: FIFO index and absolute slot.
  struct TimeoutSlot {
    std::size_t fifo;
    std::uint64_t pos;
  };

  /// Queues `state` on the FIFO for `timeout` under a fresh reservation,
  /// arming the FIFO's event if it was empty.
  TimeoutSlot queue_timeout(std::shared_ptr<CallState> state,
                            SimDuration timeout);
  /// Called once the attempt's `done` is set: frees its entry (and the call
  /// state with it), drops the settled prefix, and cancels the armed event
  /// when nothing is left to time out.
  void release_timeout(TimeoutSlot slot);
  /// The armed event of FIFO `f`.
  void expire_timeouts(std::size_t f);
  /// Pops settled entries off the front of `q`.
  static void drop_settled(TimeoutFifo& q);
  /// Schedules the FIFO's event under its first entry's key.
  void arm(std::size_t f);

  /// Retry loop around `call_attempt`, driven by the effective RetryPolicy.
  // bslint: allow(coro-ref-param): src is cluster-owned for the whole sim
  sim::Task<Result<detail::AnyPtr>> call_erased(
      Node& src, NodeId dst, std::type_index type, const char* name,
      detail::AnyPtr req, std::uint64_t req_bytes, bool payload_to_disk,
      CallOptions opts);

  /// One attempt: spawns the call body and races it against the timeout,
  /// queued on the timeout FIFO for opts.timeout. Options are by value
  /// (coroutine-frame copy, bslint coro-ref-param).
  // bslint: allow(coro-ref-param): src is cluster-owned for the whole sim
  sim::Task<Result<detail::AnyPtr>> call_attempt(
      Node& src, NodeId dst, std::type_index type, const char* name,
      detail::AnyPtr req, std::uint64_t req_bytes, bool payload_to_disk,
      CallOptions opts);

  sim::Task<void> call_body(std::shared_ptr<CallState> state, Node* src,
                            Node* dst, std::type_index type, const char* name,
                            detail::AnyPtr req, std::uint64_t req_bytes,
                            bool payload_to_disk, CallOptions opts);

  /// Models moving `bytes` from a to b (no-op for zero bytes). `extra` is an
  /// additional resource (e.g. destination disk) included in the flow.
  // bslint: allow(coro-ref-param): both nodes are cluster-owned; only the
  // cluster spawns transmits, and never across a node teardown
  sim::Task<void> transmit(Node& a, Node& b, std::uint64_t bytes,
                           net::Resource* extra);

  /// Lazily-created shared backbone resource for a distinct site pair;
  /// nullptr when the topology leaves WAN bandwidth uncapped or a == b.
  net::Resource* wan_link(net::SiteId a, net::SiteId b);

  sim::Simulation& sim_;
  net::Topology topology_;
  net::FlowScheduler flows_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<std::uint64_t, net::Resource*> wan_links_;  ///< by site pair key
  LinkFaultFn link_fault_;
  RetryPolicy default_retry_{};
  Rng retry_rng_;
  std::vector<TimeoutFifo> timeout_fifos_;  ///< one per distinct timeout
  std::uint64_t calls_started_{0};
  std::uint64_t timeouts_{0};
  std::uint64_t calls_retried_{0};
  std::uint64_t messages_dropped_{0};
};

}  // namespace bs::rpc
