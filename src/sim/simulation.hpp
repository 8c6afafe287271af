// Deterministic discrete-event simulation kernel, sharded into per-site
// event lanes. Every event is totally ordered by a global (time, insertion
// sequence) key; coroutine actors suspend on awaitables that schedule their
// resumption.
//
// Hot-path structure (see DESIGN.md "Event queue & memory model" and
// "Sharded lanes & conservative lookahead"):
//  * The queue is a set of LANES — lane 0 is the control/default lane and
//    lanes 1..S shard events per topology site. Each lane is the PR-5 pair:
//    a 4-ary implicit heap of 24-byte (time, seq, slot) keys whose move-only
//    callbacks sit in a slot pool on the side, plus a growable FIFO ring for
//    events at the *current* time (coroutine wakeups through
//    schedule_resume(), zero-delay reschedules) that bypasses the heap.
//  * All lanes share the global sequence counter, and step() executes the
//    lane whose cached head carries the globally smallest (time, seq) key —
//    so the sharded execution order is *exactly* the pop order of one big
//    heap, while sifts touch a per-site heap that is S times smaller and
//    idle sites cost nothing beyond one cached-head compare.
//  * Events scheduled while a lane-L event runs stay in lane L; cross-site
//    handoffs (RPC envelopes crossing the WAN latency matrix) move lanes
//    through schedule_on_site()/hop_to_site() and are stamped with the
//    global sequence counter, keeping the merged order identical.
//  * An opt-in windowed stepper (set_worker_threads / BS_SIM_THREADS) runs
//    lanes whose heads fall inside the conservative lookahead horizon (the
//    topology's minimum cross-site latency) on worker threads; only events
//    scheduled through the parallel-safe APIs (schedule_par and their
//    descendants) are eligible, everything else serializes. See
//    lane_runtime.cpp for the barrier-merge determinism argument.
//  * Events carry an InlineCallback (small-buffer-optimized, move-only)
//    instead of a std::function, and coroutine frames come from the
//    size-bucketed FramePool, so steady-state scheduling is allocation-free.
//  * spawn() registers the detached root frame in an intrusive list;
//    ~Simulation destroys still-suspended actors through it (leak-free
//    teardown, LSan-clean), with bs::FrameTeardownScope silencing
//    frame-local RAII side effects during the cascade.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/teardown.hpp"
#include "common/types.hpp"
#include "sim/task.hpp"

namespace bs::obs {
class TraceSink;
}

namespace bs::sim {

/// Move-only type-erased callable with inline storage for small targets.
/// Callables up to kInlineSize bytes (any capturing lambda the simulator
/// uses, and in particular a bare coroutine_handle) are stored in place;
/// larger ones fall back to a single heap allocation.
class InlineCallback {
 public:
  static constexpr std::size_t kInlineSize = 48;

  /// Whether D is stored in place (no allocation) — exposed so hot-path
  /// call sites can static_assert their callback types never silently
  /// degrade to the heap fallback.
  template <class D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineCallback() noexcept = default;

  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, InlineCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  InlineCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      if (ops_) ops_->destroy(buf_);
      ops_ = other.ops_;
      if (ops_) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() {
    if (ops_) ops_->destroy(buf_);
  }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs *dst from *src and destroys *src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
      [](void* dst, void* src) noexcept {
        D* s = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) noexcept { std::launder(reinterpret_cast<D*>(p))->~D(); }};

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
      },
      [](void* p) noexcept { delete *std::launder(reinterpret_cast<D**>(p)); }};

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_{nullptr};
};

namespace detail {
/// Thread-local view of the lane a worker thread is currently executing
/// inside a parallel window (null on the coordinator and in serial mode).
/// Declared here so Simulation::now() stays inline; the full LaneRun lives
/// in lane_runtime.cpp.
struct LaneRunBase {
  SimTime local_now{0};
};
inline thread_local LaneRunBase* t_lane_run = nullptr;
}  // namespace detail

class Simulation {
 public:
  using Callback = InlineCallback;

  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const {
    if (par_active_) {
      if (const auto* lr = detail::t_lane_run) return lr->local_now;
    }
    return now_;
  }

  void schedule_at(SimTime t, Callback cb);
  void schedule_in(SimDuration dt, Callback cb) {
    schedule_at(now() + dt, std::move(cb));
  }

  /// Fast path for waking a coroutine: never allocates (the 8-byte handle
  /// thunk always fits InlineCallback's inline storage), and a wakeup at
  /// the current time goes through the same-time ring, not the heap.
  void schedule_resume_at(SimTime t, std::coroutine_handle<> h) {
    schedule_at(t, ResumeThunk{h});
  }
  void schedule_resume_in(SimDuration dt, std::coroutine_handle<> h) {
    schedule_resume_at(now() + dt, h);
  }
  void schedule_resume(std::coroutine_handle<> h);

  // ------------------------------------------------------- reserved events

  /// A place in the global (time, seq) order taken before the event's time
  /// and callback are known: the lane and sequence number a schedule_at()
  /// issued at reserve() time would have stamped.
  struct Ticket {
    std::uint64_t seq{~0ull};
    std::size_t lane{0};
  };

  /// Takes the next sequence number in the executing event's lane without
  /// queueing anything. The reserved event is never parallel-safe (the
  /// mark is cleared), and reserving is serial-only.
  [[nodiscard]] Ticket reserve();

  /// Queues `cb` at time t under `tk`'s key: it runs after every event
  /// scheduled before the reservation and before every event at t
  /// scheduled after it. Each ticket is scheduled at most once, and
  /// (t, tk) must not precede the executing event. Reserved events go to
  /// the heap (or the far pool beyond far_bar), never to the same-time
  /// ring, whose FIFO order assumes ascending sequence numbers.
  void schedule_reserved(Ticket tk, SimTime t, Callback cb);

  /// Removes the not-yet-run event schedule_reserved(tk, ...) queued; the
  /// callback is destroyed without running. A linear search of the lane,
  /// meant for queues kept short by their owner.
  void cancel_reserved(Ticket tk);

  // ------------------------------------------------------------- site lanes

  /// Shards the queue into `sites` per-site lanes (plus the control lane 0)
  /// with the given conservative lookahead horizon — normally the
  /// topology's min_cross_site_latency(). Events already queued stay in
  /// lane 0. Called by rpc::Cluster unless BS_SIM_LANES=off.
  void configure_sites(std::size_t sites, SimDuration lookahead);
  [[nodiscard]] std::size_t site_lane_count() const {
    return lanes_.size() - 1;
  }
  [[nodiscard]] SimDuration lookahead() const { return lookahead_; }

  /// Capacity hint from the workload layer: the expected steady-state
  /// number of pending events per site lane. A population-scale workload
  /// (LiteClientPool) declares its size so sharded lanes engage the far
  /// staging ladder up front; RPC-style services never call it and run on
  /// the pure per-lane heaps, which they keep shallow (RPC timeouts queue
  /// one event per timeout duration, not one per call). Engaging the
  /// ladder on an RPC workload cost 10-20% end-to-end when measured (pool
  /// sweeps evicted the service working set), while parking it on a real
  /// million-client population forfeits a 2x win; only the workload knows
  /// which shape it is. Order-independent with configure_sites(); a no-op
  /// below kFarEngage or in single-lane mode.
  void hint_lane_load(std::size_t expected_pending_per_lane);

  /// Schedules `cb` into site `s`'s lane at absolute time `t` — the
  /// cross-site handoff: the event is stamped with the global sequence
  /// counter, so the merged execution order is exactly the single-heap
  /// order. With no site lanes configured this is schedule_at().
  void schedule_on_site(std::size_t site, SimTime t, Callback cb);

  /// Parallel-safe schedule into site `s`'s lane: the event (and every
  /// event it transitively schedules) is marked eligible for the windowed
  /// parallel stepper. Contract — a parallel-safe callback must touch only
  /// state owned by its site, must not log/trace, and a cross-site
  /// schedule_par must carry at least lookahead() of delay.
  void schedule_par(std::size_t site, SimTime t, Callback cb);

  /// Awaitable: suspend and resume in site `s`'s lane after `dt` — how an
  /// RPC envelope crosses the WAN latency matrix into its destination
  /// site's lane.
  auto hop_to_site(std::size_t site, SimDuration dt) {
    struct Awaiter {
      Simulation* s;
      std::size_t site;
      SimDuration dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        s->schedule_on_site(site, s->now() + dt, Callback(ResumeThunk{h}));
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, site, dt};
  }

  /// Cross-lane handoffs stamped so far (serial + windowed).
  [[nodiscard]] std::uint64_t cross_site_handoffs() const {
    return cross_site_handoffs_;
  }

  // --------------------------------------------------------------- threads

  /// Enables the opt-in windowed parallel stepper with `n` worker threads
  /// (0 disables it — the default). Only run() windows; run_until() and
  /// step() always execute serially. Read from BS_SIM_THREADS by
  /// rpc::Cluster.
  void set_worker_threads(unsigned n);
  [[nodiscard]] unsigned worker_threads() const { return workers_; }
  /// Windows executed by the parallel stepper (0 in serial mode).
  [[nodiscard]] std::uint64_t windows_run() const { return windows_run_; }

  // ------------------------------------------------------------- execution

  /// Runs events until the queue is empty or stop() is called.
  void run();

  /// Runs all events with time <= t, then advances the clock to t.
  void run_until(SimTime t);

  /// Runs one event; returns false if the queue was empty.
  bool step();

  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Starts a coroutine actor (runs inline until its first suspension) and
  /// tracks its root frame: actors still suspended when the simulation is
  /// destroyed are destroyed with it.
  void spawn(Task<void> t) { root_entry(std::move(t)); }

  /// Live tracked actor roots (spawned, not yet completed).
  [[nodiscard]] std::size_t live_actors() const { return live_roots_; }

  /// Awaitable: suspend the current coroutine for `dt` of simulated time.
  auto delay(SimDuration dt) {
    struct Awaiter {
      Simulation* s;
      SimDuration dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        s->schedule_resume_in(dt, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, dt};
  }

  /// Awaitable: suspend until the given absolute simulated time. A time
  /// already past clamps to a zero-delay reschedule: the waiter re-enters
  /// the same-time FIFO lane at now() and resumes after everything already
  /// queued at the current instant (pinned by the FIFO regression tests).
  auto delay_until(SimTime t) {
    const SimTime n = now();
    return delay(t > n ? t - n : 0);
  }

  /// Installs this simulation's clock as the logger time source.
  void install_log_clock();

  /// Binds `sink` to this simulation's clock and installs it as the
  /// process-wide trace sink (a no-op install under BS_TRACE=OFF). Pair
  /// with detach_trace() — or use obs::ScopedTrace — when the simulation
  /// outlives the sink.
  void attach_trace(obs::TraceSink& sink);
  /// Uninstalls the process-wide trace sink.
  static void detach_trace();

 private:
  struct ResumeThunk {
    std::coroutine_handle<> h;
    void operator()() const { h.resume(); }
  };
  // Every coroutine wakeup goes through this thunk; it degrading to the
  // heap-fallback path would silently reintroduce an allocation per resume.
  static_assert(InlineCallback::fits_inline<ResumeThunk>(),
                "coroutine resume thunk must fit InlineCallback inline");

  // ------------------------------------------------------------ event queue

  /// Bit 63 of an event's sequence word marks it parallel-safe; ordering
  /// always compares the masked value, so the mark never perturbs the
  /// global (time, seq) total order.
  static constexpr std::uint64_t kParBit = 1ull << 63;
  static constexpr std::uint64_t kSeqMask = kParBit - 1;
  static constexpr std::uint64_t kNoSeq = ~0ull;

  /// Heap key: 24 bytes, trivially movable. The callback body lives in
  /// lane.slots[slot]; sifting never touches it.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;  ///< kParBit | sequence
    std::uint32_t slot;
  };
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return (a.seq & kSeqMask) < (b.seq & kSeqMask);
  }

  /// Same-time FIFO lane entry (time is implicitly the lane's current
  /// time — now_ in serial mode, the worker's local clock in a window).
  struct NowEvent {
    std::uint64_t seq;
    Callback cb;
  };

  /// Stage-rung entry: key and callback together, consumed sequentially.
  struct FarEntry {
    SimTime time;
    std::uint64_t seq;
    Callback cb;
  };

  /// Far-pool key. The pool is stored as parallel arrays — 16-byte keys
  /// apart from the 56-byte callbacks — so the refill scans touch 4 keys
  /// per cache line and never drag callback bodies through the cache.
  /// Consumed entries become tombstones (time = kInfinite, seq = kNoSeq)
  /// and both arrays compact only once half the pool is dead, making the
  /// per-event move count O(1) amortized.
  struct FarKey {
    SimTime time;
    std::uint64_t seq;
  };

  /// One per-site event shard. Four tiers, one (time, seq) order:
  ///  * ring  — FIFO of events at the current time (implicit time).
  ///  * stage — the current ladder rung: the chunk of far-pool events below
  ///            far_bar, sorted by (time, masked seq) at refill time and
  ///            consumed by a sequential cursor. Pops are a linear read
  ///            with the callback inline — no sift, no slot indirection.
  ///            (Gathering bodies at refill, not pop, is deliberate: the
  ///            rung's scattered far-pool reads miss the cache either way,
  ///            but a tight gather loop keeps those misses back-to-back
  ///            where the prefetcher can overlap them, while a pop-time
  ///            fetch would eat one isolated cold miss per event.)
  ///  * heap  — 4-ary heap + slot pool for LATE insertions: events
  ///            scheduled after the rung was built whose time still falls
  ///            below far_bar. Usually a few percent of traffic, so it
  ///            stays tiny and cache-resident.
  ///  * far   — unsorted staging pool for everything beyond far_bar; only
  ///            exists in sharded mode (the single-lane oracle keeps the
  ///            pure PR-5 heap) and only once the workload engages it via
  ///            hint_lane_load(). When the near tiers drain, a refill cuts
  ///            the half-pool of earliest far events into the stage with
  ///            nth_element and advances far_bar — each event is appended
  ///            once and moved ~once, instead of sifting through a
  ///            million-entry heap.
  /// Invariant: far_bar rises monotonically; every stage and heap entry was
  /// placed with time < far_bar and every far entry with time >= far_bar,
  /// so min(ring, stage front, heap root) is the true lane head whenever a
  /// near tier is non-empty.
  struct Lane {
    std::vector<HeapEntry> heap;  // 4-ary implicit heap (late insertions)
    std::vector<Callback> slots;  // heap callback bodies
    std::vector<std::uint32_t> free_slots;
    std::vector<NowEvent> ring;   // power-of-two capacity
    std::vector<FarKey> far_keys;     // unsorted, beyond far_bar
    std::vector<Callback> far_cbs;    // parallel to far_keys
    std::size_t far_dead{0};          // tombstones awaiting compaction
    std::vector<FarEntry> stage;  // sorted rung, consumed via stage_head
    std::vector<HeapEntry> stage_keys;  // refill scratch: sortable 24B keys
    std::size_t stage_head{0};
    std::size_t ring_head{0};
    std::size_t ring_size{0};
    /// Near/far boundary. kInfinite means the ladder is parked (pool
    /// empty, everything routes to the heap); engage_far() lowers it once
    /// the workload hints a large population, and afterwards it only rises.
    SimTime far_bar{simtime::kInfinite};
    SimTime head_time{simtime::kInfinite};  ///< cached min key (masked seq)
    std::uint64_t head_seq{kNoSeq};
    std::size_t untagged{0};  ///< events without the parallel-safe mark
  };

  [[nodiscard]] std::uint64_t next_seq(bool par) {
    const std::uint64_t s = seq_++;
    return par ? (s | kParBit) : s;
  }
  [[nodiscard]] std::size_t site_lane(std::size_t site) const {
    if (lanes_.size() == 1) return 0;
    return site + 1 < lanes_.size() ? site + 1 : 0;
  }

  static void heap_push(Lane& ln, SimTime t, std::uint64_t seq, Callback cb);
  /// Pops the lane's heap root; returns its callback (slot recycled) and
  /// the entry key. Does NOT refresh the head cache.
  static Callback heap_pop(Lane& ln, SimTime* t, std::uint64_t* seq);
  static void sift_up(Lane& ln, std::size_t i);
  static void sift_down(Lane& ln, std::size_t i);
  /// Removes the queued event with masked sequence `seq` from the heap,
  /// stage or far pool (destroying its callback). False if not found.
  static bool remove_queued(Lane& ln, std::uint64_t seq);

  static void far_push(Lane& ln, SimTime t, std::uint64_t seq, Callback cb);
  /// Cuts the earliest half of the far pool into the stage rung with
  /// nth_element and advances far_bar to the first excluded key's time.
  /// Guarantees at least one event moves when the far pool is non-empty.
  static void refill(Lane& ln);
  /// Hinted per-lane load at or above which hint_lane_load() engages the
  /// far ladders. Below it the pure per-lane heap is both faster and far
  /// gentler on the workload's working set (no pool sweeps).
  static constexpr std::size_t kFarEngage = 16384;
  /// Engages a lane's far ladder: lowers far_bar from kInfinite to just
  /// above every queued near key — the lowest bar that preserves
  /// "stage and heap keys < far_bar <= far keys" with the pool empty, so
  /// all traffic beyond it builds the ladder. Idempotent.
  static void engage_far(Lane& ln);

  /// Which near tier peek_near() found the lane minimum in.
  enum NearSource : int { kFromRing = 0, kFromHeap = 1, kFromStage = 2 };
  [[nodiscard]] static bool near_empty(const Lane& ln) {
    return ln.ring_size == 0 && ln.heap.empty() &&
           ln.stage_head == ln.stage.size();
  }
  /// Live (non-tombstone) far-pool population.
  [[nodiscard]] static std::size_t far_live(const Lane& ln) {
    return ln.far_keys.size() - ln.far_dead;
  }
  /// Smallest (time, masked seq) key across the near tiers (`at` is the
  /// implicit ring time). Returns the owning tier, or -1 when all empty.
  static int peek_near(const Lane& ln, SimTime at, SimTime* t,
                       std::uint64_t* masked_seq);
  /// Pops the entry peek_near() selected; returns its callback and raw key.
  /// Does NOT refresh the head cache.
  static Callback pop_near(Lane& ln, int src, SimTime at, SimTime* t,
                           std::uint64_t* seq);

  static void ring_push(Lane& ln, SimTime at, std::uint64_t seq, Callback cb);
  static Callback ring_pop(Lane& ln, std::uint64_t* seq);
  [[nodiscard]] static std::uint64_t ring_front_seq(const Lane& ln) {
    return ln.ring[ln.ring_head].seq & kSeqMask;
  }
  static void ring_grow(Lane& ln);

  /// Refreshes lane `lane`'s cached head key from the ring front / heap
  /// root and resyncs its heads_ mirror entry. `at` is the time every ring
  /// entry carries (the lane's current time).
  void recompute_head(std::size_t lane, SimTime at);
  /// Copies a lane's cached head into the dense heads_ mirror.
  void sync_head(std::size_t lane) {
    const Lane& ln = lanes_[lane];
    heads_[lane] = HeadKey{ln.head_time, ln.head_seq};
  }
  static void maybe_raise_head(Lane& ln, SimTime t, std::uint64_t seq) {
    const std::uint64_t m = seq & kSeqMask;
    if (t < ln.head_time || (t == ln.head_time && m < ln.head_seq)) {
      ln.head_time = t;
      ln.head_seq = m;
    }
  }

  /// Enqueues into `lane` at time t (ring when t <= now_). Serial only.
  void push_event(std::size_t lane, SimTime t, std::uint64_t seq,
                  Callback cb);
  /// Lane index holding the globally smallest head key, or lanes_.size()
  /// when every lane is empty.
  [[nodiscard]] std::size_t best_lane() const;

  /// Drops every queued event without running it (teardown).
  void clear_queue() noexcept;

  // -------------------------------------------------------- parallel window
  // Implemented in lane_runtime.cpp (the only threaded file in src/sim).

  struct ParRuntime;
  friend struct ParRuntime;

  [[nodiscard]] bool windowed() const {
    return workers_ != 0 && lanes_.size() > 2;
  }
  /// True on a worker thread inside a parallel window — schedule_* calls
  /// then route through the lane-local par_* paths.
  [[nodiscard]] bool in_worker() const {
    return par_active_ && detail::t_lane_run != nullptr;
  }
  /// One windowed iteration: runs a parallel window when eligible, else a
  /// single serial step. Returns false when the queue is empty.
  bool window_or_step();
  /// Worker-context scheduling (routed from schedule_* when par_active_).
  void par_schedule_current(SimTime t, Callback cb);
  void par_schedule_site(std::size_t site, SimTime t, Callback cb);
  void par_schedule_resume(std::coroutine_handle<> h);
  void shutdown_workers() noexcept;

  // ---------------------------------------------------------- tracked roots

  /// Self-destroying detached root that registers itself with the owning
  /// simulation for the duration of the actor's life, so ~Simulation can
  /// destroy actors still suspended mid-flight.
  struct RootTask {
    struct promise_type : detail::PooledFrame {
      Simulation* sim{nullptr};
      promise_type* prev{nullptr};
      promise_type* next{nullptr};

      promise_type(Simulation& s, Task<void>&) : sim(&s) {
        next = sim->roots_;
        if (next != nullptr) next->prev = this;
        sim->roots_ = this;
        ++sim->live_roots_;
      }
      ~promise_type() {
        if (prev != nullptr) {
          prev->next = next;
        } else {
          sim->roots_ = next;
        }
        if (next != nullptr) next->prev = prev;
        --sim->live_roots_;
      }

      RootTask get_return_object() const noexcept { return {}; }
      std::suspend_never initial_suspend() const noexcept { return {}; }
      struct FinalAwaiter {
        bool await_ready() const noexcept { return false; }
        void await_suspend(
            std::coroutine_handle<promise_type> h) const noexcept {
          h.destroy();  // unlinks via ~promise_type
        }
        void await_resume() const noexcept {}
      };
      FinalAwaiter final_suspend() const noexcept { return {}; }
      void return_void() const noexcept {}
      [[noreturn]] void unhandled_exception() const { std::terminate(); }
    };
  };

  RootTask root_entry(Task<void> t) { co_await std::move(t); }

  /// 16-byte copy of each lane's cached head key. best_lane() runs once
  /// per serial step, and scanning one flat array touches 2-3 cache lines
  /// for a 9-site deployment instead of one — usually cold — line per
  /// Lane struct. The Lane fields stay the source of truth: the mirror is
  /// resynced wherever a head can change under the serial stepper
  /// (push_event, recompute_head, clear_queue); inside a parallel window
  /// workers mutate only their own Lane's head, and the barrier resyncs
  /// every drained lane via recompute_head before the next best_lane().
  struct HeadKey {
    SimTime time{simtime::kInfinite};
    std::uint64_t seq{kNoSeq};
  };

  std::vector<Lane> lanes_;  ///< lane 0 = control; 1..S = sites
  std::vector<HeadKey> heads_;  ///< parallel to lanes_
  SimTime now_{0};
  std::uint64_t seq_{0};
  std::uint64_t processed_{0};
  std::uint64_t cross_site_handoffs_{0};
  std::uint64_t windows_run_{0};
  SimDuration lookahead_{simtime::kInfinite};
  std::size_t lane_load_hint_{0};  ///< hint_lane_load(), kept for reconfigure
  std::size_t exec_lane_{0};  ///< lane of the event currently executing
  bool exec_par_{false};      ///< it carries the parallel-safe mark
  bool par_active_{false};    ///< a parallel window is in flight
  bool stopped_{false};
  unsigned workers_{0};
  ParRuntime* par_{nullptr};  // owned; deleted by shutdown_workers()
  RootTask::promise_type* roots_{nullptr};
  std::size_t live_roots_{0};
};

}  // namespace bs::sim
