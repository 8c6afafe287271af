// Heap-allocation budgets of the simulator's waits and error values,
// counted by the global operator new replacement in bench/alloc_probe.hpp
// (included by this translation unit only). Every scenario runs once to
// warm the frame pool and the event queue's buffers, then again under the
// probe: parking one waiter on an Event, WaitGroup or Semaphore, copying an
// Error with fixed text, and an admission-rejected RPC attempt must not
// need the heap beyond the pinned budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "alloc_probe.hpp"
#include "common/result.hpp"
#include "rpc/rpc.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "test_util.hpp"

namespace bs::sim {
namespace {

/// Heap allocations made while `f` runs.
template <class F>
std::uint64_t allocs_during(F&& f) {
  const std::uint64_t before = bench::alloc_probe::allocations();
  std::forward<F>(f)();
  return bench::alloc_probe::allocations() - before;
}

/// Runs `scenario` once to warm up, then returns the allocations of a
/// second run.
template <class F>
std::uint64_t steady_allocs(F scenario) {
  scenario();
  return allocs_during(scenario);
}

Task<void> wait_event(Event& ev, int& woken) {
  co_await ev.wait();
  ++woken;
}

Task<void> wait_group(WaitGroup& wg, int& woken) {
  co_await wg.wait();
  ++woken;
}

Task<void> acquire(Semaphore& sem, int& woken) {
  co_await sem.acquire();
  ++woken;
}

TEST(SyncAlloc, EventWithoutWaitersNeverAllocates) {
  Simulation sim;
  EXPECT_EQ(allocs_during([&] {
              Event ev(sim);
              ev.set();
              ev.set();
            }),
            0u);
}

TEST(SyncAlloc, EventWithOneWaiterNeverAllocates) {
  Simulation sim;
  int woken = 0;
  const auto n = steady_allocs([&] {
    Event ev(sim);
    sim.spawn(wait_event(ev, woken));
    sim.run();
    ev.set();
    sim.run();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(woken, 2);
}

TEST(SyncAlloc, WaitGroupWithOneWaiterNeverAllocates) {
  Simulation sim;
  int woken = 0;
  const auto n = steady_allocs([&] {
    WaitGroup wg(sim);
    wg.add(1);
    sim.spawn(wait_group(wg, woken));
    sim.run();
    wg.done();
    sim.run();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(woken, 2);
}

TEST(SyncAlloc, SemaphoreWithOneWaiterNeverAllocates) {
  Simulation sim;
  int woken = 0;
  const auto n = steady_allocs([&] {
    Semaphore sem(sim, 1);
    sim.spawn(acquire(sem, woken));  // takes the free permit
    sim.spawn(acquire(sem, woken));  // parks
    sim.run();
    sem.release();
    sim.run();
    sem.release();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(woken, 4);
}

TEST(SyncAlloc, SecondWaiterSpillsOnce) {
  Simulation sim;
  int woken = 0;
  const auto n = steady_allocs([&] {
    Event ev(sim);
    for (int i = 0; i < 4; ++i) sim.spawn(wait_event(ev, woken));
    sim.run();
    ev.set();
    sim.run();
  });
  // Waiters 2..4 share one spill ring.
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(woken, 8);
}

TEST(ErrorAlloc, LiteralMessageCopiesAndMovesWithoutAllocating) {
  bool same_text = false;
  bool failed = false;
  const auto n = allocs_during([&] {
    Error e{Errc::blocked, "client is blocked by the self-protection layer"};
    Error copy = e;
    Error moved = std::move(copy);
    Result<void> r(Errc::throttled, "client exceeds throttle rate");
    Result<void> r_copy = r;
    Result<void> r_moved = std::move(r_copy);
    Result<int> v = moved;
    Result<int> v_copy = v;
    same_text = v_copy.error().message == e.message.view();
    failed = !r_moved.ok();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(same_text);
  EXPECT_TRUE(failed);
}

TEST(ErrorAlloc, RuntimeTextIsOwned) {
  std::string text(40, 'x');
  Error e{Errc::internal, text};
  text.assign(40, 'y');
  EXPECT_EQ(e.message, std::string(40, 'x'));
  EXPECT_EQ(e.to_string(), "internal: " + std::string(40, 'x'));
}

struct PingReq {
  static constexpr const char* kName = "test.ping";
  std::uint64_t wire_size() const { return 64; }
};
struct PingResp {
  std::uint64_t wire_size() const { return 16; }
};

TEST(RpcAlloc, AdmissionRejectedAttemptBudget) {
  Simulation sim;
  rpc::Cluster cluster(sim, net::Topology::grid5000());
  rpc::Node* server = cluster.add_node(0);
  rpc::Node* client = cluster.add_node(1);
  server->serve<PingReq, PingResp>(
      [](const PingReq&, const rpc::Envelope&) -> Task<Result<PingResp>> {
        co_return PingResp{};
      });
  server->set_admission([](const rpc::Envelope&, const char*) -> Result<void> {
    return Error{Errc::blocked, "client is blocked"};
  });
  rpc::CallOptions opts;
  opts.client = ClientId{7};
  auto attempt = [&] {
    auto r = test::run_task(
        sim, cluster.call<PingReq, PingResp>(*client, server->id(), PingReq{},
                                             opts));
    sim.run();  // no-op: the settled attempt withdrew its timeout event
    EXPECT_EQ(r.code(), Errc::blocked);
  };
  attempt();
  attempt();
  // The request object and the shared call state; the rejection itself,
  // its error text and the settled result move without the heap.
  EXPECT_EQ(allocs_during(attempt), 2u);
}

}  // namespace
}  // namespace bs::sim
