// Wake order of the coroutine sync primitives: every parked waiter resumes
// in the order it parked, whether the queue held one waiter inline or
// spilled into its ring buffer.
#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace bs::sim {
namespace {

std::vector<int> iota(int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) out.push_back(i);
  return out;
}

class SyncOrder : public ::testing::TestWithParam<int> {};

TEST_P(SyncOrder, EventSetWakesWaitersInParkOrder) {
  const int n = GetParam();
  Simulation sim;
  Event ev(sim);
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    sim.spawn([](Event& e, std::vector<int>& out, int id) -> Task<void> {
      co_await e.wait();
      out.push_back(id);
    }(ev, order, i));
  }
  sim.run();
  EXPECT_TRUE(order.empty());
  ev.set();
  sim.run();
  EXPECT_EQ(order, iota(n));
}

TEST_P(SyncOrder, WaitGroupDoneWakesWaitersInParkOrder) {
  const int n = GetParam();
  Simulation sim;
  WaitGroup wg(sim);
  wg.add(1);
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    sim.spawn([](WaitGroup& g, std::vector<int>& out, int id) -> Task<void> {
      co_await g.wait();
      out.push_back(id);
    }(wg, order, i));
  }
  sim.run();
  EXPECT_TRUE(order.empty());
  wg.done();
  sim.run();
  EXPECT_EQ(order, iota(n));
}

TEST_P(SyncOrder, SemaphoreReleasesHandOffInParkOrder) {
  const int n = GetParam();
  Simulation sim;
  Semaphore sem(sim, 0);
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    sim.spawn([](Semaphore& s, std::vector<int>& out, int id) -> Task<void> {
      co_await s.acquire();
      out.push_back(id);
    }(sem, order, i));
  }
  sim.run();
  EXPECT_EQ(sem.waiting(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sem.release();
    // The permit goes straight to the oldest waiter, never to the pool.
    EXPECT_EQ(sem.available(), 0u);
    EXPECT_EQ(sem.waiting(), static_cast<std::size_t>(n - i - 1));
    sim.run();
    EXPECT_EQ(order, iota(i + 1));
  }
  sem.release();
  EXPECT_EQ(sem.available(), 1u);
}

TEST_P(SyncOrder, MailboxPushFeedsParkedReceiversInOrder) {
  const int n = GetParam();
  Simulation sim;
  Mailbox<int> mb(sim);
  std::vector<int> got(n, -1);
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    sim.spawn([](Mailbox<int>& m, std::vector<int>& items,
                 std::vector<int>& out, int id) -> Task<void> {
      items[id] = co_await m.recv();
      out.push_back(id);
    }(mb, got, order, i));
  }
  sim.run();
  for (int i = 0; i < n; ++i) mb.push(100 + i);
  // Every item was handed to a parked receiver; none was queued.
  EXPECT_TRUE(mb.empty());
  sim.run();
  EXPECT_EQ(order, iota(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(got[i], 100 + i);
}

INSTANTIATE_TEST_SUITE_P(Waiters, SyncOrder, ::testing::Values(1, 2, 100));

TEST(SyncOrder, LateAcquirerQueuesBehindHandOff) {
  Simulation sim;
  Semaphore sem(sim, 0);
  std::vector<int> order;
  auto acquirer = [](Semaphore& s, std::vector<int>& out,
                     int id) -> Task<void> {
    co_await s.acquire();
    out.push_back(id);
  };
  sim.spawn(acquirer(sem, order, 0));
  sim.spawn(acquirer(sem, order, 1));
  sim.run();
  sem.release();  // handed to waiter 0, which has not resumed yet
  sim.spawn(acquirer(sem, order, 2));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(sem.waiting(), 2u);
  sem.release();
  sem.release();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(WaiterFifo, MatchesDequeUnderInterleavedPushPop) {
  WaiterFifo<int> fifo;
  std::deque<int> ref;
  int next = 0;
  // Pushes outpace pops in waves, so the ring wraps and grows with its
  // head at every offset, and drains back to the inline slot in between.
  for (int wave = 0; wave < 40; ++wave) {
    const int pushes = 1 + (wave * 7) % 13;
    const int pops = (wave % 5 == 4) ? static_cast<int>(ref.size()) + pushes
                                     : 1 + (wave * 3) % 9;
    for (int i = 0; i < pushes; ++i) {
      fifo.push_back(next);
      ref.push_back(next);
      ++next;
    }
    for (int i = 0; i < pops && !ref.empty(); ++i) {
      ASSERT_EQ(fifo.pop_front(), ref.front());
      ref.pop_front();
    }
    ASSERT_EQ(fifo.size(), ref.size());
    ASSERT_EQ(fifo.empty(), ref.empty());
  }
  while (!ref.empty()) {
    ASSERT_EQ(fifo.pop_front(), ref.front());
    ref.pop_front();
  }
  EXPECT_TRUE(fifo.empty());
}

}  // namespace
}  // namespace bs::sim
