// Reserved events: Simulation::reserve() takes a place in the global
// (time, seq) order that schedule_reserved() fills later. A reserved event
// at time t runs after every event scheduled before the reservation and
// before every event at t scheduled after it, in every queue shape: the
// single-lane heap, sharded per-site lanes, and lanes whose far ladder is
// engaged. cancel_reserved() removes one without running it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace bs::sim {
namespace {

enum class Mode { single_lane, sharded, ladder };

class ReservedEvents : public ::testing::TestWithParam<Mode> {
 protected:
  ReservedEvents() {
    // A simulation without configure_sites() is the single-lane oracle
    // (what site_lanes=false selects in rpc::Cluster).
    if (GetParam() == Mode::single_lane) return;
    sim_.configure_sites(3, simtime::millis(5));
    // Far above the ladder's engage threshold: every lane stages its
    // future events through the far pool and stage rungs.
    if (GetParam() == Mode::ladder) sim_.hint_lane_load(std::size_t{1} << 20);
  }

  /// Runs `fn` as an event in site 1's lane at time `t`.
  template <class F>
  void at_site(SimTime t, F fn) {
    sim_.schedule_on_site(1, t, std::move(fn));
  }

  auto log(int id) {
    return [this, id] { order_.push_back(id); };
  }

  Simulation sim_;
  std::vector<int> order_;
};

TEST_P(ReservedEvents, RingEventsAtNow) {
  at_site(simtime::millis(1), [this] {
    sim_.schedule_at(sim_.now(), log(1));
    const Simulation::Ticket tk = sim_.reserve();
    sim_.schedule_at(sim_.now(), log(3));
    sim_.schedule_reserved(tk, sim_.now(), log(2));
    EXPECT_EQ(sim_.pending(), 3u);
  });
  sim_.run();
  EXPECT_EQ(order_, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim_.now(), simtime::millis(1));
}

TEST_P(ReservedEvents, LaterTimesAndDeferredSchedule) {
  Simulation::Ticket early{};
  Simulation::Ticket deferred{};
  at_site(simtime::millis(1), [&] {
    const SimTime t = simtime::millis(10);
    sim_.schedule_at(t, log(1));
    sim_.schedule_at(simtime::millis(20), log(7));
    early = sim_.reserve();
    sim_.schedule_at(t, log(3));
    deferred = sim_.reserve();
    sim_.schedule_at(t, log(5));
    sim_.schedule_on_site(2, t, log(6));
    sim_.schedule_reserved(early, t, log(2));
    // The second reservation is filled by a later event, the way a timeout
    // FIFO arms its next entry when the previous one fires.
    sim_.schedule_at(simtime::millis(5), [&, t] {
      order_.push_back(0);
      sim_.schedule_reserved(deferred, t, log(4));
    });
  });
  sim_.run();
  EXPECT_EQ(order_, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sim_.now(), simtime::millis(20));
}

TEST_P(ReservedEvents, CancelledEventNeverRuns) {
  Simulation::Ticket tk{};
  at_site(simtime::millis(1), [&] {
    tk = sim_.reserve();
    sim_.schedule_reserved(tk, simtime::millis(5), log(1));
    sim_.schedule_at(simtime::millis(7), log(2));
  });
  sim_.run_until(simtime::millis(2));
  EXPECT_EQ(sim_.pending(), 2u);
  sim_.cancel_reserved(tk);
  EXPECT_EQ(sim_.pending(), 1u);
  sim_.run();
  EXPECT_EQ(order_, (std::vector<int>{2}));
  EXPECT_EQ(sim_.now(), simtime::millis(7));
}

TEST_P(ReservedEvents, CancellingTheLastEventEmptiesTheQueue) {
  // The cancelled event is the head of another lane than the one running.
  at_site(simtime::millis(1), [this] {
    const Simulation::Ticket tk = sim_.reserve();
    sim_.schedule_reserved(tk, simtime::seconds(30), log(1));
    sim_.schedule_on_site(2, simtime::millis(3), [this, tk] {
      sim_.cancel_reserved(tk);
    });
  });
  sim_.run();
  EXPECT_TRUE(order_.empty());
  EXPECT_EQ(sim_.pending(), 0u);
  EXPECT_EQ(sim_.now(), simtime::millis(3));
}

TEST_P(ReservedEvents, CancellingAnotherLanesHeadRestoresItsHead) {
  at_site(simtime::millis(1), [this] {
    const Simulation::Ticket tk = sim_.reserve();
    sim_.schedule_reserved(tk, simtime::millis(5), log(1));
    sim_.schedule_at(simtime::millis(10), log(3));
    sim_.schedule_on_site(2, simtime::millis(3), [this, tk] {
      sim_.cancel_reserved(tk);
      sim_.schedule_at(simtime::millis(7), log(2));
    });
  });
  sim_.run();
  // A stale 5 ms head on site 1's lane would run the 10 ms event first.
  EXPECT_EQ(order_, (std::vector<int>{2, 3}));
  EXPECT_EQ(sim_.now(), simtime::millis(10));
}

// Property: with plain and reserved events interleaved over many ties and
// three lanes, execution order is exactly (time, issue order), and
// cancelled reservations vanish without a trace.
TEST_P(ReservedEvents, MatchesIssueOrderAtScale) {
  constexpr int kEvents = 20000;
  std::vector<std::pair<SimTime, int>> expected;
  at_site(simtime::millis(1), [&] {
    std::uint64_t lcg = 12345;
    std::vector<std::pair<Simulation::Ticket, std::pair<SimTime, int>>> held;
    for (int i = 0; i < kEvents; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      const SimTime t = sim_.now() + simtime::millis(static_cast<double>(
                                         (lcg >> 33) % 50));
      if (i % 4 == 0) {
        held.push_back({sim_.reserve(), {t, i}});
      } else {
        sim_.schedule_on_site(static_cast<std::size_t>(i % 3), t, log(i));
      }
      if (i % 8 != 4) expected.emplace_back(t, i);
    }
    for (const auto& [tk, key] : held) {
      sim_.schedule_reserved(tk, key.first, log(key.second));
    }
    // Every other reservation is withdrawn before anything runs.
    for (std::size_t k = 1; k < held.size(); k += 2) {
      sim_.cancel_reserved(held[k].first);
    }
  });
  sim_.run();
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<int> want;
  want.reserve(expected.size());
  for (const auto& e : expected) want.push_back(e.second);
  EXPECT_EQ(order_, want);
  EXPECT_EQ(sim_.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllQueueShapes, ReservedEvents,
    ::testing::Values(Mode::single_lane, Mode::sharded, Mode::ladder),
    [](const ::testing::TestParamInfo<Mode>& info) {
      switch (info.param) {
        case Mode::single_lane: return "SingleLane";
        case Mode::sharded: return "Sharded";
        case Mode::ladder: return "Ladder";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace bs::sim
