#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <random>
#include <thread>

#include "ipc/transport.hpp"
#include "telemetry/telemetry.hpp"

namespace ccp::ipc {
namespace {

std::vector<uint8_t> bytes(std::initializer_list<uint8_t> list) { return list; }

enum class Kind { Unix, InProc, ShmBlocking, ShmBusy };

TransportPair make(Kind kind) {
  switch (kind) {
    case Kind::Unix: return make_unix_socket_pair();
    case Kind::InProc: return make_inproc_pair();
    case Kind::ShmBlocking: return make_shm_ring_pair(1 << 16, ShmWaitMode::Blocking);
    case Kind::ShmBusy: return make_shm_ring_pair(1 << 16, ShmWaitMode::BusyPoll);
  }
  return {};
}

class TransportTest : public ::testing::TestWithParam<Kind> {};

TEST_P(TransportTest, SendThenReceive) {
  auto pair = make(GetParam());
  auto msg = bytes({1, 2, 3, 4, 5});
  ASSERT_TRUE(pair.a->send_frame(msg));
  auto got = pair.b->recv_frame(Duration::from_secs(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, msg);
}

TEST_P(TransportTest, BothDirections) {
  auto pair = make(GetParam());
  ASSERT_TRUE(pair.a->send_frame(bytes({1})));
  ASSERT_TRUE(pair.b->send_frame(bytes({2})));
  auto at_b = pair.b->recv_frame(Duration::from_secs(1));
  auto at_a = pair.a->recv_frame(Duration::from_secs(1));
  ASSERT_TRUE(at_b.has_value());
  ASSERT_TRUE(at_a.has_value());
  EXPECT_EQ((*at_b)[0], 1);
  EXPECT_EQ((*at_a)[0], 2);
}

TEST_P(TransportTest, PreservesBoundariesAndOrder) {
  auto pair = make(GetParam());
  for (uint8_t i = 0; i < 50; ++i) {
    std::vector<uint8_t> frame(i + 1, i);
    ASSERT_TRUE(pair.a->send_frame(frame));
  }
  for (uint8_t i = 0; i < 50; ++i) {
    auto got = pair.b->recv_frame(Duration::from_secs(1));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->size(), static_cast<size_t>(i + 1));
    EXPECT_EQ((*got)[0], i);
  }
}

TEST_P(TransportTest, TryRecvNonBlocking) {
  auto pair = make(GetParam());
  EXPECT_FALSE(pair.b->try_recv_frame().has_value());
  ASSERT_TRUE(pair.a->send_frame(bytes({9})));
  // A frame may take an instant to land on threaded transports.
  std::optional<std::vector<uint8_t>> got;
  for (int i = 0; i < 1000 && !got; ++i) {
    got = pair.b->try_recv_frame();
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ((*got)[0], 9);
}

TEST_P(TransportTest, RecvTimesOut) {
  auto pair = make(GetParam());
  const TimePoint before = monotonic_now();
  auto got = pair.b->recv_frame(Duration::from_millis(30));
  EXPECT_FALSE(got.has_value());
  EXPECT_GE((monotonic_now() - before).millis(), 25);
}

TEST_P(TransportTest, LargeFrame) {
  auto pair = make(GetParam());
  std::vector<uint8_t> big(32 * 1024);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i * 31);
  ASSERT_TRUE(pair.a->send_frame(big));
  auto got = pair.b->recv_frame(Duration::from_secs(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, big);
}

TEST_P(TransportTest, ThreadedPingPong) {
  auto pair = make(GetParam());
  constexpr int kRounds = 500;
  std::thread echo([&] {
    for (int i = 0; i < kRounds; ++i) {
      auto got = pair.b->recv_frame(Duration::from_secs(5));
      if (!got) break;
      pair.b->send_frame(*got);
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    std::vector<uint8_t> msg = {static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8)};
    ASSERT_TRUE(pair.a->send_frame(msg));
    auto got = pair.a->recv_frame(Duration::from_secs(5));
    ASSERT_TRUE(got.has_value()) << "round " << i;
    ASSERT_EQ(*got, msg);
  }
  echo.join();
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportTest,
                         ::testing::Values(Kind::Unix, Kind::InProc,
                                           Kind::ShmBlocking, Kind::ShmBusy),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::Unix: return "Unix";
                             case Kind::InProc: return "InProc";
                             case Kind::ShmBlocking: return "ShmBlocking";
                             case Kind::ShmBusy: return "ShmBusy";
                           }
                           return "?";
                         });

TEST(UnixTransport, PeerCloseUnblocksReceiver) {
  auto pair = make_unix_socket_pair();
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pair.a.reset();
  });
  auto got = pair.b->recv_frame(Duration::from_secs(5));
  EXPECT_FALSE(got.has_value());
  EXPECT_TRUE(pair.b->closed());
  closer.join();
}

TEST(UnixTransport, PeerCloseReportsDisconnectedStatus) {
  // EOF from the peer must surface as an explicit PeerDisconnected
  // status, not a generic close — the supervisor keys its reconnect
  // logic off this distinction (docs/RESILIENCE.md).
  auto pair = make_unix_socket_pair();
  EXPECT_EQ(pair.b->status(), TransportStatus::Ok);
  pair.a.reset();
  // Status latches when the receive path observes the hangup.
  auto got = pair.b->recv_frame(Duration::from_secs(1));
  EXPECT_FALSE(got.has_value());
  EXPECT_TRUE(pair.b->closed());
  EXPECT_EQ(pair.b->status(), TransportStatus::PeerDisconnected);
}

TEST(UnixTransport, SendToGonePeerReportsDisconnectedStatus) {
  auto pair = make_unix_socket_pair();
  pair.b.reset();
  // EPIPE/ECONNRESET on send (possibly after a buffered success) must
  // latch PeerDisconnected too.
  bool any_failed = false;
  for (int i = 0; i < 64 && !any_failed; ++i) {
    any_failed = !pair.a->send_frame(bytes({1, 2, 3}));
  }
  EXPECT_TRUE(any_failed);
  EXPECT_EQ(pair.a->status(), TransportStatus::PeerDisconnected);
}

TEST(TransportStatusNames, AreStable) {
  EXPECT_STREQ(transport_status_name(TransportStatus::Ok), "ok");
  EXPECT_STREQ(transport_status_name(TransportStatus::PeerDisconnected),
               "peer_disconnected");
  EXPECT_STREQ(transport_status_name(TransportStatus::Error), "error");
}

TEST(ShmRing, FullRingRejectsWithoutCorruption) {
  auto pair = make_shm_ring_pair(4096, ShmWaitMode::BusyPoll);
  std::vector<uint8_t> frame(1000, 0x5a);
  int accepted = 0;
  while (pair.a->send_frame(frame)) ++accepted;
  EXPECT_GT(accepted, 1);
  // Drain and verify every accepted frame intact.
  for (int i = 0; i < accepted; ++i) {
    auto got = pair.b->try_recv_frame();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, frame);
  }
  EXPECT_FALSE(pair.b->try_recv_frame().has_value());
  // Space freed: sending works again.
  EXPECT_TRUE(pair.a->send_frame(frame));
}

uint64_t doorbells() { return telemetry::metrics().ipc_doorbells.value(); }

TEST(ShmTransport, BusyPollNeverRings) {
  auto pair = make_shm_ring_pair(1 << 16, ShmWaitMode::BusyPoll);
  const uint64_t before = doorbells();
  constexpr int kFrames = 10000;
  const FrameSink ignore = [](std::span<const uint8_t>) {};
  for (int i = 0; i < kFrames; ++i) {
    const auto msg = bytes({static_cast<uint8_t>(i), 7, 7, 7});
    ASSERT_TRUE(pair.a->send_frame(msg));
    ASSERT_TRUE(pair.b->send_frame(msg));
    // Every receive flavour: blocking, non-blocking, batched.
    if (i % 3 == 0) {
      ASSERT_TRUE(pair.b->recv_frame(Duration::from_secs(1)).has_value());
      ASSERT_TRUE(pair.a->recv_frame(Duration::from_secs(1)).has_value());
    } else if (i % 3 == 1) {
      ASSERT_TRUE(pair.b->try_recv_frame().has_value());
      ASSERT_TRUE(pair.a->try_recv_frame().has_value());
    } else {
      ASSERT_EQ(pair.b->drain_frames(ignore) + pair.a->drain_frames(ignore), 2u);
    }
  }
  EXPECT_EQ(doorbells(), before);
}

TEST(ShmTransport, BlockingRingsEverySend) {
  // A Blocking receiver may be asleep in poll() on the eventfd, so
  // every send on a Blocking pair writes it.
  auto pair = make_shm_ring_pair(1 << 16, ShmWaitMode::Blocking);
  const uint64_t before = doorbells();
  constexpr int kRounds = 200;
  std::thread echo([&] {
    for (int i = 0; i < kRounds; ++i) {
      auto got = pair.b->recv_frame(Duration::from_secs(5));
      if (!got) break;
      pair.b->send_frame(*got);
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(pair.a->send_frame(bytes({static_cast<uint8_t>(i)})));
    auto got = pair.a->recv_frame(Duration::from_secs(5));
    ASSERT_TRUE(got.has_value()) << "round " << i;
    ASSERT_EQ((*got)[0], static_cast<uint8_t>(i));
  }
  echo.join();
  EXPECT_EQ(doorbells() - before, 2u * kRounds);
}

// Lost-wakeup stress: both directions at once, each with a producer
// sending seeded random bursts separated by 0-50 us pauses. A lost
// doorbell leaves the consumer asleep until its poll() deadline, which
// shows up as a receive that waited out its whole timeout.
//
// A wakeup can only be lost on the last frame before the producer goes
// quiet, when it lands just as the consumer finds its ring empty and
// goes to sleep. So after every other burst the producer probes that
// window: it spins until the consumer is on the burst's last frame,
// pauses 0-1 us, sends one frame alone and waits for it to be received
// — a lost doorbell stalls the probe for the consumer's full timeout.
TEST(ShmTransport, NoLostWakeupUnderBurstyTraffic) {
  constexpr uint64_t kFrames = 200000;
  constexpr uint64_t kMaxInFlight = 4096;
  const Duration kTimeout = Duration::from_secs(2);
  auto pair = make_shm_ring_pair(1 << 20, ShmWaitMode::Blocking);

  struct Direction {
    Transport* tx;
    Transport* rx;
    uint64_t seed;
    std::atomic<uint64_t> received{0};
    std::atomic<bool> failed{false};
    uint64_t timeouts = 0;
    uint64_t out_of_order = 0;
  };
  Direction dirs[2] = {{pair.a.get(), pair.b.get(), 0x5eed0001},
                       {pair.b.get(), pair.a.get(), 0x5eed0002}};

  auto spin_until = [](auto&& done) {
    for (int spins = 0; !done(); ++spins) {
      if (spins > (1 << 14)) std::this_thread::yield();
    }
  };
  auto pause = [&](Duration d) {
    const TimePoint until = monotonic_now() + d;
    spin_until([&] { return monotonic_now() >= until; });
  };
  auto produce = [&](Direction& d) {
    std::mt19937_64 rng(d.seed);
    auto send = [&](uint64_t seq) {
      std::vector<uint8_t> frame(8 + seq % 24, static_cast<uint8_t>(seq));
      std::memcpy(frame.data(), &seq, sizeof(seq));
      if (d.tx->send_frame(frame)) return true;
      d.failed.store(true);
      return false;
    };
    uint64_t seq = 0;
    while (seq < kFrames && !d.failed.load()) {
      const uint64_t burst = std::min<uint64_t>(1 + rng() % 64, kFrames - seq);
      spin_until([&] {
        return seq - d.received.load() <= kMaxInFlight || d.failed.load();
      });
      for (uint64_t i = 0; i < burst; ++i) {
        if (!send(seq++)) return;
      }
      if (rng() % 2 == 0 && seq < kFrames) {
        spin_until([&] { return d.received.load() + 1 >= seq || d.failed.load(); });
        pause(Duration::from_nanos(static_cast<int64_t>(rng() % 1001)));
        if (!send(seq++)) return;
        spin_until([&] { return d.received.load() == seq || d.failed.load(); });
      }
      pause(Duration::from_nanos(static_cast<int64_t>(rng() % 50001)));
    }
  };
  auto consume = [&](Direction& d) {
    for (uint64_t expect = 0; expect < kFrames; ++expect) {
      const TimePoint start = monotonic_now();
      auto got = d.rx->recv_frame(kTimeout);
      // A frame the final opportunistic pop found after the deadline
      // still counts as a timeout: its doorbell was lost.
      if (!got || monotonic_now() - start >= kTimeout) {
        ++d.timeouts;
        d.failed.store(true);
        return;
      }
      uint64_t seq = ~uint64_t{0};
      if (got->size() >= sizeof(seq)) std::memcpy(&seq, got->data(), sizeof(seq));
      if (seq != expect) {
        ++d.out_of_order;
        d.failed.store(true);
        return;
      }
      d.received.store(expect + 1);
    }
  };

  std::vector<std::thread> threads;
  for (Direction& d : dirs) {
    threads.emplace_back(produce, std::ref(d));
    threads.emplace_back(consume, std::ref(d));
  }
  for (auto& t : threads) t.join();
  for (const Direction& d : dirs) {
    EXPECT_FALSE(d.failed.load());
    EXPECT_EQ(d.received.load(), kFrames);
    EXPECT_EQ(d.timeouts, 0u);
    EXPECT_EQ(d.out_of_order, 0u);
  }
}

// make_shm_ring_pair promises fork() support: the rings and the closed
// flag live in the MAP_SHARED mapping, and both processes inherit the
// eventfds. The child echoes over a Blocking pair, so every reply
// crosses the process boundary through the eventfd doorbell.
TEST(ShmRing, EchoAcrossFork) {
  constexpr int kFrames = 2000;
  auto pair = make_shm_ring_pair(1 << 16, ShmWaitMode::Blocking);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: echo on b. Leave with _exit so neither endpoint's
    // destructor marks the channel closed under the parent.
    for (int i = 0; i < kFrames; ++i) {
      auto got = pair.b->recv_frame(Duration::from_secs(5));
      if (!got) ::_exit(2);
      if (!pair.b->send_frame(*got)) ::_exit(3);
    }
    ::_exit(0);
  }
  for (int i = 0; i < kFrames; ++i) {
    std::vector<uint8_t> msg(1 + i % 200, static_cast<uint8_t>(i));
    msg[0] = static_cast<uint8_t>(i >> 8);
    ASSERT_TRUE(pair.a->send_frame(msg));
    auto got = pair.a->recv_frame(Duration::from_secs(5));
    ASSERT_TRUE(got.has_value()) << "round " << i;
    ASSERT_EQ(*got, msg);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(InProcTransport, CloseDrainsRemainingFrames) {
  auto pair = make_inproc_pair();
  pair.a->send_frame(bytes({1}));
  pair.a->send_frame(bytes({2}));
  pair.a.reset();  // peer gone, but queued frames must still deliver
  auto f1 = pair.b->try_recv_frame();
  auto f2 = pair.b->try_recv_frame();
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_TRUE(pair.b->closed());
}

}  // namespace
}  // namespace ccp::ipc
