// Reproduces Figure 2: "CDF of RTT between a Linux kernel module and
// user-space (using Netlink sockets) and between two user-space processes
// (using Unix domain sockets)."
//
// Substitutions (see DESIGN.md): we cannot load a kernel module, so the
// Netlink role — a lower-overhead channel than Unix sockets — is played
// by a shared-memory ring with an eventfd doorbell (blocking pairs
// only; a busy-poll send makes no syscall). The paper's second
// effect (IPC gets *faster* under high CPU utilization, because Intel
// TurboBoost keeps the core clocked up and the receiver never takes a
// scheduler wakeup) is reproduced by eliminating the wakeup: busy-poll
// receivers when a second CPU exists, otherwise a same-thread
// send/receive alternation that measures the pure mechanism cost.
//
// Method (matches the paper): 60,000 ping-pong round trips per
// configuration; report the CDF.
#include <cstdio>
#include <thread>

#include "bench/bench_common.hpp"
#include "ipc/transport.hpp"
#include "util/quantiles.hpp"

namespace {

using namespace ccp;

constexpr int kSamples = 60000;

SampleSet measure_threaded(ipc::Transport& client, ipc::Transport& server,
                           int samples) {
  std::thread echo([&server, samples] {
    for (int i = 0; i < samples; ++i) {
      auto frame = server.recv_frame(Duration::from_secs(10));
      if (!frame) break;
      server.send_frame(*frame);
    }
  });

  SampleSet rtts;
  rtts.reserve(samples);
  // A CCP report-sized payload: 8 fold registers plus headers.
  std::vector<uint8_t> payload(96, 0x42);
  for (int i = 0; i < samples; ++i) {
    const TimePoint start = monotonic_now();
    client.send_frame(payload);
    auto reply = client.recv_frame(Duration::from_secs(10));
    const TimePoint end = monotonic_now();
    if (!reply) break;
    rtts.add(static_cast<double>((end - start).nanos()) / 1000.0);  // us
  }
  echo.join();
  return rtts;
}

/// Same-thread alternation: client sends, "server" side echoes inline,
/// client receives. No scheduler involvement at all — the mechanism-only
/// floor, analogous to the paper's hot-core measurements.
SampleSet measure_inline(ipc::Transport& client, ipc::Transport& server,
                         int samples) {
  SampleSet rtts;
  rtts.reserve(samples);
  std::vector<uint8_t> payload(96, 0x42);
  for (int i = 0; i < samples; ++i) {
    const TimePoint start = monotonic_now();
    client.send_frame(payload);
    auto at_server = server.try_recv_frame();
    if (at_server) server.send_frame(*at_server);
    auto reply = client.try_recv_frame();
    const TimePoint end = monotonic_now();
    if (!reply) break;
    rtts.add(static_cast<double>((end - start).nanos()) / 1000.0);
  }
  return rtts;
}

void report(const char* name, const SampleSet& rtts) {
  std::printf("%-40s n=%zu min=%6.1f p50=%6.1f p90=%6.1f p99=%6.1f max=%8.1f (us)\n",
              name, rtts.count(), rtts.min(), rtts.quantile(0.5),
              rtts.quantile(0.9), rtts.quantile(0.99), rtts.max());
}

void print_cdf(const char* name, const SampleSet& rtts) {
  std::printf("\nCDF points for %s (percentile, us):\n", name);
  for (int p : {1, 5, 10, 25, 50, 75, 90, 95, 99}) {
    std::printf("  %3d%%  %8.2f\n", p, rtts.quantile(p / 100.0));
  }
}

}  // namespace

int main() {
  bench::banner("Figure 2 (reproduction)",
                "CDF of IPC round-trip time across transports and wait modes");
  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("host: %u cpu(s); %d samples per configuration\n", cpus, kSamples);

  bench::section("blocking receivers (paper: 'CPU is idle' — wakeup included)");
  auto unix_pair = ipc::make_unix_socket_pair();
  const SampleSet unix_blocking =
      measure_threaded(*unix_pair.a, *unix_pair.b, kSamples);
  report("unix socket, blocking", unix_blocking);

  auto shm_block = ipc::make_shm_ring_pair(1 << 20, ipc::ShmWaitMode::Blocking);
  const SampleSet shm_blocking =
      measure_threaded(*shm_block.a, *shm_block.b, kSamples);
  report("shm ring + eventfd (netlink role)", shm_blocking);

  bench::section("no scheduler wakeup (paper: 'high CPU utilization + TurboBoost')");
  SampleSet hot_unix, hot_shm;
  if (cpus >= 2) {
    // Genuine cross-core busy polling.
    auto shm_spin = ipc::make_shm_ring_pair(1 << 20, ipc::ShmWaitMode::BusyPoll);
    hot_shm = measure_threaded(*shm_spin.a, *shm_spin.b, kSamples);
    report("shm ring, busy-poll (cross-core)", hot_shm);
    auto unix_pair2 = ipc::make_unix_socket_pair();
    hot_unix = measure_inline(*unix_pair2.a, *unix_pair2.b, kSamples);
    report("unix socket, no-wakeup (inline)", hot_unix);
  } else {
    // Single CPU: two spinning threads would measure the scheduler
    // quantum, not IPC. Measure the wakeup-free mechanism cost inline.
    auto unix_pair2 = ipc::make_unix_socket_pair();
    hot_unix = measure_inline(*unix_pair2.a, *unix_pair2.b, kSamples);
    report("unix socket, no-wakeup (inline)", hot_unix);
    auto shm_inline = ipc::make_shm_ring_pair(1 << 20, ipc::ShmWaitMode::BusyPoll);
    hot_shm = measure_inline(*shm_inline.a, *shm_inline.b, kSamples);
    report("shm ring, no-wakeup (inline)", hot_shm);
  }

  print_cdf("unix socket, blocking", unix_blocking);
  print_cdf("shm ring + eventfd, blocking", shm_blocking);
  print_cdf("unix socket, no-wakeup", hot_unix);
  print_cdf("shm ring, no-wakeup", hot_shm);

  bench::section("paper comparison");
  std::printf(
      "Paper: idle-CPU p99 was 48 us (netlink) / 80 us (unix sockets); under\n"
      "load with TurboBoost, p99 dropped to 18 us / 35 us. Shape to check:\n"
      "(1) the cheaper channel beats unix sockets at the tail;\n"
      "(2) removing the scheduler wakeup shrinks the tail further;\n"
      "(3) everything is negligible vs a 10 ms WAN RTT (S2.3).\n");
  std::printf("Measured p99: unix %.1f -> %.1f us; shm %.1f -> %.1f us "
              "(blocking -> no-wakeup)\n",
              unix_blocking.quantile(0.99), hot_unix.quantile(0.99),
              shm_blocking.quantile(0.99), hot_shm.quantile(0.99));
  return 0;
}
