// Plumbing shared by the deployed-shape benchmark: clocks, the
// single-producer/single-consumer tag FIFOs that pair every frame with
// its origin without decoding it, and CPU pinning.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/profiler.hpp"

namespace ccpbench {

// Timestamps are the profiler's cycle counter (invariant TSC on x86-64):
// cheap enough to take per ACK in the traced run and comparable across
// cores, so one thread can subtract another thread's stamp. TickRate
// converts them to time once per run.
using ccp::telemetry::prof_cycles;

inline double mono_secs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double thread_cpu_secs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Ticks-per-nanosecond from two (tick, monotonic) pairs taken far apart.
struct TickRate {
  uint64_t t0 = 0, t1 = 0;
  double s0 = 0, s1 = 0;
  void start() { s0 = mono_secs(); t0 = prof_cycles(); }
  void stop() { s1 = mono_secs(); t1 = prof_cycles(); }
  double per_ns() const {
    return static_cast<double>(t1 - t0) / std::max((s1 - s0) * 1e9, 1.0);
  }
};

/// Bounded SPSC ring of trivially copyable records. The producer may
/// retract its newest record as long as the consumer cannot have reached
/// it — the FrameTx wrappers push a tag before send_frame and retract it
/// when the transport refuses the frame, so the consumer (which pops one
/// tag per frame it actually received) never sees a refused frame's tag.
template <typename T>
class SpscFifo {
 public:
  explicit SpscFifo(size_t capacity_pow2)
      : buf_(capacity_pow2), mask_(capacity_pow2 - 1) {}

  bool push(const T& v) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) > mask_) return false;
    buf_[tail & mask_] = v;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }
  void retract() {
    tail_.store(tail_.load(std::memory_order_relaxed) - 1,
                std::memory_order_release);
  }
  bool pop(T& out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    out = buf_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

 private:
  std::vector<T> buf_;
  uint64_t mask_;
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

/// CPUs this process may run on, in id order.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the calling thread to one CPU; a negative id leaves it unpinned.
inline bool pin_this_thread(int cpu) {
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

/// Time spent in one instrumented call site: total ticks and call count.
struct Span {
  uint64_t ticks = 0;
  uint64_t calls = 0;
  void add(uint64_t dt) { ticks += dt; ++calls; }
  double ns_per_call(double tpn) const {
    return calls == 0 ? 0.0 : static_cast<double>(ticks) / tpn / calls;
  }
};

}  // namespace ccpbench
