#include <sys/eventfd.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <poll.h>
#include <stdexcept>

#include "ipc/shm_ring.hpp"
#include "ipc/transport.hpp"
#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"

namespace ccp::ipc {
namespace {

size_t round_up_pow2(size_t v) {
  size_t p = 64;
  while (p < v) p <<= 1;
  return p;
}

/// Shared channel state: two rings (a->b and b->a) plus one eventfd
/// doorbell per direction for blocking waits. Mapped MAP_SHARED so both
/// sides of a fork see the same memory. Reference-counted by the two
/// transport endpoints within one process; across processes each side
/// holds its own mapping of the same pages.
struct ShmChannel {
  void* mem = nullptr;
  size_t mem_size = 0;
  ShmRing ring_ab;
  ShmRing ring_ba;
  int event_ab = -1;  // signaled when ring_ab gains data (Blocking only)
  int event_ba = -1;
  std::atomic<bool>* closed = nullptr;  // lives in the shared mapping

  ~ShmChannel() {
    if (event_ab >= 0) ::close(event_ab);
    if (event_ba >= 0) ::close(event_ba);
    if (mem != nullptr) ::munmap(mem, mem_size);
  }
};

class ShmTransport final : public Transport {
 public:
  ShmTransport(std::shared_ptr<ShmChannel> ch, bool is_a, ShmWaitMode mode)
      : ch_(std::move(ch)), is_a_(is_a), mode_(mode) {}

  ~ShmTransport() override {
    ch_->closed->store(true, std::memory_order_release);
    ring_doorbell(tx_event());
  }

  bool send_frame(std::span<const uint8_t> frame) override {
    if (ch_->closed->load(std::memory_order_acquire)) return false;
    if (!tx().push(frame)) {  // ring full: caller drops/retries
      if (telemetry::enabled()) telemetry::metrics().ipc_ring_full.inc();
      CCP_WARN("shm ring full: dropping %zu-byte frame (backpressure)",
               frame.size());
      return false;
    }
    if (telemetry::enabled()) {
      telemetry::metrics().ipc_ring_used_bytes.set(
          static_cast<int64_t>(tx().bytes_used()));
    }
    // Only a Blocking receiver ever waits on the eventfd. The mode is
    // per channel, so a BusyPoll send makes no syscall.
    if (mode_ == ShmWaitMode::Blocking) {
      ring_doorbell(tx_event());
      if (telemetry::enabled()) telemetry::metrics().ipc_doorbells.inc();
    }
    return true;
  }

  std::optional<std::vector<uint8_t>> recv_frame(
      std::optional<Duration> timeout) override {
    const TimePoint deadline =
        timeout.has_value() ? monotonic_now() + *timeout : TimePoint::max();
    for (;;) {
      if (auto frame = rx().pop()) return frame;
      if (ch_->closed->load(std::memory_order_acquire)) return std::nullopt;
      if (mode_ == ShmWaitMode::BusyPoll) {
        if (monotonic_now() >= deadline) return std::nullopt;
        // Spin: models a dedicated core polling the ring (§2.3's
        // low-latency option; also how TurboBoost keeps the core hot).
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#else
        std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
        continue;
      }
      // Blocking: wait on the doorbell with the remaining timeout.
      const Duration remain = deadline - monotonic_now();
      if (timeout.has_value() && remain <= Duration::zero()) return std::nullopt;
      struct pollfd pfd{rx_event(), POLLIN, 0};
      const int ms = timeout.has_value()
                         ? static_cast<int>(std::max<int64_t>(1, remain.millis()))
                         : -1;
      int r;
      do {
        r = ::poll(&pfd, 1, ms);
      } while (r < 0 && errno == EINTR);
      if (r == 0) {
        // Timed out waiting for the doorbell; one more opportunistic pop.
        if (auto frame = rx().pop()) return frame;
        if (timeout.has_value()) return std::nullopt;
      }
      if (r > 0) drain_doorbell(rx_event());
    }
  }

  std::optional<std::vector<uint8_t>> try_recv_frame() override {
    auto frame = rx().pop();
    if (frame.has_value() && mode_ == ShmWaitMode::Blocking) {
      drain_doorbell(rx_event());
    }
    return frame;
  }

  size_t drain_frames(const FrameSink& sink) override {
    const size_t n = rx().drain(drain_scratch_, sink);
    if (n > 0) {
      if (mode_ == ShmWaitMode::Blocking) drain_doorbell(rx_event());
      if (telemetry::enabled()) telemetry::metrics().ipc_drain_batch.record(n);
    }
    return n;
  }

  bool closed() const override {
    return ch_->closed->load(std::memory_order_acquire) && rx().empty();
  }

 private:
  ShmRing& tx() { return is_a_ ? ch_->ring_ab : ch_->ring_ba; }
  ShmRing& rx() { return is_a_ ? ch_->ring_ba : ch_->ring_ab; }
  const ShmRing& rx() const { return is_a_ ? ch_->ring_ba : ch_->ring_ab; }
  int tx_event() const { return is_a_ ? ch_->event_ab : ch_->event_ba; }
  int rx_event() const { return is_a_ ? ch_->event_ba : ch_->event_ab; }

  static void ring_doorbell(int fd) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof(one));
  }
  static void drain_doorbell(int fd) {
    uint64_t counter;
    [[maybe_unused]] ssize_t n = ::read(fd, &counter, sizeof(counter));
  }

  std::shared_ptr<ShmChannel> ch_;
  bool is_a_;
  ShmWaitMode mode_;
  std::vector<uint8_t> drain_scratch_;  // staging for wrap-point records
};

}  // namespace

TransportPair make_shm_ring_pair(size_t capacity_bytes, ShmWaitMode mode) {
  const size_t cap = round_up_pow2(std::max<size_t>(capacity_bytes, 4096));
  const size_t ring_bytes = ShmRing::mapping_size(cap);
  // Layout: [ring a->b][ring b->a][closed flag]
  const size_t total = 2 * ring_bytes + sizeof(std::atomic<bool>);

  void* mem = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    throw std::runtime_error(std::string("mmap: ") + std::strerror(errno));
  }

  auto ch = std::make_shared<ShmChannel>();
  ch->mem = mem;
  ch->mem_size = total;
  ch->ring_ab = ShmRing::create_in(mem, cap);
  ch->ring_ba = ShmRing::create_in(static_cast<uint8_t*>(mem) + ring_bytes, cap);
  ch->closed = new (static_cast<uint8_t*>(mem) + 2 * ring_bytes) std::atomic<bool>(false);
  ch->event_ab = ::eventfd(0, EFD_NONBLOCK);
  ch->event_ba = ::eventfd(0, EFD_NONBLOCK);
  if (ch->event_ab < 0 || ch->event_ba < 0) {
    throw std::runtime_error(std::string("eventfd: ") + std::strerror(errno));
  }

  // NOTE: the two endpoints share one ShmChannel (and its fds). Across a
  // fork both processes inherit the fds and the shared mapping, so each
  // process simply uses its own endpoint. Destroying an endpoint marks
  // the channel closed for both sides, so a process must not destroy its
  // copy of the peer's endpoint while the peer still talks (a forked
  // child leaves with _exit()).
  return TransportPair{std::make_unique<ShmTransport>(ch, /*is_a=*/true, mode),
                       std::make_unique<ShmTransport>(ch, /*is_a=*/false, mode)};
}

}  // namespace ccp::ipc
