// Transport abstraction between the CCP agent and a datapath.
//
// A transport carries whole frames (message boundaries preserved). Three
// implementations:
//   - UnixSocketTransport: SOCK_SEQPACKET socketpair, works across fork();
//     this is the paper's "Unix domain socket" IPC (Figure 2).
//   - ShmRingTransport: shared-memory SPSC ring with either busy-poll or
//     eventfd-blocking receive; stands in for the paper's Netlink channel
//     (see DESIGN.md substitutions). Busy-poll sends make no syscall.
//   - InProcTransport: lock-protected queue pair for tests and for
//     threads within one process.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace ccp::ipc {

/// Callback receiving one frame's bytes during drain_frames(). The span
/// is only valid for the duration of the call.
using FrameSink = std::function<void(std::span<const uint8_t>)>;

/// Why a transport stopped working. `closed()` collapses both failure
/// states to true; status() lets a supervisor distinguish "the peer went
/// away, reconnect with backoff" (PeerDisconnected) from "the channel
/// itself broke" (Error).
enum class TransportStatus : uint8_t {
  Ok = 0,
  PeerDisconnected = 1,  // orderly close / EPIPE / ECONNRESET
  Error = 2,             // unexpected socket or channel failure
};

const char* transport_status_name(TransportStatus s);

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one frame. Returns false if the peer is gone or the channel is
  /// full beyond recovery; the caller decides whether to drop or retry.
  virtual bool send_frame(std::span<const uint8_t> frame) = 0;

  /// Blocks until a frame arrives, the timeout elapses (nullopt result),
  /// or the peer closes (also nullopt; use `closed()` to distinguish).
  virtual std::optional<std::vector<uint8_t>> recv_frame(
      std::optional<Duration> timeout) = 0;

  /// Non-blocking receive.
  virtual std::optional<std::vector<uint8_t>> try_recv_frame() = 0;

  /// Non-blocking batched receive: invokes `sink` on every frame already
  /// queued and returns the count. Unlike try_recv_frame() in a loop this
  /// pays the channel's synchronization cost once per batch (one
  /// lock/unlock, one head/tail round-trip, ...), and hands frames out as
  /// borrowed spans instead of fresh vectors — the steady-state receive
  /// path allocates nothing once scratch capacities settle.
  virtual size_t drain_frames(const FrameSink& sink) = 0;

  virtual bool closed() const = 0;

  /// Health of the channel. The default derives it from closed(); concrete
  /// transports override to report *why* they closed.
  virtual TransportStatus status() const {
    return closed() ? TransportStatus::PeerDisconnected : TransportStatus::Ok;
  }
};

/// Pass-through decorator owning an inner transport. Every call forwards
/// verbatim; subclasses override the calls they want to intercept. This is
/// the injection seam the resilience FaultInjector uses to drop, delay,
/// or corrupt frames without the wrapped transport knowing.
class FilterTransport : public Transport {
 public:
  explicit FilterTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  bool send_frame(std::span<const uint8_t> frame) override {
    return inner_->send_frame(frame);
  }
  std::optional<std::vector<uint8_t>> recv_frame(
      std::optional<Duration> timeout) override {
    return inner_->recv_frame(timeout);
  }
  std::optional<std::vector<uint8_t>> try_recv_frame() override {
    return inner_->try_recv_frame();
  }
  size_t drain_frames(const FrameSink& sink) override {
    return inner_->drain_frames(sink);
  }
  bool closed() const override { return inner_->closed(); }
  TransportStatus status() const override { return inner_->status(); }

  Transport& inner() { return *inner_; }
  const Transport& inner() const { return *inner_; }

 protected:
  std::unique_ptr<Transport> inner_;
};

/// Both ends of a bidirectional channel.
struct TransportPair {
  std::unique_ptr<Transport> a;
  std::unique_ptr<Transport> b;
};

/// SOCK_SEQPACKET Unix socketpair. Endpoints remain usable in parent and
/// child after fork() (each side must close the end it does not use by
/// simply destroying it).
TransportPair make_unix_socket_pair();

/// In-process queue pair (thread-safe).
TransportPair make_inproc_pair();

/// How the receiving side of a shm ring waits for data.
enum class ShmWaitMode {
  Blocking,  // eventfd wakeup: sleeps in the kernel, like Netlink recv;
             // every send rings the eventfd
  BusyPoll,  // spins on the ring head: models a dedicated/hot core (§2.3);
             // nothing waits on the eventfd, so sending never rings it
};

/// Shared-memory ring channel (anonymous shared mapping; usable across
/// fork()). `capacity_bytes` is per direction and rounded up to a power
/// of two. Unlike the socket pair, destroying either endpoint closes the
/// channel for both sides, so after fork() each process keeps both
/// endpoint objects alive while its peer runs (a child leaves with
/// _exit()).
TransportPair make_shm_ring_pair(size_t capacity_bytes, ShmWaitMode mode);

/// Path-based SOCK_SEQPACKET listener, so out-of-process tools (e.g.
/// ccp_stats) can attach to a running agent/datapath. accept() wraps each
/// connection in the same frame-preserving transport as the socketpair.
class UnixListener {
 public:
  /// Binds and listens on `path` (unlinking any stale socket first).
  /// Throws std::runtime_error on failure.
  explicit UnixListener(std::string path);
  ~UnixListener();
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Waits up to `timeout` (forever if nullopt) for a connection; returns
  /// nullptr on timeout or after close().
  std::unique_ptr<Transport> accept(std::optional<Duration> timeout);

  const std::string& path() const { return path_; }
  /// Unblocks any accept() in progress and stops accepting.
  void close();

 private:
  std::string path_;
  // Atomic: close() may run on another thread to unblock accept().
  std::atomic<int> fd_{-1};
};

/// Connects to a UnixListener at `path`; nullptr if nobody is listening.
std::unique_ptr<Transport> unix_connect(const std::string& path);

}  // namespace ccp::ipc
