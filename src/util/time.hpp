// Time types shared by the simulator, datapath, and IPC layers.
//
// All simulated time is kept in integer nanoseconds to make event ordering
// exact and runs reproducible. `Duration` and `TimePoint` are thin strong
// types over int64 nanoseconds; mixing them up is a compile error.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>

namespace ccp {

/// A span of time, in integer nanoseconds. Negative durations are allowed
/// as intermediate values (e.g. deadline - now) but never scheduled.
class Duration {
 public:
  constexpr Duration() = default;
  static constexpr Duration from_nanos(int64_t ns) { return Duration(ns); }
  static constexpr Duration from_micros(int64_t us) { return Duration(us * 1000); }
  static constexpr Duration from_millis(int64_t ms) { return Duration(ms * 1'000'000); }
  static constexpr Duration from_secs(int64_t s) { return Duration(s * 1'000'000'000); }
  static constexpr Duration from_secs_f(double s) { return from_nanos_f(s * 1e9); }
  /// Saturating double -> Duration: values past the int64 range clamp to
  /// max()/min() and NaN reads as zero, where a plain cast would be
  /// undefined. This is the conversion for every duration a program
  /// value computes (control waits, watchdog thresholds).
  static constexpr Duration from_nanos_f(double ns) {
    // 2^63 is exact as a double; every double below it fits in int64.
    constexpr double kLimit = 9223372036854775808.0;
    if (ns != ns) return zero();  // NaN
    if (ns >= kLimit) return max();
    if (ns <= -kLimit) return min();
    return Duration(static_cast<int64_t>(ns));
  }
  static constexpr Duration zero() { return Duration(0); }
  static constexpr Duration max() {
    return Duration(std::numeric_limits<int64_t>::max());
  }
  static constexpr Duration min() {
    return Duration(std::numeric_limits<int64_t>::min());
  }

  constexpr int64_t nanos() const { return ns_; }
  constexpr int64_t micros() const { return ns_ / 1000; }
  constexpr int64_t millis() const { return ns_ / 1'000'000; }
  constexpr double secs() const { return static_cast<double>(ns_) * 1e-9; }

  constexpr bool is_zero() const { return ns_ == 0; }
  constexpr bool is_negative() const { return ns_ < 0; }

  constexpr Duration operator+(Duration o) const { return Duration(ns_ + o.ns_); }
  constexpr Duration operator-(Duration o) const { return Duration(ns_ - o.ns_); }
  /// Saturating (see from_nanos_f).
  constexpr Duration operator*(double k) const {
    return from_nanos_f(static_cast<double>(ns_) * k);
  }
  constexpr Duration operator/(int64_t k) const { return Duration(ns_ / k); }
  constexpr double operator/(Duration o) const {
    return static_cast<double>(ns_) / static_cast<double>(o.ns_);
  }
  Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }
  constexpr auto operator<=>(const Duration&) const = default;

 private:
  constexpr explicit Duration(int64_t ns) : ns_(ns) {}
  int64_t ns_ = 0;
};

/// An instant on the simulation (or monotonic real-time) clock.
class TimePoint {
 public:
  constexpr TimePoint() = default;
  static constexpr TimePoint from_nanos(int64_t ns) { return TimePoint(ns); }
  static constexpr TimePoint epoch() { return TimePoint(0); }
  static constexpr TimePoint max() {
    return TimePoint(std::numeric_limits<int64_t>::max());
  }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double secs() const { return static_cast<double>(ns_) * 1e-9; }

  /// Saturating at max()/the int64 floor: a deadline computed from a
  /// huge program-supplied wait lands on "never", not wrapped into the
  /// past.
  constexpr TimePoint operator+(Duration d) const {
    int64_t r = 0;
    if (__builtin_add_overflow(ns_, d.nanos(), &r)) {
      return d.is_negative() ? TimePoint(std::numeric_limits<int64_t>::min())
                             : max();
    }
    return TimePoint(r);
  }
  constexpr TimePoint operator-(Duration d) const {
    int64_t r = 0;
    if (__builtin_sub_overflow(ns_, d.nanos(), &r)) {
      return d.is_negative() ? max()
                             : TimePoint(std::numeric_limits<int64_t>::min());
    }
    return TimePoint(r);
  }
  constexpr Duration operator-(TimePoint o) const {
    return Duration::from_nanos(ns_ - o.ns_);
  }
  TimePoint& operator+=(Duration d) { return *this = *this + d; }
  constexpr auto operator<=>(const TimePoint&) const = default;

 private:
  constexpr explicit TimePoint(int64_t ns) : ns_(ns) {}
  int64_t ns_ = 0;
};

/// Monotonic wall-clock now, for the real (non-simulated) IPC benchmarks.
inline TimePoint monotonic_now() {
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
  return TimePoint::from_nanos(ns);
}

}  // namespace ccp
