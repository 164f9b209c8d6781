#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>

#include "util/time.hpp"
#include "util/units.hpp"

namespace ccp {
namespace {

TEST(Duration, Constructors) {
  EXPECT_EQ(Duration::from_nanos(1500).nanos(), 1500);
  EXPECT_EQ(Duration::from_micros(3).nanos(), 3000);
  EXPECT_EQ(Duration::from_millis(2).micros(), 2000);
  EXPECT_EQ(Duration::from_secs(1).millis(), 1000);
  EXPECT_DOUBLE_EQ(Duration::from_secs_f(0.25).secs(), 0.25);
  EXPECT_TRUE(Duration::zero().is_zero());
  EXPECT_FALSE(Duration::from_nanos(1).is_zero());
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::from_millis(10);
  const Duration b = Duration::from_millis(4);
  EXPECT_EQ((a + b).millis(), 14);
  EXPECT_EQ((a - b).millis(), 6);
  EXPECT_TRUE((b - a).is_negative());
  EXPECT_EQ((a * 2.5).millis(), 25);
  EXPECT_EQ((a / 2).millis(), 5);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
}

TEST(Duration, Comparisons) {
  EXPECT_LT(Duration::from_micros(1), Duration::from_micros(2));
  EXPECT_EQ(Duration::from_micros(1000), Duration::from_millis(1));
  EXPECT_GT(Duration::max(), Duration::from_secs(1'000'000));
}

TEST(Duration, CompoundAssignment) {
  Duration d = Duration::from_millis(1);
  d += Duration::from_millis(2);
  EXPECT_EQ(d.millis(), 3);
  d -= Duration::from_millis(1);
  EXPECT_EQ(d.millis(), 2);
}

TEST(TimePoint, Arithmetic) {
  const TimePoint t0 = TimePoint::epoch();
  const TimePoint t1 = t0 + Duration::from_millis(5);
  EXPECT_EQ((t1 - t0).millis(), 5);
  EXPECT_EQ((t1 - Duration::from_millis(5)), t0);
  EXPECT_LT(t0, t1);
  TimePoint t2 = t0;
  t2 += Duration::from_secs(1);
  EXPECT_DOUBLE_EQ(t2.secs(), 1.0);
}

TEST(Duration, DoubleConversionsSaturate) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Duration::from_nanos_f(1e300), Duration::max());
  EXPECT_EQ(Duration::from_nanos_f(inf), Duration::max());
  EXPECT_EQ(Duration::from_nanos_f(-1e300), Duration::min());
  EXPECT_EQ(Duration::from_nanos_f(std::nan("")), Duration::zero());
  // 2^63 itself is out of range; the largest double below it is not.
  EXPECT_EQ(Duration::from_nanos_f(9223372036854775808.0), Duration::max());
  EXPECT_EQ(Duration::from_nanos_f(9223372036854774784.0).nanos(),
            9223372036854774784LL);
  EXPECT_EQ(Duration::from_nanos_f(1500.9).nanos(), 1500);
  EXPECT_EQ(Duration::from_millis(10) * 1e300, Duration::max());
  EXPECT_EQ(Duration::from_millis(10) * inf, Duration::max());
  EXPECT_EQ(Duration::from_millis(10) * -inf, Duration::min());
  EXPECT_EQ(Duration::from_millis(10) * 2.5, Duration::from_millis(25));
  EXPECT_EQ(Duration::from_secs_f(1e300), Duration::max());
}

TEST(TimePoint, DeadlineAdditionSaturates) {
  const TimePoint now = TimePoint::epoch() + Duration::from_secs(5);
  EXPECT_EQ(now + Duration::max(), TimePoint::max());
  EXPECT_EQ(TimePoint::max() + Duration::from_nanos(1), TimePoint::max());
  EXPECT_LT(now - Duration::max(), TimePoint::epoch());
  EXPECT_EQ((now - Duration::max()) - Duration::max(),
            TimePoint::from_nanos(std::numeric_limits<int64_t>::min()));
  TimePoint t = now;
  t += Duration::max();
  EXPECT_EQ(t, TimePoint::max());
  // In-range arithmetic is unchanged.
  EXPECT_EQ((now + Duration::from_millis(3)).nanos(), 5'003'000'000);
}

TEST(TimePoint, MonotonicNowAdvances) {
  const TimePoint a = monotonic_now();
  const TimePoint b = monotonic_now();
  EXPECT_GE(b.nanos(), a.nanos());
}

TEST(Units, ParseBandwidth) {
  EXPECT_DOUBLE_EQ(parse_bandwidth_bps("10Gbps"), 10e9);
  EXPECT_DOUBLE_EQ(parse_bandwidth_bps("1 Gbit/s"), 1e9);
  EXPECT_DOUBLE_EQ(parse_bandwidth_bps("250Mbps"), 250e6);
  EXPECT_DOUBLE_EQ(parse_bandwidth_bps("64kbps"), 64e3);
  EXPECT_DOUBLE_EQ(parse_bandwidth_bps("1e9 bps"), 1e9);
  EXPECT_DOUBLE_EQ(parse_bandwidth_bps("100"), 100.0);
  EXPECT_THROW(parse_bandwidth_bps("10 potatoes"), std::invalid_argument);
  EXPECT_THROW(parse_bandwidth_bps("fast"), std::invalid_argument);
}

TEST(Units, ParseDuration) {
  EXPECT_EQ(parse_duration("10ms").millis(), 10);
  EXPECT_EQ(parse_duration("48us").micros(), 48);
  EXPECT_EQ(parse_duration("100ns").nanos(), 100);
  EXPECT_EQ(parse_duration("2s").millis(), 2000);
  EXPECT_EQ(parse_duration("1.5ms").micros(), 1500);
  EXPECT_THROW(parse_duration("10 fortnights"), std::invalid_argument);
}

TEST(Units, ParseBytes) {
  EXPECT_EQ(parse_bytes("1500B"), 1500u);
  EXPECT_EQ(parse_bytes("64KB"), 64'000u);
  EXPECT_EQ(parse_bytes("1.5MB"), 1'500'000u);
  EXPECT_THROW(parse_bytes("12 parsecs"), std::invalid_argument);
}

TEST(Units, Format) {
  EXPECT_EQ(format_bandwidth(9.41e9), "9.41 Gbit/s");
  EXPECT_EQ(format_bandwidth(250e6), "250.00 Mbit/s");
  EXPECT_EQ(format_duration(Duration::from_micros(48)), "48.0 us");
  EXPECT_EQ(format_duration(Duration::from_millis(10)), "10.00 ms");
  EXPECT_EQ(format_bytes(1500), "1.50 KB");
}

struct RoundTripCase {
  const char* text;
  double bps;
};

// Names each case by its input text: gtest_discover_tests labels value-
// parameterized cases with the printed parameter, and the default byte dump
// would include the string pointer, which changes from run to run.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.text; }

class BandwidthRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(BandwidthRoundTrip, ParsesToExpected) {
  EXPECT_DOUBLE_EQ(parse_bandwidth_bps(GetParam().text), GetParam().bps);
}

INSTANTIATE_TEST_SUITE_P(
    AllUnits, BandwidthRoundTrip,
    ::testing::Values(RoundTripCase{"1bps", 1.0}, RoundTripCase{"1kbps", 1e3},
                      RoundTripCase{"1Mbps", 1e6}, RoundTripCase{"1Gbps", 1e9},
                      RoundTripCase{"2.5Gbit", 2.5e9},
                      RoundTripCase{"0.5 Mbit/s", 0.5e6}));

}  // namespace
}  // namespace ccp
