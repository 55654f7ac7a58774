// Unit tests for src/util: RNG, statistics, the number formatter, CSV/table
// writers and the cycle-conversion helpers in types.h.

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/logging.h"
#include "util/number_text.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/trace.h"
#include "util/types.h"

namespace mrts {
namespace {

TEST(Types, ClockConstantsMatchPaper) {
  // Section 5.1: core/CG at 400 MHz, FG at 100 MHz.
  EXPECT_DOUBLE_EQ(kCoreClockHz, 400.0e6);
  EXPECT_DOUBLE_EQ(kFgClockHz, 100.0e6);
  EXPECT_EQ(kFgClockRatio, 4u);
}

TEST(Types, MsToCyclesRoundTrip) {
  EXPECT_EQ(ms_to_cycles(1.0), 400'000u);
  EXPECT_EQ(us_to_cycles(1.0), 400u);
  EXPECT_NEAR(cycles_to_ms(400'000), 1.0, 1e-12);
}

TEST(Types, FgReconfigBandwidthMatchesPaper) {
  // 67584 KB/s: streaming ~83 KB takes ~1.2 ms = ~480k core cycles.
  const Cycles c = fg_reconfig_cycles_for_bytes(83047);
  EXPECT_NEAR(static_cast<double>(c), 480'000.0, 2'000.0);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowIsUnbiasedEnough) {
  Rng rng(99);
  int counts[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.next_below(10)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 10.0, 5.0 * std::sqrt(n / 10.0));
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Ewma, BackPropagationMovesTowardObservation) {
  Ewma e(0.5, 100.0);
  e.observe(200.0);
  EXPECT_DOUBLE_EQ(e.prediction(), 150.0);
  e.observe(200.0);
  EXPECT_DOUBLE_EQ(e.prediction(), 175.0);
}

TEST(Ewma, AlphaOneTracksExactly) {
  Ewma e(1.0, 0.0);
  e.observe(42.0);
  EXPECT_DOUBLE_EQ(e.prediction(), 42.0);
}

TEST(Ewma, ConvergesToConstantSignal) {
  Ewma e(0.3, 0.0);
  for (int i = 0; i < 100; ++i) e.observe(10.0);
  EXPECT_NEAR(e.prediction(), 10.0, 1e-6);
}

TEST(Ewma, AlphaZeroClampsToTinyGain) {
  // alpha <= 0 would freeze the forecast forever; the constructor clamps it
  // to a tiny positive gain instead, so the first observation still nudges
  // the prediction (by alpha * error) rather than being discarded.
  Ewma e(0.0, 100.0);
  EXPECT_DOUBLE_EQ(e.alpha(), 1e-6);
  e.observe(200.0);
  EXPECT_NEAR(e.prediction(), 100.0001, 1e-9);
  EXPECT_EQ(e.observations(), 1u);
}

TEST(Ewma, AlphaOneFirstObservationReplacesInitial) {
  // alpha == 1 is pure tracking: the very first observation overwrites
  // whatever initial prediction the forecast was seeded with.
  Ewma e(1.0, 12345.0);
  EXPECT_DOUBLE_EQ(e.alpha(), 1.0);
  e.observe(-7.5);
  EXPECT_DOUBLE_EQ(e.prediction(), -7.5);
}

TEST(Ewma, AlphaAboveOneClampsToOne) {
  // Gains above 1 would overshoot (oscillate around the signal); they clamp
  // to exact tracking.
  Ewma e(2.5, 10.0);
  EXPECT_DOUBLE_EQ(e.alpha(), 1.0);
  e.observe(20.0);
  EXPECT_DOUBLE_EQ(e.prediction(), 20.0);
}

TEST(Logging, FormatLogLinePinsLayout) {
  // 1234567890 s since the epoch = 2009-02-13 23:31:30 UTC. The format is
  // part of the logger's contract: timestamp (UTC, millisecond), worker
  // tag, level, component, message.
  EXPECT_EQ(format_log_line(1234567890123, "w03", LogLevel::kWarn, "ecu",
                            "impl switched"),
            "[2009-02-13 23:31:30.123] [w03] [WARN] ecu: impl switched");
  EXPECT_EQ(format_log_line(45, "w00", LogLevel::kError, "mpu", ""),
            "[1970-01-01 00:00:00.045] [w00] [ERROR] mpu: ");
}

TEST(Logging, ThreadTagIsStablePerThread) {
  const std::string& tag = log_thread_tag();
  ASSERT_EQ(tag.size(), 3u);
  EXPECT_EQ(tag[0], 'w');
  EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(tag[1])));
  EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(tag[2])));
  // Same thread -> same tag object, every time.
  EXPECT_EQ(&tag, &log_thread_tag());
}

TEST(Means, GeometricAndArithmetic) {
  EXPECT_DOUBLE_EQ(geometric_mean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(arithmetic_mean({2.0, 8.0}), 5.0);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
  EXPECT_DOUBLE_EQ(geometric_mean({1.0, 0.0}), 0.0);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, EscapesCarriageReturns) {
  // RFC 4180: any cell containing CR (not just LF) must be quoted, or a
  // bare \r corrupts the row structure for strict readers.
  EXPECT_EQ(CsvWriter::escape("a\rb"), "\"a\rb\"");
  EXPECT_EQ(CsvWriter::escape("a\r\nb"), "\"a\r\nb\"");
  EXPECT_EQ(CsvWriter::escape("\r"), "\"\r\"");
}

TEST(Csv, InMemoryRows) {
  CsvWriter csv;
  csv.write_header({"a", "b"});
  csv.write_values(1, 2.5);
  EXPECT_EQ(csv.str(), "a,b\n1,2.5\n");
}

TEST(Csv, IntegralDoublesKeepEveryDigit) {
  // Bare %.10g silently rounded integral cycle counts above ~2^33 to ten
  // significant digits. Integral doubles are exact up to 2^53 and must
  // round-trip byte-for-byte through the CSV layer.
  EXPECT_EQ(CsvWriter::to_cell(1099511627777.0), "1099511627777");  // 2^40+1
  EXPECT_EQ(CsvWriter::to_cell(9007199254740991.0), "9007199254740991");
  EXPECT_EQ(CsvWriter::to_cell(0.0), "0");
  EXPECT_EQ(CsvWriter::to_cell(-42.0), "-42");
  // Non-integral values keep the historical %.10g form — the committed
  // figure CSVs depend on its rounding (e.g. fig11's fairness column).
  EXPECT_EQ(CsvWriter::to_cell(2.5), "2.5");
  EXPECT_EQ(CsvWriter::to_cell(3.0596940034), "3.059694003");
}

/// The snprintf rule NumberText replaced in the report, trace and CSV
/// writers: every digit of an integral value below 2^53, "%.10g" otherwise.
std::string reference_number_text(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) &&
      std::fabs(v) < 9007199254740992.0 /* 2^53 */) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.10g", v);
  }
  return buf;
}

TEST(NumberText, MatchesTheSnprintfReference) {
  const double two53 = 9007199254740992.0;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.1, 1.0 / 3.0, 2.5, 1e10, 1e-10,
      two53 - 1, two53, two53 + 2, -(two53 - 1), -two53, -(two53 + 2),
      two53 / 2 + 0.5, -(two53 / 2 + 0.5), 3.0596940034, 123456789.125,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), inf, -inf, nan, -nan};
  Rng rng(53);
  for (int i = 0; i < 25000; ++i) {
    const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
    // Integral below 2^53, of every bit length.
    values.push_back(sign * static_cast<double>(rng.next_below(
                                std::uint64_t{1} << (1 + rng.next_below(53)))));
    // Integral at or above 2^53.
    values.push_back(sign * std::ldexp(static_cast<double>(
                                           1 + rng.next_below(1u << 20)),
                                       53 + static_cast<int>(
                                                rng.next_below(960))));
    // Fractional, across magnitudes.
    values.push_back(sign * rng.uniform01() *
                     std::pow(10.0, static_cast<double>(
                                        rng.uniform_int(-30, 30))));
    // Any bit pattern: subnormals, infinities and NaNs included.
    values.push_back(std::bit_cast<double>(rng.next_u64()));
  }
  for (const double v : values) {
    const std::string expect = reference_number_text(v);
    ASSERT_EQ(NumberText(v).view(), expect) << "bits " << std::hex
                                            << std::bit_cast<std::uint64_t>(v);
    ASSERT_EQ(CsvWriter::to_cell(v), expect);
  }
}

TEST(NumberText, JsonWritersPrintNonFiniteAsZero) {
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    TraceEvent e;
    e.v0 = v;
    e.v1 = 0.25;
    std::ostringstream os;
    write_trace_jsonl(os, {e});
    EXPECT_NE(os.str().find("\"v0\":0,\"v1\":0.25,"), std::string::npos)
        << os.str();
  }
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_values("x", 1);
  t.add_values("longer", 23);
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RejectsWrongWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_mcycles(12'340'000), "12.34");
}

}  // namespace
}  // namespace mrts
