// Tests for the flight recorder (util/trace.h) and the counter registry
// (util/counters.h): event recording, both exporters, the JSONL parser and
// summary, histogram bucketing, deterministic registry merges under the
// parallel sweep engine, and the end-to-end contract that attaching a
// recorder never changes simulation results.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "rts/mrts.h"
#include "rts/rts_interface.h"
#include "sim/app_simulator.h"
#include "sim/sweep_runner.h"
#include "util/counters.h"
#include "util/rng.h"
#include "util/trace.h"
#include "workload/h264_app.h"

namespace mrts {
namespace {

TraceEvent make_event(TraceEventKind kind, Cycles at, Cycles dur = 0) {
  return {kind, kTrackApp, at, dur, 1, 2, 3.5, 4.5};
}

TEST(TraceRecorder, RecordsAndCounts) {
  TraceRecorder rec;
  EXPECT_TRUE(rec.empty());
  rec.record(make_event(TraceEventKind::kBlockBegin, 0));
  rec.record(make_event(TraceEventKind::kBlockEnd, 0, 100));
  rec.record(make_event(TraceEventKind::kBlockEnd, 100, 50));
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.count(TraceEventKind::kBlockEnd), 2u);
  EXPECT_EQ(rec.count(TraceEventKind::kMpuError), 0u);
  rec.clear();
  EXPECT_TRUE(rec.empty());
}

TEST(TraceEventKindNames, RoundTripForEveryKind) {
  for (std::size_t i = 0; i < kNumTraceEventKinds; ++i) {
    const auto kind = static_cast<TraceEventKind>(i);
    const char* name = to_string(kind);
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?");
    const auto back = trace_kind_from_string(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(trace_kind_from_string("no_such_kind").has_value());
}

TEST(TraceEventKindNames, EcuLabelsMatchImplKindNames) {
  // trace.cpp keeps a local copy of the ImplKind names (util must not
  // include rts headers). This pins the two tables together: if
  // to_string(ImplKind) changes, the exporter labels must follow.
  for (std::size_t i = 0; i < kNumImplKinds; ++i) {
    std::vector<TraceEvent> events;
    events.push_back({TraceEventKind::kEcuDecision, kTrackEcu, 0, 0, 0,
                      static_cast<std::uint32_t>(i), 0.0, 0.0});
    std::ostringstream os;
    write_trace_jsonl(os, events);
    EXPECT_NE(os.str().find(to_string(static_cast<ImplKind>(i))),
              std::string::npos)
        << "label missing ImplKind name '"
        << to_string(static_cast<ImplKind>(i)) << "'";
  }
}

TEST(TraceExport, CyclesToMicroseconds) {
  // 400 MHz core clock: 400 cycles = 1 us.
  EXPECT_DOUBLE_EQ(trace_cycles_to_us(400), 1.0);
  EXPECT_DOUBLE_EQ(trace_cycles_to_us(0), 0.0);
  EXPECT_DOUBLE_EQ(trace_cycles_to_us(1), 0.0025);
}

/// Checks that braces/brackets balance outside of string literals — a cheap
/// structural JSON validity test with no external parser dependency.
void expect_balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(TraceExport, ChromeJsonIsStructurallyValid) {
  std::vector<TraceEvent> events;
  events.push_back({TraceEventKind::kBlockEnd, kTrackApp, 0, 1000, 7, 0,
                    12.0, 0.0});
  events.push_back({TraceEventKind::kReconfigStart, kTrackFgBase + 1, 400,
                    480000, 3, 0, 0.0, 0.0});
  events.push_back({TraceEventKind::kOccupancy, kTrackApp, 800, 0, 4, 2, 3.0,
                    1.0});
  events.push_back({TraceEventKind::kMpuError, kTrackMpu, 900, 0, 1, 2,
                    100.5, 98.0});
  // Label text with JSON-hostile characters must be escaped.
  std::ostringstream os;
  write_chrome_trace(os, events);
  const std::string json = os.str();

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  expect_balanced_json(json);
  // Metadata names every referenced track, spans carry ts+dur, occupancy
  // becomes a counter event.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1200"), std::string::npos);  // 480000 cyc = 1200 us
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(TraceExport, ChromeJsonOfEmptyTraceIsValid) {
  std::ostringstream os;
  write_chrome_trace(os, {});
  expect_balanced_json(os.str());
  EXPECT_EQ(os.str().rfind("{\"traceEvents\":[", 0), 0u);
}

TEST(TraceExport, JsonlRoundTripsEveryField) {
  std::vector<TraceEvent> events;
  events.push_back({TraceEventKind::kSelectorEval, kTrackSelector, 123, 0, 9,
                    4, -2.25, 1e9, 7});
  events.push_back({TraceEventKind::kReconfigStart, kTrackCgBase, 400, 60, 1,
                    1, 0.0, 0.0});
  std::ostringstream os;
  write_trace_jsonl(os, events);

  std::istringstream is(os.str());
  std::string line;
  std::size_t i = 0;
  while (std::getline(is, line)) {
    ASSERT_LT(i, events.size());
    const auto parsed = parse_trace_jsonl_line(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->kind, events[i].kind);
    EXPECT_EQ(parsed->track, events[i].track);
    EXPECT_EQ(parsed->at, events[i].at);
    EXPECT_EQ(parsed->duration, events[i].duration);
    EXPECT_EQ(parsed->arg0, events[i].arg0);
    EXPECT_EQ(parsed->arg1, events[i].arg1);
    EXPECT_DOUBLE_EQ(parsed->v0, events[i].v0);
    EXPECT_DOUBLE_EQ(parsed->v1, events[i].v1);
    EXPECT_EQ(parsed->tenant, events[i].tenant);
    ++i;
  }
  EXPECT_EQ(i, events.size());

  // Pre-tenant traces (no "tenant" token) still parse; the field defaults
  // to kUnownedTenant.
  const auto legacy = parse_trace_jsonl_line(
      "{\"kind\":\"block_begin\",\"at\":5,\"dur\":0,\"track\":0,"
      "\"arg0\":1,\"arg1\":2,\"v0\":0,\"v1\":0}");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->tenant, kUnownedTenant);
}

TEST(TraceExport, SummaryAggregatesKindsAndCycleRange) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(TraceEventKind::kBlockBegin, 100));
  events.push_back(make_event(TraceEventKind::kBlockEnd, 100, 900));
  events.push_back(make_event(TraceEventKind::kBlockBegin, 2000));
  std::ostringstream os;
  write_trace_jsonl(os, events);

  std::istringstream is(os.str());
  const TraceSummary summary = summarize_trace_jsonl(is);
  EXPECT_EQ(summary.total_events, 3u);
  EXPECT_EQ(summary.parse_errors, 0u);
  EXPECT_EQ(summary.per_kind[static_cast<std::size_t>(
                TraceEventKind::kBlockBegin)],
            2u);
  EXPECT_EQ(summary.first_cycle, 100u);
  EXPECT_EQ(summary.last_cycle, 2000u);  // span end 100+900 < last instant
}

TEST(TraceExport, SummaryCountsMalformedLines) {
  std::istringstream is(
      "{\"kind\":\"block_begin\",\"at\":5}\n"
      "not json at all\n"
      "\n"  // blank lines are skipped, not errors
      "{\"kind\":\"no_such_kind\",\"at\":5}\n");
  const TraceSummary summary = summarize_trace_jsonl(is);
  EXPECT_EQ(summary.total_events, 1u);
  EXPECT_EQ(summary.parse_errors, 2u);
}

TEST(Histogram, BucketEdges) {
  EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(0.999), 0u);
  EXPECT_EQ(Histogram::bucket_of(std::nan("")), 0u);
  EXPECT_EQ(Histogram::bucket_of(1.0), 1u);
  EXPECT_EQ(Histogram::bucket_of(1.99), 1u);
  EXPECT_EQ(Histogram::bucket_of(2.0), 2u);
  EXPECT_EQ(Histogram::bucket_of(1024.0), 11u);
  // Enormous values clamp into the last bucket instead of overflowing.
  EXPECT_EQ(Histogram::bucket_of(1e300), Histogram::kBuckets - 1);
}

TEST(Histogram, StatsAndMerge) {
  Histogram a;
  a.observe(2.0);
  a.observe(6.0);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);

  Histogram b;
  b.observe(10.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 18.0);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);

  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
}

TEST(Histogram, RepeatedObservationIsBitIdenticalToSingleOnes) {
  const double two53 = 9007199254740992.0;
  struct Case {
    double start;  ///< one observation made first (NaN = none)
    double value;
    std::uint64_t n;
  };
  const Case cases[] = {
      {std::nan(""), 42.0, 1000},      // integer sums: one product
      {7.0, 0.0, 5},                   // zero
      {std::nan(""), -3.0, 9},         // negative integers
      {std::nan(""), 0.1, 1000},       // inexact value: added n times
      {0.25, 5.0, 100},                // inexact running sum
      {two53 - 3.0, 1.0, 10},          // partial sums cross 2^53
      {std::nan(""), 1e300, 3},        // beyond 2^53 at once
      {std::nan(""), std::nan(""), 4},
      {std::nan(""), INFINITY, 4},
      {2.0, 2.0, 0},                   // n = 0 records nothing
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("value " + std::to_string(c.value) + " x " +
                 std::to_string(c.n));
    Histogram bulk;
    Histogram single;
    if (!std::isnan(c.start)) {
      bulk.observe(c.start);
      single.observe(c.start);
    }
    bulk.observe(c.value, c.n);
    for (std::uint64_t i = 0; i < c.n; ++i) single.observe(c.value);
    EXPECT_EQ(bulk.count(), single.count());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(bulk.sum()),
              std::bit_cast<std::uint64_t>(single.sum()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(bulk.min()),
              std::bit_cast<std::uint64_t>(single.min()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(bulk.max()),
              std::bit_cast<std::uint64_t>(single.max()));
    EXPECT_EQ(bulk.buckets(), single.buckets());
  }
}

TEST(Histogram, SumStaysExactBelowTwoToThe53) {
  Histogram h;
  h.observe(9007199254740992.0 - 10.0);  // 2^53 - 10
  EXPECT_TRUE(h.sum_stays_exact(9.0));
  EXPECT_FALSE(h.sum_stays_exact(10.0));
  Histogram fractional;
  fractional.observe(0.5);
  EXPECT_FALSE(fractional.sum_stays_exact(0.0));
}

TEST(CounterRegistry, AddObserveLookup) {
  CounterRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.add("a.count");
  reg.add("a.count", 4);
  reg.observe("a.latency", 8.0);
  reg.observe("a.latency", 8.0, 3);
  reg.observe("never.observed", 8.0, 0);  // n = 0 creates no histogram
  EXPECT_EQ(reg.counter("a.count"), 5u);
  EXPECT_EQ(reg.counter("never.touched"), 0u);
  ASSERT_NE(reg.histogram("a.latency"), nullptr);
  EXPECT_EQ(reg.histogram("a.latency")->count(), 4u);
  EXPECT_EQ(reg.histogram("never.touched"), nullptr);
  EXPECT_EQ(reg.histogram("never.observed"), nullptr);
  reg.clear();
  EXPECT_TRUE(reg.empty());
}

TEST(CounterRegistry, SubmissionOrderMergeIsDeterministicAtAnyJobCount) {
  // Double sums are not order-independent: 0.1 + 0.2 + 0.3 may differ in the
  // last bit from 0.3 + 0.2 + 0.1. Per-point registries merged in submission
  // order therefore give bit-identical aggregates at any worker count.
  const std::vector<int> points{0, 1, 2, 3, 4, 5, 6, 7};
  auto run_at = [&](unsigned jobs) {
    const SweepRunner runner(jobs);
    const auto regs = runner.map(points, [](int p) {
      CounterRegistry reg;
      reg.add("point.visits");
      // Values chosen to make the sum rounding-sensitive.
      reg.observe("point.value", 0.1 * static_cast<double>(p + 1));
      reg.observe("point.value", 1e16);
      return reg;
    });
    CounterRegistry merged;
    for (const auto& reg : regs) merged.merge(reg);
    return merged;
  };

  const CounterRegistry serial = run_at(1);
  EXPECT_EQ(serial.counter("point.visits"), points.size());
  const double serial_sum = serial.histogram("point.value")->sum();
  for (unsigned jobs : {2u, 4u}) {
    const CounterRegistry parallel = run_at(jobs);
    EXPECT_EQ(parallel.counter("point.visits"), points.size());
    // Bit-exact equality, not EXPECT_NEAR: this is the determinism contract.
    EXPECT_EQ(parallel.histogram("point.value")->sum(), serial_sum)
        << "jobs=" << jobs;
  }
}

TEST(TraceIntegration, TracedRunMatchesUntracedAndCapturesTheRun) {
  H264AppParams params;
  params.frames = 2;
  params.macroblocks = 20;
  const H264Application app = build_h264_application(params);

  MRts plain(app.library, 2, 2);
  const AppRunResult untraced = run_application(plain, app.trace);

  MRts observed(app.library, 2, 2);
  TraceRecorder recorder;
  CounterRegistry counters;
  observed.attach_observability(&recorder, &counters);
  const AppRunResult traced = run_application(observed, app.trace, &recorder);

  // Observability must never perturb the simulation.
  EXPECT_EQ(traced.total_cycles, untraced.total_cycles);
  EXPECT_EQ(traced.blocking_overhead, untraced.blocking_overhead);
  EXPECT_EQ(traced.impl_executions, untraced.impl_executions);

  // The recorder saw the run: blocks, selector work, reconfigurations,
  // ECU decisions and MPU feedback.
  EXPECT_EQ(recorder.count(TraceEventKind::kBlockBegin),
            app.trace.blocks.size());
  EXPECT_EQ(recorder.count(TraceEventKind::kBlockEnd),
            app.trace.blocks.size());
  EXPECT_GT(recorder.count(TraceEventKind::kSelectorPick), 0u);
  EXPECT_GT(recorder.count(TraceEventKind::kReconfigStart), 0u);
  EXPECT_GT(recorder.count(TraceEventKind::kEcuDecision), 0u);
  EXPECT_GT(recorder.count(TraceEventKind::kMpuError), 0u);
  EXPECT_GT(counters.counter("fabric.installs"), 0u);
  EXPECT_GT(counters.counter("mpu.observations"), 0u);

  // Both exporters digest the real event stream; the chrome export resolves
  // ids against the library (kernel names appear in labels).
  std::ostringstream chrome;
  write_chrome_trace(chrome, recorder.events(), &app.library);
  expect_balanced_json(chrome.str());
  EXPECT_NE(chrome.str().find(app.library.kernels().front().name),
            std::string::npos);

  std::ostringstream jsonl;
  write_trace_jsonl(jsonl, recorder.events(), &app.library);
  std::istringstream is(jsonl.str());
  const TraceSummary summary = summarize_trace_jsonl(is);
  EXPECT_EQ(summary.total_events, recorder.size());
  EXPECT_EQ(summary.parse_errors, 0u);

  // Detaching stops recording: a fresh run adds no events.
  observed.attach_observability(nullptr, nullptr);
  recorder.clear();
  run_application(observed, app.trace);
  EXPECT_TRUE(recorder.empty());
}

TEST(TraceIntegration, TrackNamesAreStable) {
  EXPECT_EQ(track_name(kTrackApp), "application");
  EXPECT_EQ(track_name(kTrackFgBase + 2), "PRC 2");
  EXPECT_EQ(track_name(kTrackCgBase), "CG fabric 0");
}

TEST(CounterRegistry, TableOrderIsAlphabetical) {
  // trace-summary and the counter table sort rows by name; pin the property
  // the renderers rely on (snapshot iteration is lexicographic) and the
  // relative order of two counters that share a prefix.
  CounterRegistry counters;
  counters.add("fabric.reused_instances", 3);
  counters.add("zz.last");
  counters.add("fabric.installs", 7);
  counters.add("aa.first");

  std::vector<std::string> names;
  for (const auto& [name, value] : counters.counters()) {
    names.push_back(name);
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  const std::vector<std::string> expect = {
      "aa.first", "fabric.installs", "fabric.reused_instances", "zz.last"};
  EXPECT_EQ(names, expect);
}

// --- JSONL parser fuzz: the lines of a traced 2-frame run ------------------

/// The JSONL lines of a traced 2-frame (20-macroblock) mRTS run.
std::vector<std::string> traced_jsonl_lines() {
  H264AppParams params;
  params.frames = 2;
  params.macroblocks = 20;
  const H264Application app = build_h264_application(params);
  MRts rts(app.library, 2, 2);
  TraceRecorder recorder;
  CounterRegistry counters;
  rts.attach_observability(&recorder, &counters);
  run_application(rts, app.trace, &recorder);
  std::ostringstream os;
  write_trace_jsonl(os, recorder.events(), &app.library);
  std::vector<std::string> lines;
  std::istringstream is(os.str());
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// \p line with the value of field \p key (up to the next ',' or '}')
/// replaced by \p value.
std::string with_field(const std::string& line, const std::string& key,
                       const std::string& value) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t begin = line.find(needle) + needle.size();
  const std::size_t end = line.find_first_of(",}", begin);
  return line.substr(0, begin) + value + line.substr(end);
}

TEST(TraceJsonlFuzz, EveryLineParsesAndEveryProperPrefixIsRejected) {
  const std::vector<std::string> lines = traced_jsonl_lines();
  ASSERT_GT(lines.size(), 100u);
  for (const std::string& line : lines) {
    // One closing brace, at the end: no proper prefix is a whole object.
    ASSERT_EQ(std::count(line.begin(), line.end(), '}'), 1) << line;
    ASSERT_TRUE(parse_trace_jsonl_line(line).has_value()) << line;
    for (std::size_t n = 0; n < line.size(); ++n) {
      EXPECT_FALSE(parse_trace_jsonl_line(line.substr(0, n)).has_value())
          << line.substr(0, n);
    }
  }
}

TEST(TraceJsonlFuzz, SingleByteCorruptionParsesOrIsRejected) {
  const std::vector<std::string> lines = traced_jsonl_lines();
  ASSERT_FALSE(lines.empty());
  Rng rng(20261019);
  std::size_t rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    std::string line = lines[rng.next_below(lines.size())];
    const std::size_t pos = rng.next_below(line.size());
    line[pos] = static_cast<char>(line[pos] ^ (1 + rng.next_below(255)));
    if (!parse_trace_jsonl_line(line).has_value()) ++rejected;
  }
  // Most corruptions break a brace, a key, a kind name or a number; the
  // rest land in a label or turn a digit into another.
  EXPECT_GT(rejected, 1000u);
  EXPECT_LT(rejected, 3000u);
}

TEST(TraceJsonlFuzz, OutOfRangeOrNonNumericValueInEveryFieldIsRejected) {
  const std::vector<std::string> lines = traced_jsonl_lines();
  ASSERT_FALSE(lines.empty());
  const std::string& line = lines.front();
  const std::vector<std::string> junk = {"", "abc", "\"7\"", "1x", "0x10",
                                         "+1", "1 2"};
  const struct {
    const char* key;
    std::vector<std::string> bad;
    std::vector<std::string> good;
  } fields[] = {
      {"at",
       {"-5", "18446744073709551616", "99999999999999999999999", "1.5"},
       {"0", "18446744073709551615"}},
      {"dur", {"-1", "18446744073709551616", "2e3"}, {"0", "123"}},
      {"track",
       {"2147483648", "-2147483649", "99999999999", "1.0"},
       {"-2147483648", "2147483647"}},
      {"arg0", {"4294967296", "-1", "-0", "1e3"}, {"0", "4294967295"}},
      {"arg1", {"4294967296", "-1", "-0", "1e3"}, {"0", "4294967295"}},
      {"tenant", {"4294967296", "-1", "-0", "1e3"}, {"0", "4294967295"}},
      {"v0", {"1e999", "-1e999", "nan", "inf", "--1", "1e"},
       {"-2.25", "5e-324", "1.7976931348623157e308"}},
      {"v1", {"1e999", "-1e999", "nan", "inf", "--1", "1e"},
       {"-2.25", "5e-324", "1.7976931348623157e308"}},
  };
  for (const auto& field : fields) {
    for (const std::string& value : field.bad) {
      EXPECT_FALSE(parse_trace_jsonl_line(with_field(line, field.key, value))
                       .has_value())
          << field.key << " = " << value;
    }
    for (const std::string& value : junk) {
      EXPECT_FALSE(parse_trace_jsonl_line(with_field(line, field.key, value))
                       .has_value())
          << field.key << " = '" << value << "'";
    }
    for (const std::string& value : field.good) {
      const std::string changed =
          with_field(with_field(line, "dur", "0"), field.key, value);
      EXPECT_TRUE(parse_trace_jsonl_line(changed).has_value()) << changed;
    }
  }

  // The event must end within 64 bits; so may it exactly.
  const std::string late = with_field(line, "at", "18446744073709551610");
  EXPECT_FALSE(parse_trace_jsonl_line(with_field(late, "dur", "6")));
  const auto last = parse_trace_jsonl_line(with_field(late, "dur", "5"));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->at + last->duration, ~Cycles{0});

  // A kind that is not a quoted known name, and a missing one, are
  // rejected too.
  EXPECT_FALSE(parse_trace_jsonl_line(with_field(line, "kind", "5")));
  EXPECT_FALSE(
      parse_trace_jsonl_line(with_field(line, "kind", "'block_begin'")));
  EXPECT_FALSE(
      parse_trace_jsonl_line(with_field(line, "kind", "\"no_such_kind\"")));
  EXPECT_FALSE(parse_trace_jsonl_line("{\"at\":5}"));
}

TEST(TraceJsonlFuzz, ParseTraceNamesTheFirstBadLine) {
  const std::vector<std::string> lines = traced_jsonl_lines();
  ASSERT_GT(lines.size(), 10u);
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const std::size_t bad = rng.next_below(lines.size());
    std::string text;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      text += i == bad ? with_field(lines[i], "arg0", "4294967296") : lines[i];
      text += '\n';
    }
    std::istringstream parse_in(text);
    const ParsedTrace parsed = parse_trace_jsonl(parse_in);
    EXPECT_EQ(parsed.bad_line, bad + 1);
    EXPECT_EQ(parsed.events.size(), bad);
    std::istringstream summary_in(text);
    const TraceSummary summary = summarize_trace_jsonl(summary_in);
    EXPECT_EQ(summary.first_bad_line, bad + 1);
    EXPECT_EQ(summary.parse_errors, 1u);
    EXPECT_EQ(summary.total_events, lines.size() - 1);
  }
}

}  // namespace
}  // namespace mrts
