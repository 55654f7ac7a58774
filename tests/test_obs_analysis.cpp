// Tests for the obs/ trace-analysis engine: histogram percentiles, the
// hardened JSONL parser, fabric-shape inference, occupancy timelines,
// cycle accounting (the buckets-sum-to-span invariant, for handcrafted
// traces and for every baseline RTS plus the full fig9 grid), reconfig
// critical paths, per-tenant latency, and the determinism of the serialized
// RunReport.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/morpheus4s_rts.h"
#include "baselines/offline_optimal_rts.h"
#include "baselines/rispp_rts.h"
#include "baselines/risc_only_rts.h"
#include "obs/report_io.h"
#include "obs/run_report.h"
#include "rts/mrts.h"
#include "sim/app_simulator.h"
#include "sim/metrics.h"
#include "sim/multi_app.h"
#include "util/counters.h"
#include "util/trace.h"
#include "workload/h264_app.h"

namespace mrts {
namespace {

using obs::AnalysisConfig;
using obs::CycleBucket;
using obs::RunReport;
using obs::UnitState;

// ---------------------------------------------------------------------------
// Histogram percentiles (util/counters.h)

TEST(ObsPercentile, EmptyHistogramReturnsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(ObsPercentile, SingleValueClampsEveryPercentile) {
  Histogram h;
  h.observe(100.0);
  for (const double p : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 100.0) << "p=" << p;
  }
}

TEST(ObsPercentile, ExactOnBucketBoundary) {
  // 5 observations in bucket [1,2), 5 in bucket [4,8): the median target
  // (p * count = 5) lands exactly on the first bucket's cumulative boundary,
  // so the estimate is that bucket's upper edge — before clamping to the
  // observed range.
  Histogram h;
  for (int i = 0; i < 5; ++i) h.observe(1.0);
  for (int i = 0; i < 5; ++i) h.observe(4.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 2.0);
  // p=1.0 walks to the end of the populated buckets and clamps to max.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
  // p=0 clamps to the observed min.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
}

TEST(ObsPercentile, MonotoneAndWithinObservedRange) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  double prev = 0.0;
  for (const double p : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double v = h.percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    EXPECT_GE(v, h.min());
    EXPECT_LE(v, h.max());
    prev = v;
  }
  // Out-of-range p clamps instead of misbehaving.
  EXPECT_DOUBLE_EQ(h.percentile(-1.0), h.percentile(0.0));
  EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
}

// ---------------------------------------------------------------------------
// Hardened JSONL parser (util/trace.h parse_trace_jsonl)

TEST(ObsTraceParser, EmptyFileIsZeroEventsNotAnError) {
  std::istringstream is("");
  const ParsedTrace parsed = parse_trace_jsonl(is);
  EXPECT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.events.empty());
  EXPECT_EQ(parsed.lines, 0u);
}

TEST(ObsTraceParser, TrailingNewlineAndBlankLinesAreFine) {
  std::istringstream is(
      "\n"
      "{\"kind\":\"block_begin\",\"at\":5,\"dur\":0,\"track\":0,"
      "\"arg0\":0,\"arg1\":0,\"v0\":0,\"v1\":0}\n"
      "\n");
  const ParsedTrace parsed = parse_trace_jsonl(is);
  EXPECT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].at, 5u);
  EXPECT_EQ(parsed.lines, 3u);
}

TEST(ObsTraceParser, TruncatedLastLineNamesTheLineNumber) {
  std::istringstream is(
      "{\"kind\":\"block_begin\",\"at\":5,\"dur\":0,\"track\":0,"
      "\"arg0\":0,\"arg1\":0,\"v0\":0,\"v1\":0}\n"
      "{\"kind\":\"block_end\",\"at\":9,\"du");  // truncated mid-write
  const ParsedTrace parsed = parse_trace_jsonl(is);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.bad_line, 2u);
  EXPECT_EQ(parsed.events.size(), 1u);  // everything before the bad line
}

TEST(ObsTraceParser, MalformedMiddleLineNamesTheLineNumber) {
  std::istringstream is(
      "{\"kind\":\"block_begin\",\"at\":5,\"dur\":0,\"track\":0,"
      "\"arg0\":0,\"arg1\":0,\"v0\":0,\"v1\":0}\n"
      "\n"
      "not json at all\n"
      "{\"kind\":\"block_begin\",\"at\":7,\"dur\":0,\"track\":0,"
      "\"arg0\":0,\"arg1\":0,\"v0\":0,\"v1\":0}\n");
  const ParsedTrace parsed = parse_trace_jsonl(is);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.bad_line, 3u);  // 1-based, counting the blank line
  EXPECT_EQ(parsed.events.size(), 1u);
}

// ---------------------------------------------------------------------------
// Shape inference (obs/analysis.h)

TEST(ObsShape, InferredFromOccupancySamplesAndSpanFromEvents) {
  std::vector<TraceEvent> events;
  events.push_back({TraceEventKind::kBlockBegin, kTrackApp, 10, 0, 0, 0});
  events.push_back({TraceEventKind::kOccupancy, kTrackApp, 20, 0, 3, 2});
  events.push_back({TraceEventKind::kBlockEnd, kTrackApp, 10, 90, 0, 0});
  const obs::TraceShape shape = obs::infer_shape(events, {});
  EXPECT_EQ(shape.num_prcs, 3u);
  EXPECT_EQ(shape.num_cg, 2u);
  EXPECT_EQ(shape.span_begin, 10u);
  EXPECT_EQ(shape.span_end, 100u);
  EXPECT_EQ(shape.span(), 90u);
}

TEST(ObsShape, ConfigOverridesAndTrackFallback) {
  std::vector<TraceEvent> events;
  events.push_back(
      {TraceEventKind::kReconfigStart, kTrackFgBase + 2, 0, 10, 0, 0});
  events.push_back({TraceEventKind::kReconfigStart, kTrackCgBase, 5, 10, 0, 0});
  // No kOccupancy samples: the highest track index pins the shape.
  const obs::TraceShape inferred = obs::infer_shape(events, {});
  EXPECT_EQ(inferred.num_prcs, 3u);
  EXPECT_EQ(inferred.num_cg, 1u);
  // An explicit config wins over anything in the trace.
  AnalysisConfig config;
  config.num_prcs = 4;
  config.num_cg = 2;
  const obs::TraceShape overridden = obs::infer_shape(events, config);
  EXPECT_EQ(overridden.num_prcs, 4u);
  EXPECT_EQ(overridden.num_cg, 2u);

  const obs::TraceShape empty = obs::infer_shape({}, {});
  EXPECT_EQ(empty.span(), 0u);
  EXPECT_EQ(empty.num_prcs, 0u);
}

// ---------------------------------------------------------------------------
// Occupancy timelines (obs/occupancy.h)

TEST(ObsOccupancy, TimelineIsAGaplessPartitionOfTheSpan) {
  // Span [0,100) pinned by one core block; fg0 loads over [10,20), becomes
  // ready, and is quarantined at 50.
  std::vector<TraceEvent> events;
  events.push_back({TraceEventKind::kBlockEnd, kTrackApp, 0, 100, 0, 0});
  events.push_back({TraceEventKind::kReconfigStart, kTrackFgBase, 10, 10, 0, 0});
  events.push_back({TraceEventKind::kReconfigComplete, kTrackFgBase, 20, 0, 0, 0});
  events.push_back({TraceEventKind::kQuarantine, kTrackFgBase, 50, 0, 0, 0});
  AnalysisConfig config;
  config.num_prcs = 1;
  const obs::TraceShape shape = obs::infer_shape(events, config);
  const obs::OccupancyAnalysis occ = obs::analyze_occupancy(events, shape);
  ASSERT_EQ(occ.units.size(), 1u);
  const obs::UnitTimeline& tl = occ.units[0];
  EXPECT_EQ(tl.name, "fg0");
  ASSERT_EQ(tl.intervals.size(), 4u);
  const auto expect_interval = [&](std::size_t i, Cycles begin, Cycles end,
                                   UnitState state) {
    EXPECT_EQ(tl.intervals[i].begin, begin) << "interval " << i;
    EXPECT_EQ(tl.intervals[i].end, end) << "interval " << i;
    EXPECT_EQ(tl.intervals[i].state, state) << "interval " << i;
  };
  expect_interval(0, 0, 10, UnitState::kEmpty);
  expect_interval(1, 10, 20, UnitState::kLoading);
  expect_interval(2, 20, 50, UnitState::kReady);
  expect_interval(3, 50, 100, UnitState::kQuarantined);
  // The per-state cycle totals partition the span; utilization = ready/span.
  Cycles total = 0;
  for (const Cycles c : tl.state_cycles) total += c;
  EXPECT_EQ(total, shape.span());
  EXPECT_DOUBLE_EQ(tl.utilization, 0.30);
  EXPECT_DOUBLE_EQ(occ.fg_utilization, 0.30);
  EXPECT_DOUBLE_EQ(occ.cg_utilization, 0.0);  // no CG units: 0, never NaN
}

TEST(ObsOccupancy, ScrubTagsTheRepairLoad) {
  // The scrub fires at 30 but the port is busy: the repair load starts at
  // 35. The mark must tag that (later) load, not a preceding one.
  std::vector<TraceEvent> events;
  events.push_back({TraceEventKind::kBlockEnd, kTrackApp, 0, 50, 0, 0});
  events.push_back({TraceEventKind::kReconfigStart, kTrackFgBase, 0, 10, 0, 0});
  events.push_back({TraceEventKind::kReconfigComplete, kTrackFgBase, 10, 0, 0, 0});
  events.push_back({TraceEventKind::kScrubRepair, kTrackFgBase, 30, 0, 0, 0});
  events.push_back({TraceEventKind::kReconfigStart, kTrackFgBase, 35, 5, 0, 0});
  events.push_back({TraceEventKind::kReconfigComplete, kTrackFgBase, 40, 0, 0, 0});
  AnalysisConfig config;
  config.num_prcs = 1;
  const obs::OccupancyAnalysis occ =
      obs::analyze_occupancy(events, obs::infer_shape(events, config));
  ASSERT_EQ(occ.units.size(), 1u);
  const obs::UnitTimeline& tl = occ.units[0];
  EXPECT_EQ(tl.state_cycles[static_cast<std::size_t>(UnitState::kLoading)],
            10u);
  EXPECT_EQ(tl.state_cycles[static_cast<std::size_t>(UnitState::kRepairing)],
            5u);
}

TEST(ObsOccupancy, FragmentationAndCompactionAreTimeWeighted) {
  // 3 PRCs; only the middle one is ever occupied (loading [0,10), then
  // ready). The free set {fg0, fg2} is split around it for the whole span:
  // fragmentation 1 - 1/2 = 0.5, compaction opportunity 2 - 1 = 1.
  std::vector<TraceEvent> events;
  events.push_back({TraceEventKind::kBlockEnd, kTrackApp, 0, 100, 0, 0});
  events.push_back(
      {TraceEventKind::kReconfigStart, kTrackFgBase + 1, 0, 10, 0, 0});
  events.push_back(
      {TraceEventKind::kReconfigComplete, kTrackFgBase + 1, 10, 0, 0, 0});
  AnalysisConfig config;
  config.num_prcs = 3;
  const obs::OccupancyAnalysis occ =
      obs::analyze_occupancy(events, obs::infer_shape(events, config));
  EXPECT_DOUBLE_EQ(occ.fragmentation_index, 0.5);
  EXPECT_DOUBLE_EQ(occ.compaction_opportunity, 1.0);
  EXPECT_DOUBLE_EQ(occ.fg_utilization, 90.0 / 300.0);
}

// ---------------------------------------------------------------------------
// Cycle accounting (obs/cycle_accounting.h)

Cycles row_total(const obs::AccountingRow& row) { return row.total(); }

void expect_all_rows_sum_to_span(const obs::CycleAccounting& acc,
                                 const std::string& what) {
  EXPECT_EQ(row_total(acc.core), acc.span()) << what << " core";
  for (const obs::AccountingRow& row : acc.tenants) {
    EXPECT_EQ(row_total(row), acc.span()) << what << " " << row.key;
  }
  for (const obs::AccountingRow& row : acc.units) {
    EXPECT_EQ(row_total(row), acc.span()) << what << " " << row.key;
  }
}

TEST(AnalysisAccounting, HandcraftedBucketsMatchAndSumToSpan) {
  // Span [0,60): two blocks [10,30) (5 stalled cycles, tenant 1) and
  // [40,50) (tenant 2), a lead-in [0,10) and a tail [50,60).
  std::vector<TraceEvent> events;
  events.push_back({TraceEventKind::kBlockBegin, kTrackApp, 0, 0, 0, 0});
  events.push_back(
      {TraceEventKind::kBlockEnd, kTrackApp, 10, 20, 0, 0, 5.0, 0.0, 1});
  events.push_back(
      {TraceEventKind::kBlockEnd, kTrackApp, 40, 10, 0, 0, 0.0, 0.0, 2});
  events.push_back({TraceEventKind::kSelectorEval, kTrackSelector, 60, 0, 0, 0});
  const obs::TraceShape shape = obs::infer_shape(events, {});
  const obs::CycleAccounting acc =
      obs::account_cycles(events, shape, obs::analyze_occupancy(events, shape));
  EXPECT_EQ(acc.span(), 60u);
  EXPECT_EQ(acc.core[CycleBucket::kExecute], 25u);
  EXPECT_EQ(acc.core[CycleBucket::kReconfigStall], 5u);
  EXPECT_EQ(acc.core[CycleBucket::kArbiterIdle], 10u);
  EXPECT_EQ(acc.core[CycleBucket::kPureIdle], 20u);

  ASSERT_EQ(acc.tenants.size(), 2u);
  EXPECT_EQ(acc.tenants[0].key, "tenant.1");
  EXPECT_EQ(acc.tenants[0][CycleBucket::kExecute], 15u);
  EXPECT_EQ(acc.tenants[0][CycleBucket::kReconfigStall], 5u);
  EXPECT_EQ(acc.tenants[0][CycleBucket::kPureIdle], 40u);
  EXPECT_EQ(acc.tenants[1].key, "tenant.2");
  EXPECT_EQ(acc.tenants[1][CycleBucket::kExecute], 10u);
  EXPECT_EQ(acc.tenants[1][CycleBucket::kPureIdle], 50u);

  expect_all_rows_sum_to_span(acc, "handcrafted");
}

TEST(AnalysisAccounting, EmptyTraceIsAllPureIdle) {
  const obs::TraceShape shape = obs::infer_shape({}, {});
  const obs::CycleAccounting acc =
      obs::account_cycles({}, shape, obs::analyze_occupancy({}, shape));
  EXPECT_EQ(acc.span(), 0u);
  EXPECT_EQ(row_total(acc.core), 0u);
}

H264Application small_app() {
  H264AppParams params;
  params.frames = 2;
  params.macroblocks = 20;
  return build_h264_application(params);
}

TEST(AnalysisAccounting, SumInvariantHoldsForEveryBaselineRts) {
  const H264Application app = small_app();
  const std::vector<BlockProfile> profile =
      profile_application(app.trace, app.library);
  const unsigned prcs = 2;
  const unsigned cg = 2;

  const auto analyze = [&](RuntimeSystem& rts, const std::string& what) {
    TraceRecorder recorder;
    rts.attach_observability(&recorder, nullptr);
    run_application(rts, app.trace, &recorder);
    AnalysisConfig config;
    config.num_prcs = prcs;
    config.num_cg = cg;
    const RunReport report = obs::analyze_trace(recorder.events(), config);
    EXPECT_GT(report.total_events, 0u) << what;
    expect_all_rows_sum_to_span(report.accounting, what);
  };

  RiscOnlyRts risc(app.library);
  analyze(risc, "risc-only");
  RisppRts rispp(app.library, cg, prcs);
  analyze(rispp, "rispp");
  Morpheus4sRts morpheus(app.library, cg, prcs, profile);
  analyze(morpheus, "morpheus");
  OfflineOptimalRts offline(app.library, cg, prcs, profile);
  analyze(offline, "offline-optimal");
  MRts mrts_rts(app.library, cg, prcs);
  analyze(mrts_rts, "mrts");
}

TEST(AnalysisAccounting, SumInvariantHoldsAcrossTheFig9Grid) {
  // The fig9 axes: every fabric combination of the paper grid, heuristic
  // and optimal selector. Small workload — the invariant is structural,
  // not workload-sized.
  const H264Application app = small_app();
  for (const FabricCombination& combo : fabric_sweep(4, 3)) {
    for (const bool optimal : {false, true}) {
      MRtsConfig config;
      config.use_optimal_selector = optimal;
      MRts rts(app.library, combo.cg, combo.prcs, config);
      TraceRecorder recorder;
      rts.attach_observability(&recorder, nullptr);
      run_application(rts, app.trace, &recorder);
      AnalysisConfig analysis;
      analysis.num_prcs = combo.prcs;
      analysis.num_cg = combo.cg;
      const RunReport report = obs::analyze_trace(recorder.events(), analysis);
      expect_all_rows_sum_to_span(
          report.accounting,
          combo.label() + (optimal ? "/optimal" : "/heuristic"));
      ASSERT_EQ(report.accounting.units.size(), combo.prcs + combo.cg);
    }
  }
}

// ---------------------------------------------------------------------------
// Reconfiguration critical paths (obs/critical_path.h)

TEST(AnalysisCriticalPath, ChainsHopsAndHiddenFraction) {
  // FG port: loads [0,10) -> [10,25) back-to-back (one 2-hop chain), then a
  // drained port and a lone load [40,50).
  std::vector<TraceEvent> events;
  events.push_back({TraceEventKind::kReconfigStart, kTrackFgBase, 0, 10, 0, 0});
  events.push_back({TraceEventKind::kReconfigComplete, kTrackFgBase, 10, 0, 0, 0});
  events.push_back({TraceEventKind::kReconfigStart, kTrackFgBase, 10, 15, 0, 0});
  events.push_back({TraceEventKind::kReconfigComplete, kTrackFgBase, 25, 0, 0, 0});
  events.push_back({TraceEventKind::kReconfigStart, kTrackFgBase, 40, 10, 0, 0});
  events.push_back({TraceEventKind::kReconfigComplete, kTrackFgBase, 50, 0, 0, 0});
  AnalysisConfig config;
  config.num_prcs = 1;
  const obs::TraceShape shape = obs::infer_shape(events, config);
  {
    const obs::CriticalPathAnalysis cp =
        obs::analyze_critical_path(events, shape);
    ASSERT_EQ(cp.chains.size(), 2u);
    EXPECT_EQ(cp.chains[0].begin, 0u);
    EXPECT_EQ(cp.chains[0].end, 25u);
    EXPECT_EQ(cp.chains[0].hops, 2u);
    EXPECT_EQ(cp.chains[1].hops, 1u);
    EXPECT_EQ(cp.longest_chain_cycles, 25u);
    EXPECT_EQ(cp.longest_chain_hops, 2u);
    EXPECT_EQ(cp.longest_chain_grain, Grain::kFine);
    EXPECT_EQ(cp.reconfig_busy, 35u);
    EXPECT_EQ(cp.hop_latency.count(), 3u);
    EXPECT_DOUBLE_EQ(cp.hop_latency.min(), 10.0);
    EXPECT_DOUBLE_EQ(cp.hop_latency.max(), 15.0);
    // No core blocks recorded: nothing stalled, reconfig fully hidden.
    EXPECT_EQ(cp.core_stall, 0u);
    EXPECT_DOUBLE_EQ(cp.hidden_fraction, 1.0);
  }
  // Now the core stalls out every streamed cycle: hidden fraction drops
  // to 0 ("the application waited out every load").
  events.push_back(
      {TraceEventKind::kBlockEnd, kTrackApp, 0, 50, 0, 0, 35.0, 0.0});
  const obs::CriticalPathAnalysis stalled =
      obs::analyze_critical_path(events, obs::infer_shape(events, config));
  EXPECT_EQ(stalled.core_stall, 35u);
  EXPECT_DOUBLE_EQ(stalled.hidden_fraction, 0.0);
}

TEST(AnalysisCriticalPath, EmptyTraceIsDegenerateHidden) {
  const obs::CriticalPathAnalysis cp =
      obs::analyze_critical_path({}, obs::infer_shape({}, {}));
  EXPECT_TRUE(cp.chains.empty());
  EXPECT_EQ(cp.reconfig_busy, 0u);
  EXPECT_DOUBLE_EQ(cp.hidden_fraction, 1.0);
}

// ---------------------------------------------------------------------------
// Per-tenant admission-to-completion latency (obs/run_report.h)

TEST(AnalysisTenantLatency, NearestRankPercentilesFromCompletionEvents) {
  std::vector<TraceEvent> events;
  const auto admit = [&](std::uint32_t tenant, bool admitted, Cycles at) {
    events.push_back({TraceEventKind::kTenantAdmission, kTrackApp, at, 0, 0,
                      admitted ? 1u : 0u, 0.0, 0.0, tenant});
  };
  const auto complete = [&](std::uint32_t tenant, Cycles at, Cycles latency) {
    events.push_back({TraceEventKind::kTenantCompletion, kTrackApp, at,
                      latency, 0, 0, 1.0, 0.0, tenant});
  };
  for (int i = 0; i < 4; ++i) admit(1, true, 0);
  complete(1, 0, 30);
  complete(1, 0, 10);
  complete(1, 0, 40);
  complete(1, 0, 20);
  admit(2, false, 5);  // bounced, never completes

  const RunReport report = obs::analyze_trace(events, {});
  ASSERT_EQ(report.tenant_latency.size(), 2u);
  const obs::TenantLatency& t1 = report.tenant_latency[0];
  EXPECT_EQ(t1.tenant, 1u);
  EXPECT_EQ(t1.admitted, 4u);
  EXPECT_EQ(t1.bounced, 0u);
  EXPECT_EQ(t1.completed, 4u);
  EXPECT_EQ(t1.min, 10u);
  EXPECT_EQ(t1.p50, 20u);  // nearest rank: ceil(0.50 * 4) = 2nd of sorted
  EXPECT_EQ(t1.p99, 40u);  // ceil(0.99 * 4) = 4th
  EXPECT_EQ(t1.max, 40u);
  const obs::TenantLatency& t2 = report.tenant_latency[1];
  EXPECT_EQ(t2.tenant, 2u);
  EXPECT_EQ(t2.admitted, 0u);
  EXPECT_EQ(t2.bounced, 1u);
  EXPECT_EQ(t2.completed, 0u);
  EXPECT_EQ(t2.max, 0u);
}

TEST(AnalysisTenantLatency, SchedulerStampsAdmissionAndCompletion) {
  const H264Application app = small_app();
  FabricManager shared(2, 2, &app.library.data_paths());
  MRts a(app.library, shared);
  MRts b(app.library, shared);
  TraceRecorder recorder;
  std::vector<Task> tasks;
  tasks.push_back({"a", &a, &app.trace, 1, &recorder});
  tasks.push_back({"b", &b, &app.trace, 1, &recorder});
  tasks[1].release = 1000;
  const MultiTenantResult result = run_multi_tenant(tasks);
  ASSERT_EQ(result.tasks.size(), 2u);
  EXPECT_EQ(result.tasks[1].admitted_at, 1000u);

  EXPECT_EQ(recorder.count(TraceEventKind::kTenantAdmission), 2u);
  EXPECT_EQ(recorder.count(TraceEventKind::kTenantCompletion), 2u);
  const RunReport report = obs::analyze_trace(recorder.events(), {});
  ASSERT_EQ(report.tenant_latency.size(), 1u);  // both default tenant 0
  EXPECT_EQ(report.tenant_latency[0].admitted, 2u);
  EXPECT_EQ(report.tenant_latency[0].completed, 2u);
  EXPECT_GT(report.tenant_latency[0].min, 0u);
  // Completion latency = finished_at - admitted_at, verifiable from the
  // scheduler's own result.
  const Cycles expected_max =
      std::max(result.tasks[0].run.finished_at - result.tasks[0].admitted_at,
               result.tasks[1].run.finished_at - result.tasks[1].admitted_at);
  EXPECT_EQ(report.tenant_latency[0].max, expected_max);
}

// ---------------------------------------------------------------------------
// Serialized-report determinism (obs/report_io.h)

TEST(AnalysisReportDeterminism, AllThreeSerializersAreStableFunctions) {
  const H264Application app = small_app();
  MRts rts(app.library, 1, 1);
  TraceRecorder recorder;
  rts.attach_observability(&recorder, nullptr);
  run_application(rts, app.trace, &recorder);
  AnalysisConfig config;
  config.num_prcs = 1;
  config.num_cg = 1;
  const RunReport report = obs::analyze_trace(recorder.events(), config);
  const auto render = [&](void (*writer)(std::ostream&, const RunReport&)) {
    std::ostringstream os;
    writer(os, report);
    return os.str();
  };
  const std::string json = render(obs::write_report_json);
  const std::string csv = render(obs::write_report_csv);
  const std::string md = render(obs::write_report_markdown);
  EXPECT_EQ(render(obs::write_report_json), json);
  EXPECT_EQ(render(obs::write_report_csv), csv);
  EXPECT_EQ(render(obs::write_report_markdown), md);
  EXPECT_NE(json.find("\"schema\": \"mrts.run_report.v1\""), std::string::npos);
  EXPECT_EQ(csv.rfind("section,row,metric,value", 0), 0u);
  EXPECT_NE(md.find("| core |"), std::string::npos);
}

}  // namespace
}  // namespace mrts
