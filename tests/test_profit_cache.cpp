// Tests for the selector hot-path optimizations (rts/profit_cache.h): the
// contract is that profit memoization and the incremental planner are *pure*
// optimizations — every SelectionResult, counter and trace event stays
// identical to SelectorTuning::baseline(), which keeps the pre-optimization
// implementation alive for exactly this comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "arch/fabric_manager.h"
#include "arch/fault_model.h"
#include "isa/ise_builder.h"
#include "rts/profit_cache.h"
#include "rts/selector_heuristic.h"
#include "rts/selector_optimal.h"
#include "util/counters.h"
#include "util/trace.h"
#include "workload/h264_app.h"

namespace mrts {
namespace {

bool same_selection(const SelectionResult& a, const SelectionResult& b) {
  if (a.selected.size() != b.selected.size()) return false;
  for (std::size_t i = 0; i < a.selected.size(); ++i) {
    const SelectedIse& x = a.selected[i];
    const SelectedIse& y = b.selected[i];
    if (x.kernel != y.kernel || x.ise != y.ise || x.profit != y.profit ||
        x.instance_ready != y.instance_ready) {
      return false;
    }
  }
  return a.covered == b.covered &&
         a.profit_evaluations == b.profit_evaluations &&
         a.candidates_scanned == b.candidates_scanned &&
         a.first_round_evaluations == b.first_round_evaluations &&
         a.first_round_scans == b.first_round_scans &&
         a.overhead_cycles == b.overhead_cycles &&
         a.total_profit == b.total_profit;
}

/// Replays the H.264 trigger sequence on a fabric of the given size and, at
/// every decision point, compares the tuned selectors (the heuristic with
/// memoization, both with the incremental planner) against
/// SelectorTuning::baseline() on identical planner snapshots. Returns the
/// number of decision points checked.
std::size_t check_grid_point(const H264Application& app, unsigned prcs,
                             unsigned cg, FabricManager* faulted = nullptr) {
  const IseLibrary& lib = app.library;
  FabricManager own(cg, prcs, &lib.data_paths());
  FabricManager& fabric = faulted != nullptr ? *faulted : own;

  HeuristicSelector h_base(lib);
  h_base.set_tuning(SelectorTuning::baseline());
  HeuristicSelector h_tuned(lib);
  ProfitCache h_cache;
  h_tuned.attach_profit_cache(&h_cache);

  OptimalSelector o_base(lib);
  o_base.set_tuning(SelectorTuning::baseline());
  OptimalSelector o_tuned(lib);

  std::size_t checked = 0;
  Cycles now = 0;
  for (const FunctionalBlockInstance& block : app.trace.blocks) {
    ReconfigPlanner planner(lib.data_paths(), fabric, now);
    const SelectionResult hb = h_base.select(block.programmed, planner);
    const SelectionResult ht = h_tuned.select(block.programmed, planner);
    EXPECT_TRUE(same_selection(hb, ht))
        << "heuristic diverged at PRC=" << prcs << " CG=" << cg
        << " cycle=" << now;
    const SelectionResult ob = o_base.select(block.programmed, planner);
    const SelectionResult ot = o_tuned.select(block.programmed, planner);
    EXPECT_TRUE(same_selection(ob, ot))
        << "optimal diverged at PRC=" << prcs << " CG=" << cg
        << " cycle=" << now;
    ++checked;
    // Evolve the fabric with the agreed selection so later snapshots carry
    // real port backlogs and reusable instances.
    std::vector<IsePlacementRequest> requests;
    requests.reserve(hb.selected.size());
    for (const auto& s : hb.selected) {
      requests.push_back({s.ise, s.kernel, lib.ise(s.ise).data_paths});
    }
    fabric.install(requests, now);
    now += 150'000;
  }
  return checked;
}

TEST(ProfitCacheEquivalence, FullFabricGridHeuristicAndOptimal) {
  // The fig8/fig9 grid: every PRC x CG combination, including the RISC-only
  // corner (both selectors must return an empty selection there either way).
  H264AppParams params;
  params.frames = 2;  // 6 decision points per grid point keeps this fast
  const H264Application app = build_h264_application(params);
  std::size_t checked = 0;
  for (unsigned prcs = 0; prcs <= 6; ++prcs) {
    for (unsigned cg = 0; cg <= 3; ++cg) {
      checked += check_grid_point(app, prcs, cg);
    }
  }
  EXPECT_EQ(checked, 7u * 4u * app.trace.blocks.size());
}

TEST(ProfitCacheEquivalence, HoldsAfterFaultInducedQuarantines) {
  // Quarantines (and the scrub passes that diagnose them) bump the fabric
  // state epoch; selections on the degraded fabric must stay identical with
  // the cache on. The fault model is deterministic from its seed.
  H264AppParams params;
  params.frames = 2;
  const H264Application app = build_h264_application(params);
  const IseLibrary& lib = app.library;

  FaultModelConfig fc;
  fc.seed = 0xDEAD;
  fc.fg_load_failure_prob = 0.2;
  fc.transient_upset_prob = 0.05;
  fc.permanent_fault_prob = 0.5;
  fc.scrub_interval_cycles = 100'000;
  FaultModel fault(fc);

  FabricManager fabric(/*num_cg_fabrics=*/3, /*num_prcs=*/6,
                       &lib.data_paths());
  fabric.attach_fault_model(&fault);
  const std::uint64_t epoch_before = fabric.state_epoch();

  // Force a degraded fabric regardless of the stochastic diagnosis path.
  fabric.quarantine_prc(0, 0);
  fabric.quarantine_cg(0, 0);
  EXPECT_GT(fabric.state_epoch(), epoch_before);

  const std::uint64_t epoch_quarantined = fabric.state_epoch();
  check_grid_point(app, 6, 3, &fabric);
  // The replay installs and scrubs under an aggressive fault model; the
  // epoch must keep moving so stale cache keys can never match.
  EXPECT_GT(fabric.state_epoch(), epoch_quarantined);
}

TEST(ProfitCacheEquivalence, EpochBumpsOnEveryFabricMutation) {
  H264AppParams params;
  params.frames = 1;
  const H264Application app = build_h264_application(params);
  const IseLibrary& lib = app.library;
  FabricManager fabric(2, 4, &lib.data_paths());

  std::uint64_t last = fabric.state_epoch();
  const auto bumped = [&last, &fabric](const char* what) {
    const std::uint64_t now_epoch = fabric.state_epoch();
    EXPECT_GT(now_epoch, last) << what;
    last = now_epoch;
  };

  const IseVariant& v = lib.ises().front();
  fabric.install({{IseId{0}, v.kernel, v.data_paths}}, 0);
  bumped("install");
  fabric.quarantine_prc(1, 10);
  bumped("quarantine_prc");
  fabric.quarantine_cg(1, 10);
  bumped("quarantine_cg");
  fabric.reset();
  bumped("reset");

  // Pure reads must not bump: a planner snapshot is side-effect free.
  const std::uint64_t before_reads = fabric.state_epoch();
  (void)fabric.usage();
  ReconfigPlanner planner(lib.data_paths(), fabric, 0);
  (void)planner.plan(v.data_paths);
  EXPECT_EQ(fabric.state_epoch(), before_reads);
  EXPECT_EQ(planner.fabric_epoch(), before_reads);

  // Out-of-range quarantines are ignored and must not bump either (the
  // early-return guard precedes the epoch increment).
  fabric.quarantine_prc(1000, 0);
  fabric.quarantine_cg(1000, 0);
  EXPECT_EQ(fabric.state_epoch(), before_reads);
}

/// Library with a HOT and a COLD kernel (same shape as test_selector.cpp).
IseLibrary two_kernel_library() {
  IseLibrary lib;
  IseBuildSpec hot;
  hot.kernel_name = "HOT";
  hot.sw_latency = 1000;
  hot.control_fraction = 0.2;
  hot.fg_data_path_names = {"hot_fg1", "hot_fg2"};
  hot.cg_data_path_names = {"hot_cg1", "hot_cg2"};
  build_kernel_ises(lib, hot);

  IseBuildSpec cold;
  cold.kernel_name = "COLD";
  cold.sw_latency = 800;
  cold.control_fraction = 0.8;
  cold.fg_data_path_names = {"cold_fg1", "cold_fg2"};
  cold.cg_data_path_names = {"cold_cg1"};
  build_kernel_ises(lib, cold);
  return lib;
}

TriggerInstruction make_trigger(const IseLibrary& lib) {
  TriggerInstruction ti;
  ti.functional_block = FunctionalBlockId{0};
  ti.entries.push_back({lib.find_kernel("HOT"), 2000, 500, 50});
  ti.entries.push_back({lib.find_kernel("COLD"), 500, 800, 120});
  return ti;
}

TEST(ProfitCacheUnit, HitReturnsBitIdenticalProfit) {
  const IseLibrary lib = two_kernel_library();
  const TriggerEntry entry{lib.find_kernel("HOT"), 2000, 500, 50};
  ReconfigPlanner planner(lib.data_paths(), 4, 3, 0);
  const IseId ise = lib.fitting_ises(entry.kernel, 4, 3).front();
  const ProfitModel model;

  ProfitCache cache;
  cache.begin_select();
  ProfitCache::Key key;
  ASSERT_TRUE(cache.make_key(key, ise, lib.ise(ise), entry, planner, model));
  EXPECT_EQ(cache.lookup(key), nullptr);  // cold cache: miss

  EvalScratch scratch;
  const double computed = evaluate_candidate_profit(
      lib, ise, entry, planner, model, /*cache=*/nullptr, scratch);
  const double reference = evaluate_candidate(lib, ise, entry, planner,
                                              model).profit;
  EXPECT_EQ(computed, reference);  // exact, not approximate

  cache.insert(key, computed);
  const double* hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, computed);
  EXPECT_EQ(cache.select_hits(), 1u);
  EXPECT_EQ(cache.select_misses(), 1u);
}

TEST(ProfitCacheUnit, KeyChangesWhenPlannerStateChanges) {
  const IseLibrary lib = two_kernel_library();
  const TriggerEntry entry{lib.find_kernel("HOT"), 2000, 500, 50};
  const ProfitModel model;
  ReconfigPlanner planner(lib.data_paths(), 4, 3, 0);
  const IseId ise = lib.fitting_ises(entry.kernel, 4, 3).front();

  ProfitCache::Key before;
  ASSERT_TRUE(ProfitCache::make_key(before, ise, lib.ise(ise), entry, planner,
                                    model));
  // A commit moves the port cursors / claim counts: the key must differ.
  planner.commit(lib.ise(ise).data_paths);
  ProfitCache::Key after;
  ASSERT_TRUE(ProfitCache::make_key(after, ise, lib.ise(ise), entry, planner,
                                    model));
  EXPECT_FALSE(before == after);

  // Same planner state at a different trigger cycle must differ too.
  ReconfigPlanner later(lib.data_paths(), 4, 3, 1);
  ProfitCache::Key shifted;
  ASSERT_TRUE(ProfitCache::make_key(shifted, ise, lib.ise(ise), entry, later,
                                    model));
  EXPECT_FALSE(before == shifted);
}

TEST(ProfitCacheUnit, BeginSelectDropsEntriesAndTallies) {
  const IseLibrary lib = two_kernel_library();
  const TriggerEntry entry{lib.find_kernel("HOT"), 2000, 500, 50};
  ReconfigPlanner planner(lib.data_paths(), 4, 3, 0);
  const IseId ise = lib.fitting_ises(entry.kernel, 4, 3).front();

  ProfitCache cache;
  cache.begin_select();
  ProfitCache::Key key;
  ASSERT_TRUE(cache.make_key(key, ise, lib.ise(ise), entry, planner, {}));
  cache.insert(key, 42.0);
  ASSERT_NE(cache.lookup(key), nullptr);

  cache.begin_select();
  EXPECT_EQ(cache.select_hits(), 0u);
  EXPECT_EQ(cache.select_misses(), 0u);
  EXPECT_EQ(cache.lookup(key), nullptr);  // entries do not survive a select
  // Lifetime totals do survive (the bench derives its hit rate from them).
  EXPECT_EQ(cache.total_hits(), 1u);
  EXPECT_EQ(cache.total_misses(), 1u);
}

TEST(PlannerCheckpoint, RollbackRestoresExactState) {
  const IseLibrary lib = two_kernel_library();
  const std::vector<DataPathId>& dps = lib.ises().front().data_paths;
  const std::vector<DataPathId>& other = lib.ises().back().data_paths;

  FabricManager fabric(2, 4, &lib.data_paths());
  fabric.install({{IseId{0}, lib.ises().front().kernel, dps}}, 0);
  ReconfigPlanner planner(lib.data_paths(), fabric, 10);
  planner.commit(other);  // pre-checkpoint commits must survive rollback

  const ReconfigPlanner pristine = planner;  // reference copy
  const ReconfigPlanner::Checkpoint cp = planner.mark();
  std::vector<Cycles> scratch;
  planner.commit_into(dps, scratch);
  planner.commit_into(dps, scratch);  // second instance: fresh loads
  EXPECT_NE(planner.free_prcs(), pristine.free_prcs());
  planner.rollback(cp);

  EXPECT_EQ(planner.free_prcs(), pristine.free_prcs());
  EXPECT_EQ(planner.free_cg(), pristine.free_cg());
  EXPECT_EQ(planner.fg_cursor(), pristine.fg_cursor());
  EXPECT_EQ(planner.cg_cursor(), pristine.cg_cursor());
  EXPECT_EQ(planner.committed_paths(), pristine.committed_paths());
  for (const DataPathId dp : dps) {
    EXPECT_EQ(planner.claimed_count(dp), pristine.claimed_count(dp));
  }
  // The observable behaviour matches too: plan() and a fresh commit() return
  // exactly what the untouched copy returns.
  EXPECT_EQ(planner.plan(dps), pristine.plan(dps));
  ReconfigPlanner replay = pristine;
  EXPECT_EQ(planner.commit(dps), replay.commit(dps));
}

TEST(PlannerCheckpoint, CheckpointsNestLifo) {
  const IseLibrary lib = two_kernel_library();
  const std::vector<DataPathId>& dps = lib.ises().front().data_paths;
  ReconfigPlanner planner(lib.data_paths(), 6, 3, 0);

  const ReconfigPlanner::Checkpoint outer = planner.mark();
  planner.commit(dps);
  const ReconfigPlanner::Checkpoint inner = planner.mark();
  planner.commit(dps);
  planner.rollback(inner);
  EXPECT_TRUE(planner.covered_by_committed(dps));  // outer commit intact
  planner.rollback(outer);
  EXPECT_FALSE(planner.covered_by_committed(dps));
  EXPECT_EQ(planner.free_prcs(), 6u);
  EXPECT_EQ(planner.free_cg(), 3u);
}

TEST(PlannerCheckpoint, CommitIntoMatchesCommit) {
  const IseLibrary lib = two_kernel_library();
  ReconfigPlanner a(lib.data_paths(), 6, 3, 0);
  ReconfigPlanner b = a;
  std::vector<Cycles> scratch{99, 99};  // must be cleared by the callee
  for (const IseVariant& v : lib.ises()) {
    const std::vector<Cycles> expect = a.commit(v.data_paths);
    b.commit_into(v.data_paths, scratch);
    EXPECT_EQ(scratch, expect);
  }
  EXPECT_EQ(a.free_prcs(), b.free_prcs());
  EXPECT_EQ(a.fg_cursor(), b.fg_cursor());
  EXPECT_EQ(a.cg_cursor(), b.cg_cursor());
}

// The observability satellite: selector.cache.{hit,miss} land in the
// counter registry in stable lexicographic order (the CLI's counter table
// and trace-summary both render from name-sorted maps), and the per-select
// tallies surface as one kSelectorCacheStats trace event.
TEST(ProfitCacheObservability, CountersAndTraceEventsAreEmitted) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  ProfitCache cache;
  selector.attach_profit_cache(&cache);
  TraceRecorder trace;
  CounterRegistry counters;
  selector.attach_observability(&trace, &counters);

  ReconfigPlanner planner(lib.data_paths(), 4, 3, 0);
  (void)selector.select(make_trigger(lib), planner);

  const std::uint64_t hits = counters.counter("selector.cache.hit");
  const std::uint64_t misses = counters.counter("selector.cache.miss");
  EXPECT_GT(misses, 0u);  // a cold cache always misses at least once
  EXPECT_EQ(hits + misses, cache.total_hits() + cache.total_misses());

  ASSERT_EQ(trace.count(TraceEventKind::kSelectorCacheStats), 1u);
  const auto it = std::find_if(
      trace.events().begin(), trace.events().end(), [](const TraceEvent& e) {
        return e.kind == TraceEventKind::kSelectorCacheStats;
      });
  ASSERT_NE(it, trace.events().end());
  EXPECT_EQ(static_cast<std::uint64_t>(it->v0), hits);
  EXPECT_EQ(static_cast<std::uint64_t>(it->v1), misses);
}

TEST(ProfitCacheObservability, CounterTableOrderIsAlphabetical) {
  // trace-summary and the counter table sort rows by name; pin the property
  // the renderers rely on (snapshot iteration is lexicographic) and the
  // relative order of the two cache counters.
  CounterRegistry counters;
  counters.add("selector.cache.miss", 3);
  counters.add("zz.last");
  counters.add("selector.cache.hit", 7);
  counters.add("aa.first");

  std::vector<std::string> names;
  for (const auto& [name, value] : counters.counters()) {
    names.push_back(name);
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  const std::vector<std::string> expect = {
      "aa.first", "selector.cache.hit", "selector.cache.miss", "zz.last"};
  EXPECT_EQ(names, expect);
}

TEST(ProfitCacheObservability, CacheStatsEventNameRoundTrips) {
  EXPECT_STREQ(to_string(TraceEventKind::kSelectorCacheStats),
               "selector.cache");
  EXPECT_EQ(trace_kind_from_string("selector.cache"),
            TraceEventKind::kSelectorCacheStats);

  // The jsonl writer must label the event (the label text is what the
  // trace-summary table shows next to the kind).
  TraceEvent e;
  e.kind = TraceEventKind::kSelectorCacheStats;
  e.v0 = 7.0;
  e.v1 = 3.0;
  std::ostringstream os;
  write_trace_jsonl(os, {e});
  EXPECT_NE(os.str().find("\"selector.cache\""), std::string::npos);
  EXPECT_NE(os.str().find("profit cache hits/misses"), std::string::npos);
}

}  // namespace
}  // namespace mrts
