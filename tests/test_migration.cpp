// Live ISE migration (FabricManager::migrate, on PRCs and CG fabrics) and the
// DefragPolicy built on it: drain semantics, port serialization, abort paths
// under quarantine and copy failures, and compaction of scattered holes down
// to the fragmentation floor. All scenarios are deterministic — holes are
// punched by a probability-1.0 load-failure model, not by luck.

#include <gtest/gtest.h>

#include "arch/fabric_manager.h"
#include "arch/fault_model.h"
#include "rts/migration.h"
#include "rts/mrts.h"
#include "sim/app_simulator.h"
#include "util/counters.h"
#include "util/trace.h"
#include "workload/h264_app.h"

namespace mrts {
namespace {

/// Fault model that fails every FG streaming attempt on the first try and
/// never quarantines: a failed load evicts its victim and leaves a hole.
FaultModelConfig always_fail_fg() {
  FaultModelConfig c;
  c.fg_load_failure_prob = 1.0;
  c.permanent_fault_prob = 0.0;
  c.max_retries = 0;
  return c;
}

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest() {
    for (int i = 0; i < 10; ++i) {
      DataPathDesc fg;
      fg.name = "fg" + std::to_string(i);
      fg.grain = Grain::kFine;
      fg_[i] = table_.add(fg);
    }
    DataPathDesc cg;
    cg.name = "cg";
    cg.grain = Grain::kCoarse;
    cg.context_instructions = 30;
    cg_ = table_.add(cg);
  }

  Cycles fg_cost() const { return table_[fg_[0]].reconfig_cycles(); }

  /// Installs fg_[0..n) as one selection at t=0: dp i lands on PRC i with
  /// ready time (i+1)*fg_cost (loads serialize on the reconfiguration port).
  void fill_prcs(FabricManager& fm, unsigned n) {
    IsePlacementRequest req;
    req.ise = IseId{0};
    req.kernel = KernelId{0};
    for (unsigned i = 0; i < n; ++i) req.data_paths.push_back(fg_[i]);
    fm.install({req}, 0);
  }

  /// Punches holes at PRCs 0 and 2 of a full 8-PRC fabric: the selection
  /// reuses the residents of PRCs 1 and 3 and asks for two fresh data paths
  /// whose loads all fail (always_fail_fg). The victim picker walks the
  /// oldest unclaimed containers — PRC 0 for the first doomed load, PRC 2
  /// for the second (0 is empty by then but already claimed) — so the free
  /// space is {0, 2}: two one-PRC runs, fragmentation 1 - 1/2 = 0.5.
  void punch_holes(FabricManager& fm, FaultModel& model) {
    fill_prcs(fm, 8);
    fm.attach_fault_model(&model);
    fm.install({{IseId{1}, KernelId{1}, {fg_[1], fg_[8]}},
                {IseId{2}, KernelId{2}, {fg_[3], fg_[9]}}},
               /*now=*/10 * fg_cost());
    ASSERT_TRUE(fm.fg_fabric().prc(0).empty());
    ASSERT_TRUE(fm.fg_fabric().prc(2).empty());
    ASSERT_DOUBLE_EQ(fg_fragmentation(fm), 0.5);
  }

  DataPathTable table_;
  DataPathId fg_[10];
  DataPathId cg_;
};

TEST_F(MigrationTest, DrainWaitsForSourceConfigurationToFinishLoading) {
  FabricManager fm(0, 2, &table_);
  fill_prcs(fm, 1);  // loading until fg_cost
  const MigrationResult res = fm.migrate(Grain::kFine, 0, 1, /*now=*/0);
  ASSERT_EQ(res.status, MigrationStatus::kMigrated);
  EXPECT_EQ(res.dp, fg_[0]);
  // The copy cannot start before the source is usable...
  EXPECT_EQ(res.drained_at, fg_cost());
  // ...and streams through the same port right behind the initial load.
  EXPECT_EQ(res.ready_at, 2 * fg_cost());
  EXPECT_TRUE(fm.fg_fabric().prc(0).empty());
  EXPECT_EQ(fm.fg_fabric().prc(1).occupant, fg_[0]);
}

TEST_F(MigrationTest, CopyWaitsBehindPendingPortBacklog) {
  FabricManager fm(0, 3, &table_);
  fill_prcs(fm, 2);  // port busy until 2*fg_cost
  const MigrationResult res = fm.migrate(Grain::kFine, 0, 2, /*now=*/0);
  ASSERT_EQ(res.status, MigrationStatus::kMigrated);
  EXPECT_EQ(res.drained_at, fg_cost());
  // Drained at fg_cost, but the port still owes fg_[1]'s stream: the copy
  // serializes behind it instead of preempting.
  EXPECT_EQ(res.ready_at, 3 * fg_cost());
}

TEST_F(MigrationTest, SuccessMovesOccupantReservationAndAvailability) {
  FabricManager fm(0, 2, &table_);
  fill_prcs(fm, 1);
  const Cycles now = 10 * fg_cost();
  const std::uint64_t epoch = fm.state_epoch();
  const MigrationResult res = fm.migrate(Grain::kFine, 0, 1, now);
  ASSERT_EQ(res.status, MigrationStatus::kMigrated);
  EXPECT_GT(fm.state_epoch(), epoch);
  // The instance is unavailable while the copy streams, then reappears on
  // the target; the install's reservation followed it.
  EXPECT_EQ(fm.available_instances(fg_[0], now), 0u);
  EXPECT_EQ(fm.available_instances(fg_[0], res.ready_at), 1u);
  EXPECT_EQ(fm.usage().reserved_prcs, 1u);
}

TEST_F(MigrationTest, AbortPathsMutateNothing) {
  FabricManager fm(0, 3, &table_);
  fill_prcs(fm, 1);
  fm.quarantine(Grain::kFine, 2, 0);
  const std::uint64_t epoch = fm.state_epoch();

  // Empty source.
  EXPECT_EQ(fm.migrate(Grain::kFine, 1, 0, 0).status,
            MigrationStatus::kNothingToMigrate);
  // Quarantined source: abort so the caller can retry from another PRC.
  EXPECT_EQ(fm.migrate(Grain::kFine, 2, 1, 0).status,
            MigrationStatus::kSourceQuarantined);
  // Occupied / quarantined / self / out-of-range targets.
  EXPECT_EQ(fm.migrate(Grain::kFine, 0, 0, 0).status,
            MigrationStatus::kTargetUnavailable);
  EXPECT_EQ(fm.migrate(Grain::kFine, 0, 2, 0).status,
            MigrationStatus::kTargetUnavailable);
  EXPECT_EQ(fm.migrate(Grain::kFine, 0, 99, 0).status,
            MigrationStatus::kTargetUnavailable);

  EXPECT_EQ(fm.state_epoch(), epoch) << "aborted migrations must not mutate";
  EXPECT_EQ(fm.fg_fabric().prc(0).occupant, fg_[0]);
}

TEST_F(MigrationTest, CopyFailureKeepsSourceServing) {
  FaultModel model(always_fail_fg());
  FabricManager fm(0, 2, &table_);
  fill_prcs(fm, 1);
  fm.attach_fault_model(&model);
  const MigrationResult res = fm.migrate(Grain::kFine, 0, 1, 10 * fg_cost());
  EXPECT_EQ(res.status, MigrationStatus::kCopyFailed);
  EXPECT_EQ(fm.fg_fabric().prc(0).occupant, fg_[0])
      << "a failed copy must leave the source intact";
  EXPECT_TRUE(fm.fg_fabric().prc(1).empty());
  EXPECT_EQ(model.stats().load_failures, 1u);
}

TEST_F(MigrationTest, SuccessEmitsTraceEventsAndCounters) {
  TraceRecorder rec;
  CounterRegistry ctr;
  FabricManager fm(0, 2, &table_);
  fm.attach_observability(&rec, &ctr);
  fill_prcs(fm, 1);
  fm.migrate(Grain::kFine, 0, 1, 10 * fg_cost());
  unsigned starts = 0, completes = 0;
  for (const TraceEvent& e : rec.events()) {
    if (e.kind == TraceEventKind::kMigrationStart) ++starts;
    if (e.kind == TraceEventKind::kMigrationComplete) ++completes;
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(completes, 1u);
  EXPECT_EQ(ctr.counter("migration.started"), 1u);
  EXPECT_EQ(ctr.counter("migration.completed"), 1u);
}

TEST_F(MigrationTest, CgMigrationMovesOldestContext) {
  FabricManager fm(2, 1, &table_);
  fm.install({{IseId{0}, KernelId{0}, {cg_}}}, 0);
  const MigrationResult res = fm.migrate(Grain::kCoarse, 0, 1, 1000);
  ASSERT_EQ(res.status, MigrationStatus::kMigrated);
  EXPECT_EQ(res.dp, cg_);
  EXPECT_EQ(fm.cg_fabric(0).resident_count(), 0u);
  EXPECT_EQ(fm.cg_fabric(1).resident_count(), 1u);
  // Nothing left to move.
  EXPECT_EQ(fm.migrate(Grain::kCoarse, 0, 1, 2000).status,
            MigrationStatus::kNothingToMigrate);
}

TEST_F(MigrationTest, FragmentationFloorIsIrreducibleUnderQuarantineSplit) {
  FabricManager fm(0, 4, &table_);
  fm.quarantine(Grain::kFine, 2, 0);
  fill_prcs(fm, 1);  // lands on PRC 0
  // Free space {1, 3} is split by the quarantined PRC 2: fragmentation 0.5
  // and no migration can merge it — the floor equals the live value.
  EXPECT_DOUBLE_EQ(fg_fragmentation(fm), 0.5);
  EXPECT_DOUBLE_EQ(fg_fragmentation_floor(fm), 0.5);
  EXPECT_EQ(fg_compaction_opportunity(fm), 1u);
  DefragConfig cfg;
  cfg.enabled = true;
  const DefragReport rep = DefragPolicy(cfg).compact(fm, 10 * fg_cost());
  EXPECT_EQ(rep.migrated, 0u);
  EXPECT_DOUBLE_EQ(rep.fragmentation_after, 0.5);
}

TEST_F(MigrationTest, DefragCompactsScatteredHolesToZero) {
  FaultModel model(always_fail_fg());
  FabricManager fm(0, 8, &table_);
  punch_holes(fm, model);
  fm.attach_fault_model(nullptr);  // compaction itself runs fault-free

  DefragConfig cfg;
  cfg.enabled = true;
  const Cycles now = 20 * fg_cost();
  const DefragReport rep = DefragPolicy(cfg).compact(fm, now);
  EXPECT_EQ(rep.migrated, 2u);
  EXPECT_EQ(rep.attempted, 2u);
  EXPECT_DOUBLE_EQ(rep.fragmentation_before, 0.5);
  EXPECT_DOUBLE_EQ(rep.fragmentation_after, 0.0);
  EXPECT_DOUBLE_EQ(fg_fragmentation(fm), fg_fragmentation_floor(fm));
  // Highest occupants moved into the lowest holes; the free run is the tail.
  EXPECT_EQ(fm.fg_fabric().prc(0).occupant, fg_[7]);
  EXPECT_EQ(fm.fg_fabric().prc(2).occupant, fg_[6]);
  EXPECT_TRUE(fm.fg_fabric().prc(6).empty());
  EXPECT_TRUE(fm.fg_fabric().prc(7).empty());
  EXPECT_GE(rep.ready_at, now) << "copies are real port work, not free";
}

TEST_F(MigrationTest, DefragStopsAfterTwoConsecutiveCopyFailures) {
  FaultModel model(always_fail_fg());
  FabricManager fm(0, 8, &table_);
  punch_holes(fm, model);  // model stays attached: every copy stream fails

  DefragConfig cfg;
  cfg.enabled = true;
  const DefragReport rep = DefragPolicy(cfg).compact(fm, 20 * fg_cost());
  EXPECT_EQ(rep.attempted, 2u);
  EXPECT_EQ(rep.migrated, 0u);
  EXPECT_DOUBLE_EQ(rep.fragmentation_after, 0.5) << "holes survive the pass";
  EXPECT_EQ(fm.fg_fabric().prc(7).occupant, fg_[7])
      << "failed copies must leave their sources serving";
}

TEST_F(MigrationTest, DefragRetriesFromAnotherSourceAfterQuarantine) {
  FaultModel model(always_fail_fg());
  FabricManager fm(0, 8, &table_);
  punch_holes(fm, model);
  fm.attach_fault_model(nullptr);
  // The fabric hosting the would-be first source dies before the pass: the
  // quarantine evicts PRC 7, and the policy must fall through to PRC 6/5
  // instead of wedging on the dead container.
  fm.quarantine(Grain::kFine, 7, 20 * fg_cost());
  DefragConfig cfg;
  cfg.enabled = true;
  const DefragReport rep = DefragPolicy(cfg).compact(fm, 20 * fg_cost());
  EXPECT_EQ(rep.migrated, 2u);
  EXPECT_DOUBLE_EQ(fg_fragmentation(fm), fg_fragmentation_floor(fm));
  EXPECT_EQ(fm.fg_fabric().prc(0).occupant, fg_[6]);
  EXPECT_EQ(fm.fg_fabric().prc(2).occupant, fg_[5]);
}

TEST_F(MigrationTest, RecoverRespectsEnableAndThresholdGates) {
  FaultModel model(always_fail_fg());
  FabricManager fm(0, 8, &table_);
  punch_holes(fm, model);
  fm.attach_fault_model(nullptr);

  DefragConfig off;  // enabled defaults to false
  EXPECT_EQ(DefragPolicy(off).recover(fm, 0).migrated, 0u);

  DefragConfig high;
  high.enabled = true;
  high.min_fragmentation = 0.9;  // above the live 0.5
  EXPECT_EQ(DefragPolicy(high).recover(fm, 0).migrated, 0u);
  EXPECT_DOUBLE_EQ(fg_fragmentation(fm), 0.5) << "gated passes do nothing";

  DefragConfig on;
  on.enabled = true;
  on.min_fragmentation = 0.25;
  EXPECT_EQ(DefragPolicy(on).recover(fm, 20 * fg_cost()).migrated, 2u);
  EXPECT_DOUBLE_EQ(fg_fragmentation(fm), 0.0);
}

TEST_F(MigrationTest, MigrationBudgetBoundsOnePass) {
  FaultModel model(always_fail_fg());
  FabricManager fm(0, 8, &table_);
  punch_holes(fm, model);
  fm.attach_fault_model(nullptr);
  DefragConfig cfg;
  cfg.enabled = true;
  cfg.max_migrations_per_pass = 1;
  const DefragReport first = DefragPolicy(cfg).compact(fm, 20 * fg_cost());
  EXPECT_EQ(first.migrated, 1u);
  // One move fills hole 0 and opens PRC 7: free {2, 7} is still split.
  EXPECT_DOUBLE_EQ(first.fragmentation_after, 0.5);
  // The next (equally bounded) pass finishes the job.
  const DefragReport second = DefragPolicy(cfg).compact(fm, 30 * fg_cost());
  EXPECT_EQ(second.migrated, 1u);
  EXPECT_DOUBLE_EQ(second.fragmentation_after, 0.0);
}

TEST(MigrationMRts, DefaultConfigNeverMigrates) {
  H264AppParams params;
  params.frames = 2;
  const H264Application app = build_h264_application(params);
  MRtsConfig config;
  config.fault = FaultModelConfig::uniform(0.2, 5);
  MRts rts(app.library, 1, 4, config);
  const AppRunResult res = run_application(rts, app.trace);
  EXPECT_GT(res.total_cycles, 0u);
  EXPECT_EQ(rts.run_stats().defrag_passes, 0u);
  EXPECT_EQ(rts.run_stats().defrag_migrations, 0u);
}

TEST(MigrationMRts, DefragEnabledRunCompletesAndCounts) {
  H264AppParams params;
  params.frames = 2;
  const H264Application app = build_h264_application(params);
  MRtsConfig config;
  config.fault = FaultModelConfig::uniform(0.2, 5);
  config.defrag.enabled = true;
  config.defrag.min_fragmentation = 0.1;
  MRts rts(app.library, 1, 4, config);
  const AppRunResult res = run_application(rts, app.trace);
  EXPECT_GT(res.total_cycles, 0u);
  if (rts.run_stats().defrag_migrations > 0) {
    EXPECT_GT(rts.run_stats().defrag_passes, 0u)
        << "migrations only happen inside recovery passes";
  }
}

}  // namespace
}  // namespace mrts
