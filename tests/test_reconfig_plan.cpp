// Unit tests for the ReconfigPlanner: hypothetical install schedules shared
// by the selectors and the profit function, and the mark/rollback
// checkpoints the branch & bound search commits on.

#include <gtest/gtest.h>

#include <vector>

#include "arch/fabric_manager.h"
#include "isa/ise_builder.h"
#include "rts/reconfig_plan.h"

namespace mrts {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() {
    DataPathDesc fg1;
    fg1.name = "fg1";
    fg1.grain = Grain::kFine;
    fg1_ = table_.add(fg1);
    DataPathDesc fg2;
    fg2.name = "fg2";
    fg2.grain = Grain::kFine;
    fg2_ = table_.add(fg2);
    DataPathDesc cg1;
    cg1.name = "cg1";
    cg1.grain = Grain::kCoarse;
    cg1.context_instructions = 30;
    cg1_ = table_.add(cg1);
  }

  Cycles fg_cost() const { return table_[fg1_].reconfig_cycles(); }

  DataPathTable table_;
  DataPathId fg1_, fg2_, cg1_;
};

TEST_F(PlannerTest, EmptyFabricSerializesFgLoads) {
  ReconfigPlanner planner(table_, /*total_prcs=*/4, /*total_cg=*/2, /*now=*/0);
  const auto ready = planner.plan({fg1_, fg2_, cg1_});
  ASSERT_EQ(ready.size(), 3u);
  EXPECT_EQ(ready[0], fg_cost());
  EXPECT_EQ(ready[1], 2 * fg_cost());
  EXPECT_EQ(ready[2], 60u);  // CG on its own port
}

TEST_F(PlannerTest, PlanDoesNotMutateCommitDoes) {
  ReconfigPlanner planner(table_, 4, 2, 0);
  const auto first = planner.plan({fg1_});
  const auto second = planner.plan({fg1_});
  EXPECT_EQ(first, second);  // plan is pure
  planner.commit({fg1_});
  const auto after = planner.plan({fg2_});
  EXPECT_EQ(after[0], 2 * fg_cost());  // behind the committed load
  EXPECT_EQ(planner.free_prcs(), 3u);
}

TEST_F(PlannerTest, ReusesExistingInstancesOnce) {
  FabricManager fm(1, 2, &table_);
  fm.install({{IseId{0}, KernelId{0}, {fg1_}}}, 0);
  // fg1 is on the fabric (ready at fg_cost()).
  ReconfigPlanner planner(table_, fm, /*now=*/10);
  const auto a = planner.commit({fg1_});
  EXPECT_EQ(a[0], fg_cost());  // reused, keeps its completion time
  // A second instance of fg1 must be loaded fresh.
  const auto b = planner.commit({fg1_});
  EXPECT_GT(b[0], fg_cost());
}

TEST_F(PlannerTest, SnapshotsPortBacklog) {
  FabricManager fm(1, 2, &table_);
  fm.install({{IseId{0}, KernelId{0}, {fg1_}}}, 0);
  ReconfigPlanner planner(table_, fm, /*now=*/100);
  // A fresh FG load waits for the running fg1 bitstream.
  const auto ready = planner.plan({fg2_});
  EXPECT_EQ(ready[0], 2 * fg_cost());
}

TEST_F(PlannerTest, FitsTracksBudget) {
  ReconfigPlanner planner(table_, 2, 1, 0);
  EXPECT_TRUE(planner.fits(2, 1));
  EXPECT_FALSE(planner.fits(3, 0));
  planner.commit({fg1_, cg1_});
  EXPECT_EQ(planner.free_prcs(), 1u);
  EXPECT_EQ(planner.free_cg(), 0u);
  EXPECT_FALSE(planner.fits(0, 1));
  EXPECT_TRUE(planner.fits(1, 0));
}

TEST_F(PlannerTest, CoveredByCommittedUsesMultiplicity) {
  ReconfigPlanner planner(table_, 4, 2, 0);
  planner.commit({fg1_, cg1_});
  EXPECT_TRUE(planner.covered_by_committed({fg1_}));
  EXPECT_TRUE(planner.covered_by_committed({cg1_, fg1_}));
  EXPECT_FALSE(planner.covered_by_committed({fg1_, fg1_}));  // needs 2
  EXPECT_FALSE(planner.covered_by_committed({fg2_}));
  planner.commit({fg1_});
  EXPECT_TRUE(planner.covered_by_committed({fg1_, fg1_}));
}

TEST_F(PlannerTest, UniformReconfigOverridePricesCgLikeFg) {
  ReconfigPlanner planner(table_, 4, 2, 0);
  planner.set_uniform_reconfig_cycles(fg_cost());
  const auto ready = planner.plan({cg1_});
  // The RISPP-style cost model claims the CG context takes an FG-scale load.
  EXPECT_EQ(ready[0], fg_cost());
}

TEST_F(PlannerTest, NowOffsetsSchedules) {
  ReconfigPlanner planner(table_, 4, 2, /*now=*/5000);
  const auto ready = planner.plan({cg1_});
  EXPECT_EQ(ready[0], 5060u);
}

TEST_F(PlannerTest, CopySemanticsForBranchAndBound) {
  ReconfigPlanner planner(table_, 2, 2, 0);
  ReconfigPlanner copy = planner;
  copy.commit({fg1_});
  EXPECT_EQ(planner.free_prcs(), 2u);  // original untouched
  EXPECT_EQ(copy.free_prcs(), 1u);
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

}  // namespace
}  // namespace mrts
