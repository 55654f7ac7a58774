// Unit tests for FabricManager: installing selections, data-path reuse and
// eviction across functional blocks, monoCG acquisition and availability
// queries.

#include <gtest/gtest.h>

#include "arch/fabric_manager.h"
#include "rts/reconfig_plan.h"
#include "workload/h264_app.h"

namespace mrts {
namespace {

class FabricManagerTest : public ::testing::Test {
 protected:
  FabricManagerTest() {
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

    DataPathDesc mono;
    mono.name = "mono";
    mono.grain = Grain::kCoarse;
    mono.context_instructions = 32;
    mono_ = table_.add(mono);
  }

  Cycles fg_cost() const { return table_[fg1_].reconfig_cycles(); }

  DataPathTable table_;
  DataPathId fg1_, fg2_, cg1_, mono_;
};

TEST_F(FabricManagerTest, InstallSchedulesFgSeriallyAndCgFast) {
  FabricManager fm(2, 2, &table_);
  const auto placements = fm.install(
      {{IseId{0}, KernelId{0}, {cg1_, fg1_, fg2_}}}, /*now=*/0);
  ASSERT_EQ(placements.size(), 1u);
  const auto& p = placements[0];
  ASSERT_EQ(p.instance_ready.size(), 3u);
  EXPECT_EQ(p.instance_ready[0], 60u);              // CG context load
  EXPECT_EQ(p.instance_ready[1], fg_cost());        // first FG bitstream
  EXPECT_EQ(p.instance_ready[2], 2 * fg_cost());    // serialized behind it
  // prefix_ready is the running maximum.
  EXPECT_EQ(p.prefix_ready[0], 60u);
  EXPECT_EQ(p.prefix_ready[1], fg_cost());
  EXPECT_EQ(p.prefix_ready[2], 2 * fg_cost());
  EXPECT_EQ(p.reused_instances, 0u);
}

TEST_F(FabricManagerTest, InstallRejectsOversizedSelection) {
  FabricManager fm(0, 1, &table_);
  EXPECT_THROW(
      fm.install({{IseId{0}, KernelId{0}, {fg1_, fg2_}}}, 0),
      std::invalid_argument);
  EXPECT_THROW(fm.install({{IseId{0}, KernelId{0}, {cg1_}}}, 0),
               std::invalid_argument);
}

TEST_F(FabricManagerTest, ReinstallReusesLoadedDataPaths) {
  FabricManager fm(1, 2, &table_);
  fm.install({{IseId{0}, KernelId{0}, {fg1_, cg1_}}}, 0);
  // Second block, same ISE: everything is already there (or loading).
  const auto placements =
      fm.install({{IseId{0}, KernelId{0}, {fg1_, cg1_}}}, 1000);
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0].reused_instances, 2u);
  // Ready times keep the original completion times.
  EXPECT_EQ(placements[0].instance_ready[0], fg_cost());
  EXPECT_EQ(placements[0].instance_ready[1], 60u);
}

TEST_F(FabricManagerTest, EvictionCancelsPendingLoadOfReplacedPath) {
  FabricManager fm(0, 1, &table_);
  fm.install({{IseId{0}, KernelId{0}, {fg1_}}}, 0);
  // Before fg1 finishes loading, a new selection wants fg2 instead. The
  // pending fg1 job (which started at t=0, so it is running) blocks the
  // port until it completes; fg2 is serialized behind it.
  const auto placements = fm.install({{IseId{1}, KernelId{1}, {fg2_}}}, 100);
  EXPECT_EQ(placements[0].instance_ready[0], 2 * fg_cost());

  // But a job that has NOT started yet is cancelled: enqueue two, replace
  // the queued (not running) one.
  FabricManager fm2(0, 2, &table_);
  fm2.install({{IseId{0}, KernelId{0}, {fg1_, fg2_}}}, 0);
  // fg2's load is queued behind fg1. Replace the selection with one that
  // keeps fg1 only; fg2's pending job must be cancelled.
  fm2.install({{IseId{2}, KernelId{0}, {fg1_}}}, 100);
  EXPECT_EQ(fm2.reconfig().fg_port().pending(100).size(), 1u);
}

TEST_F(FabricManagerTest, AvailableInstancesCountsBothFabrics) {
  FabricManager fm(2, 2, &table_);
  fm.install({{IseId{0}, KernelId{0}, {fg1_, cg1_}}}, 0);
  EXPECT_EQ(fm.available_instances(fg1_, 0), 0u);  // still loading
  EXPECT_EQ(fm.available_instances(fg1_, fg_cost()), 1u);
  EXPECT_EQ(fm.available_instances(cg1_, 60), 1u);
  EXPECT_EQ(fm.available_instances(fg2_, fg_cost()), 0u);
}

TEST_F(FabricManagerTest, MonoCgPrefersUnreservedFabric) {
  FabricManager fm(2, 0, &table_);
  fm.install({{IseId{0}, KernelId{0}, {cg1_}}}, 0);
  EXPECT_EQ(fm.usage().usable_cg() - fm.usage().reserved_cg, 1u);
  const auto ready = fm.acquire_mono_cg(mono_, 100);
  ASSERT_TRUE(ready.has_value());
  // 32 instructions x 2 cycles = 64 cycle stream + 2 cycle context switch.
  EXPECT_EQ(*ready, 100u + 64u + 2u);
  // The selection's fabric is untouched.
  EXPECT_TRUE(fm.cg_fabric(0).slot_of(cg1_).has_value());
  EXPECT_FALSE(fm.cg_fabric(0).slot_of(mono_).has_value());
}

TEST_F(FabricManagerTest, MonoCgUsesFreeContextSlotOfReservedFabric) {
  // All CG fabrics are reserved by the selection, but the context memory
  // stores multiple contexts: the monoCG shares the fabric and pays only
  // the 2-cycle context switch at execution time.
  FabricManager fm(1, 0, &table_);
  fm.install({{IseId{0}, KernelId{0}, {cg1_}}}, 0);
  EXPECT_EQ(fm.usage().usable_cg() - fm.usage().reserved_cg, 0u);
  const auto ready = fm.acquire_mono_cg(mono_, 100);
  ASSERT_TRUE(ready.has_value());
  EXPECT_EQ(*ready, 100u + 64u + 2u);
  // The selected context is still resident.
  EXPECT_TRUE(fm.cg_fabric(0).slot_of(cg1_).has_value());
}

TEST_F(FabricManagerTest, MonoCgFailsWhenAllContextSlotsTaken) {
  CgFabricParams tiny;
  tiny.max_resident_contexts = 1;
  FabricManager fm(1, 0, &table_, tiny);
  fm.install({{IseId{0}, KernelId{0}, {cg1_}}}, 0);
  EXPECT_FALSE(fm.acquire_mono_cg(mono_, 100).has_value());
}

TEST_F(FabricManagerTest, MonoCgKeepsTheContextTheSelectionClaimed) {
  // The native CG victim is the first unclaimed fabric, so fabric 0
  // collects contexts: after the fourth install it holds x (claimed by the
  // selection) and a stale copy of y (the selection loads y onto fabric 1).
  // A monoCG load onto the full, reserved fabric 0 must evict the stale y,
  // never x: x has no other instance, and the ECU credits its ISE.
  DataPathDesc desc;
  desc.grain = Grain::kCoarse;
  desc.name = "y";
  const DataPathId x = cg1_;
  const DataPathId y = table_.add(desc);
  desc.name = "z";
  const DataPathId z = table_.add(desc);
  CgFabricParams two;
  two.max_resident_contexts = 2;
  FabricManager fm(2, 0, &table_, two);
  fm.install({{IseId{0}, KernelId{0}, {x}}}, 0);
  fm.install({{IseId{1}, KernelId{1}, {y}}}, 1000);
  fm.install({{IseId{0}, KernelId{0}, {x, z}}}, 2000);
  fm.install({{IseId{0}, KernelId{0}, {x, y}}}, 3000);
  ASSERT_TRUE(fm.cg_fabric(0).slot_of(x).has_value());
  ASSERT_TRUE(fm.cg_fabric(0).slot_of(y).has_value());
  ASSERT_TRUE(fm.cg_fabric(1).slot_of(y).has_value());

  ASSERT_TRUE(fm.acquire_mono_cg(mono_, 4000).has_value());
  EXPECT_TRUE(fm.cg_fabric(0).slot_of(mono_).has_value());
  EXPECT_EQ(fm.available_instances(x, kNeverCycles), 1u);
  EXPECT_TRUE(fm.cg_fabric(0).slot_of(x).has_value());
  EXPECT_FALSE(fm.cg_fabric(0).slot_of(y).has_value());
  EXPECT_EQ(fm.available_instances(y, kNeverCycles), 1u);
}

TEST_F(FabricManagerTest, MonoCgReacquisitionIsCheap) {
  FabricManager fm(1, 0, &table_);
  const auto first = fm.acquire_mono_cg(mono_, 0);
  ASSERT_TRUE(first.has_value());
  const auto again = fm.acquire_mono_cg(mono_, *first + 100);
  ASSERT_TRUE(again.has_value());
  // Already resident and active: no load, no switch.
  EXPECT_EQ(*again, *first + 100);
}

TEST_F(FabricManagerTest, MonoCgRejectsFgDataPath) {
  FabricManager fm(1, 1, &table_);
  EXPECT_THROW(fm.acquire_mono_cg(fg1_, 0), std::invalid_argument);
}

TEST_F(FabricManagerTest, UsageReflectsReservations) {
  FabricManager fm(2, 3, &table_);
  fm.install({{IseId{0}, KernelId{0}, {fg1_, fg2_, cg1_}}}, 0);
  const FabricUsage u = fm.usage();
  EXPECT_EQ(u.total_prcs, 3u);
  EXPECT_EQ(u.total_cg, 2u);
  EXPECT_EQ(u.reserved_prcs, 2u);
  EXPECT_EQ(u.reserved_cg, 1u);
}

TEST_F(FabricManagerTest, ResetClearsEverything) {
  FabricManager fm(1, 1, &table_);
  fm.install({{IseId{0}, KernelId{0}, {fg1_}}}, 0);
  fm.reset();
  EXPECT_EQ(fm.available_instances(fg1_, kNeverCycles - 1), 0u);
  EXPECT_EQ(fm.usage().reserved_prcs, 0u);
  EXPECT_EQ(fm.fg_port_free_at(5), 5u);
}

TEST_F(FabricManagerTest, NullTableRejected) {
  EXPECT_THROW(FabricManager(1, 1, nullptr), std::invalid_argument);
}

TEST_F(FabricManagerTest, InstanceReadyTimesMergedAcrossFabrics) {
  FabricManager fm(2, 1, &table_);
  fm.install({{IseId{0}, KernelId{0}, {cg1_}}, {IseId{1}, KernelId{1}, {fg1_}}},
             0);
  std::vector<Cycles> times;
  fm.append_instance_ready_times(cg1_, times);
  EXPECT_EQ(times, (std::vector<Cycles>{60}));
  fm.append_instance_ready_times(fg1_, times);
  EXPECT_EQ(times, (std::vector<Cycles>{fg_cost()}));
  fm.append_instance_ready_times(fg2_, times);
  EXPECT_TRUE(times.empty());
}

// The ECU's per-kernel decision memo (rts/ecu.h) is exact only if every
// fabric mutation bumps state_epoch() and no pure read does.
TEST(FabricEpoch, BumpsOnEveryFabricMutation) {
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
  fabric.quarantine(Grain::kFine, 1, 10);
  bumped("quarantine PRC");
  fabric.quarantine(Grain::kCoarse, 1, 10);
  bumped("quarantine CG fabric");
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
  fabric.quarantine(Grain::kFine, 1000, 0);
  fabric.quarantine(Grain::kCoarse, 1000, 0);
  EXPECT_EQ(fabric.state_epoch(), before_reads);
}

}  // namespace
}  // namespace mrts
