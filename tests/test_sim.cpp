// Unit tests for the simulator layer: trigger derivation, block simulation
// (cycle conservation, observation correctness) and application profiling.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "baselines/risc_only_rts.h"
#include "isa/ise_builder.h"
#include "sim/app_simulator.h"
#include "sim/fb_simulator.h"
#include "sim/metrics.h"
#include "sim/schedule.h"
#include "util/fastpath.h"

namespace mrts {
namespace {

IseLibrary one_kernel_library() {
  IseLibrary lib;
  IseBuildSpec spec;
  spec.kernel_name = "K";
  spec.sw_latency = 100;
  spec.control_fraction = 0.5;
  spec.fg_data_path_names = {"fg"};
  spec.cg_data_path_names = {"cg"};
  build_kernel_ises(lib, spec);
  return lib;
}

FunctionalBlockInstance simple_instance(KernelId k) {
  FunctionalBlockInstance inst;
  inst.functional_block = FunctionalBlockId{0};
  inst.events = {{k, 10}, {k, 20}, {k, 30}};
  inst.tail_gap = 40;
  inst.programmed.functional_block = FunctionalBlockId{0};
  inst.programmed.entries.push_back({k, 3.0, 10, 25});
  return inst;
}

TEST(DeriveTrigger, ComputesExecutionsTfTb) {
  const IseLibrary lib = one_kernel_library();
  const KernelId k = lib.find_kernel("K");
  const FunctionalBlockInstance inst = simple_instance(k);
  const TriggerInstruction ti =
      derive_trigger(inst, risc_latency_table(lib));
  ASSERT_EQ(ti.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(ti.entries[0].expected_executions, 3.0);
  EXPECT_EQ(ti.entries[0].time_to_first, 10u);
  // Gaps between executions: 20 and 30 -> average 25.
  EXPECT_EQ(ti.entries[0].time_between, 25u);
}

TEST(DeriveTrigger, MultipleKernelsInterleaved) {
  const IseLibrary lib = [] {
    IseLibrary l;
    IseBuildSpec a;
    a.kernel_name = "A";
    a.sw_latency = 10;
    a.fg_data_path_names = {"a_fg"};
    build_kernel_ises(l, a);
    IseBuildSpec b;
    b.kernel_name = "B";
    b.sw_latency = 20;
    b.fg_data_path_names = {"b_fg"};
    build_kernel_ises(l, b);
    return l;
  }();
  const KernelId a = lib.find_kernel("A");
  const KernelId b = lib.find_kernel("B");
  FunctionalBlockInstance inst;
  inst.functional_block = FunctionalBlockId{1};
  inst.events = {{a, 5}, {b, 0}, {a, 0}};
  const TriggerInstruction ti = derive_trigger(inst, risc_latency_table(lib));
  ASSERT_EQ(ti.entries.size(), 2u);
  const TriggerEntry* ea = ti.find(a);
  ASSERT_NE(ea, nullptr);
  EXPECT_DOUBLE_EQ(ea->expected_executions, 2.0);
  EXPECT_EQ(ea->time_to_first, 5u);
  // A's executions: [5,15) and [35,45): gap = 35-15 = 20.
  EXPECT_EQ(ea->time_between, 20u);
  const TriggerEntry* eb = ti.find(b);
  ASSERT_NE(eb, nullptr);
  EXPECT_EQ(eb->time_to_first, 15u);
}

TEST(RunBlock, CyclesAreConserved) {
  const IseLibrary lib = one_kernel_library();
  const KernelId k = lib.find_kernel("K");
  RiscOnlyRts rts(lib);
  const FbRunResult r = run_block(rts, simple_instance(k), 1000);
  // 10+100 + 20+100 + 30+100 + 40 tail = 400, no overhead for RISC-only.
  EXPECT_EQ(r.cycles, 400u);
  EXPECT_EQ(r.blocking_overhead, 0u);
  EXPECT_EQ(r.impl_executions[static_cast<std::size_t>(ImplKind::kRisc)], 3u);
  EXPECT_EQ(r.impl_cycles[static_cast<std::size_t>(ImplKind::kRisc)], 300u);
}

TEST(RunBlock, ObservationMatchesSchedule) {
  const IseLibrary lib = one_kernel_library();
  const KernelId k = lib.find_kernel("K");
  RiscOnlyRts rts(lib);
  const FbRunResult r = run_block(rts, simple_instance(k), 0);
  ASSERT_EQ(r.observed.kernels.size(), 1u);
  const ObservedKernelStats& obs = r.observed.kernels[0];
  EXPECT_DOUBLE_EQ(obs.executions, 3.0);
  EXPECT_EQ(obs.time_to_first, 10u);
  EXPECT_EQ(obs.time_between, 25u);
}

TEST(RunBlock, ThrowingBlockLeavesNoObservationBehind) {
  // A block that throws partway must not leave its kernels' observation
  // scratch marked seen: the next block on the same thread would then drop
  // them from its BlockObservation. The per-event loop is the oracle.
  const IseLibrary lib = one_kernel_library();
  const KernelId k = lib.find_kernel("K");
  FunctionalBlockInstance bad;
  bad.events = {{k, 10}, {KernelId{99}, 10}};
  const bool previous = fastpath_enabled();
  std::vector<ObservedKernelStats> observed[2];
  for (const bool fast : {false, true}) {
    set_fastpath_enabled(fast);
    RiscOnlyRts rts(lib);
    EXPECT_THROW(run_block(rts, bad, 0), std::out_of_range);
    observed[fast] = run_block(rts, simple_instance(k), 0).observed.kernels;
  }
  set_fastpath_enabled(previous);
  ASSERT_EQ(observed[false].size(), 1u);
  ASSERT_EQ(observed[true].size(), 1u);
  EXPECT_EQ(observed[true][0].kernel, observed[false][0].kernel);
  EXPECT_DOUBLE_EQ(observed[true][0].executions, observed[false][0].executions);
  EXPECT_EQ(observed[true][0].time_to_first, observed[false][0].time_to_first);
  EXPECT_EQ(observed[true][0].time_between, observed[false][0].time_between);
}

TEST(RunApplication, AccumulatesBlocks) {
  const IseLibrary lib = one_kernel_library();
  const KernelId k = lib.find_kernel("K");
  ApplicationTrace trace;
  trace.name = "t";
  trace.blocks = {simple_instance(k), simple_instance(k)};
  RiscOnlyRts rts(lib);
  const AppRunResult r = run_application(rts, trace);
  EXPECT_EQ(r.total_cycles, 800u);
  ASSERT_EQ(r.block_cycles.size(), 2u);
  EXPECT_EQ(r.block_cycles[0], 400u);
  EXPECT_EQ(r.rts_name, "RISC-only");
  EXPECT_DOUBLE_EQ(r.impl_fraction(ImplKind::kRisc), 1.0);
}

TEST(ProfileApplication, AveragesPerBlock) {
  const IseLibrary lib = one_kernel_library();
  const KernelId k = lib.find_kernel("K");
  FunctionalBlockInstance small = simple_instance(k);
  FunctionalBlockInstance big = simple_instance(k);
  big.events.push_back({k, 10});  // 4 executions
  ApplicationTrace trace;
  trace.blocks = {small, big};
  const std::vector<BlockProfile> profile = profile_application(trace, lib);
  ASSERT_EQ(profile.size(), 1u);
  EXPECT_DOUBLE_EQ(profile[0].invocations, 2.0);
  ASSERT_EQ(profile[0].average.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(profile[0].average.entries[0].expected_executions, 3.5);
}

TEST(Metrics, FabricSweepOrderAndLabels) {
  const auto sweep = fabric_sweep(1, 2);
  ASSERT_EQ(sweep.size(), 6u);
  EXPECT_EQ(sweep[0].label(), "00");
  EXPECT_EQ(sweep[1].label(), "01");
  EXPECT_EQ(sweep[5].label(), "12");
  EXPECT_TRUE(sweep[0].risc_only());
  EXPECT_TRUE(sweep[1].cg_only());
  EXPECT_TRUE(sweep[3].fg_only());
  EXPECT_TRUE(sweep[4].multi_grained());
}

TEST(Metrics, SpeedupAndPercentDifference) {
  EXPECT_DOUBLE_EQ(speedup(200, 100), 2.0);
  EXPECT_DOUBLE_EQ(speedup(200, 0), 0.0);
  EXPECT_DOUBLE_EQ(percent_difference(100.0, 111.0), 11.0);
  EXPECT_DOUBLE_EQ(percent_difference(0.0, 5.0), 0.0);
}

TEST(DeriveTrigger, ThrowsOnUnknownKernel) {
  FunctionalBlockInstance inst;
  inst.events = {{KernelId{99}, 0}};
  EXPECT_THROW(derive_trigger(inst, {10, 20}), std::invalid_argument);
}

}  // namespace
}  // namespace mrts
