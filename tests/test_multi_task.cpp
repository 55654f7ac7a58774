// Tests for multi-task fabric sharing: several MRts instances bound to one
// FabricManager, time-sliced on the core (Section 1's "fabric shared among
// various tasks" scenario).

#include <gtest/gtest.h>

#include "baselines/risc_only_rts.h"
#include "isa/ise_builder.h"
#include "rts/mrts.h"
#include "sim/app_simulator.h"
#include "sim/multi_app.h"
#include "workload/workload_gen.h"

namespace mrts {
namespace {

/// A small application: one functional block repeated `blocks` times, one
/// kernel, enough executions per block to amortize its ISEs.
struct SmallApp {
  IseLibrary library;
  ApplicationTrace trace;
  KernelId kernel;
};

SmallApp make_app(const std::string& kernel_name, unsigned blocks,
                  std::uint64_t seed) {
  SmallApp app;
  IseBuildSpec spec;
  spec.kernel_name = kernel_name;
  spec.sw_latency = 700;
  spec.control_fraction = 0.4;
  spec.fg_data_path_names = {kernel_name + "_ctrl_fg", kernel_name + "_dp_fg"};
  spec.cg_data_path_names = {kernel_name + "_mac_cg"};
  spec.fg_control_dps = 1;
  spec.cg_data_dps = 1;
  app.kernel = build_kernel_ises(app.library, spec);

  Rng rng(seed);
  for (unsigned b = 0; b < blocks; ++b) {
    FunctionalBlockInstance inst = make_block_instance(
        FunctionalBlockId{0}, /*macroblocks=*/400,
        {{app.kernel, 8.0, 25, 0.1}}, /*entry_gap=*/200, /*tail_gap=*/200,
        rng);
    stamp_programmed_trigger(inst, app.library);
    app.trace.blocks.push_back(std::move(inst));
  }
  return app;
}

TEST(MultiTask, SharedFabricConstructorWiring) {
  const SmallApp app = make_app("K", 2, 1);
  FabricManager shared(2, 2, &app.library.data_paths());
  MRts rts(app.library, shared);
  EXPECT_FALSE(rts.owns_fabric());
  EXPECT_EQ(&rts.fabric(), &shared);

  MRts owning(app.library, 2, 2);
  EXPECT_TRUE(owning.owns_fabric());
}

TEST(MultiTask, ResetLeavesSharedFabricUntouched) {
  const SmallApp app = make_app("K", 2, 1);
  FabricManager shared(2, 2, &app.library.data_paths());
  MRts rts(app.library, shared);
  rts.on_trigger(app.trace.blocks[0].programmed, 0);
  const FabricUsage before = shared.usage();
  EXPECT_GT(before.reserved_prcs + before.reserved_cg, 0u);
  rts.reset();
  const FabricUsage after = shared.usage();
  EXPECT_EQ(after.reserved_prcs, before.reserved_prcs);
  EXPECT_EQ(after.reserved_cg, before.reserved_cg);
}

TEST(MultiTask, RoundRobinInterleavesBlocks) {
  SmallApp a = make_app("A", 3, 1);
  SmallApp b = make_app("B", 2, 2);
  RiscOnlyRts rts_a(a.library);
  RiscOnlyRts rts_b(b.library);
  const MultiTenantResult r = run_multi_tenant(
      {{"A", &rts_a, &a.trace}, {"B", &rts_b, &b.trace}});
  ASSERT_EQ(r.tasks.size(), 2u);
  EXPECT_EQ(r.tasks[0].run.block_cycles.size(), 3u);
  EXPECT_EQ(r.tasks[1].run.block_cycles.size(), 2u);
  // The timeline is exactly the sum of all block times.
  EXPECT_EQ(r.total_cycles,
            r.tasks[0].run.active_cycles + r.tasks[1].run.active_cycles);
  // A has one more block than B, so A finishes last.
  EXPECT_GT(r.tasks[0].run.finished_at, r.tasks[1].run.finished_at);
}

TEST(MultiTask, SharedFabricContentionSlowsTasksButBeatsRisc) {
  // Two tasks with *different* kernels fight for a small fabric. Each must
  // still beat RISC mode, but be slower than having the fabric alone.
  SmallApp a = make_app("A", 6, 1);
  SmallApp b = make_app("B", 6, 2);

  // Alone on the fabric:
  MRts alone_a(a.library, 1, 1);
  const Cycles alone_cycles = run_application(alone_a, a.trace).total_cycles;

  // RISC reference:
  RiscOnlyRts risc_a(a.library);
  const Cycles risc_cycles = run_application(risc_a, a.trace).total_cycles;

  // Sharing: both tasks' libraries must live in one data-path table for a
  // shared FabricManager, so build a combined library.
  IseLibrary combined;
  IseBuildSpec spec_a;
  spec_a.kernel_name = "A";
  spec_a.sw_latency = 700;
  spec_a.control_fraction = 0.4;
  spec_a.fg_data_path_names = {"A_ctrl_fg", "A_dp_fg"};
  spec_a.cg_data_path_names = {"A_mac_cg"};
  spec_a.fg_control_dps = 1;
  spec_a.cg_data_dps = 1;
  build_kernel_ises(combined, spec_a);
  IseBuildSpec spec_b = spec_a;
  spec_b.kernel_name = "B";
  spec_b.fg_data_path_names = {"B_ctrl_fg", "B_dp_fg"};
  spec_b.cg_data_path_names = {"B_mac_cg"};
  build_kernel_ises(combined, spec_b);

  // Rebuild both traces against the combined library (kernel ids 0 and 1).
  auto rebuild = [&combined](const char* name, std::uint64_t seed) {
    ApplicationTrace trace;
    Rng rng(seed);
    const KernelId k = combined.find_kernel(name);
    for (unsigned blk = 0; blk < 6; ++blk) {
      FunctionalBlockInstance inst = make_block_instance(
          FunctionalBlockId{0}, 400, {{k, 8.0, 25, 0.1}}, 200, 200, rng);
      stamp_programmed_trigger(inst, combined);
      trace.blocks.push_back(std::move(inst));
    }
    return trace;
  };
  const ApplicationTrace trace_a = rebuild("A", 1);
  const ApplicationTrace trace_b = rebuild("B", 2);

  FabricManager shared(1, 1, &combined.data_paths());
  MRts rts_a(combined, shared);
  MRts rts_b(combined, shared);
  const MultiTenantResult shared_run = run_multi_tenant(
      {{"A", &rts_a, &trace_a}, {"B", &rts_b, &trace_b}});

  const Cycles shared_a = shared_run.tasks[0].run.active_cycles;
  // Contention cannot make the task faster than running alone...
  EXPECT_GE(shared_a + shared_a / 50, alone_cycles);
  // ...but the RTS still beats RISC mode despite the eviction churn.
  EXPECT_LT(shared_a, risc_cycles);
}

TEST(MultiTask, UnevenTraceLengthsPinInterleaving) {
  // One task exhausts its trace while the other continues: A has 1 block,
  // B has 3. Round-robin order is A1 B1 | B2 | B3 — after A's trace ends,
  // B gets the core back-to-back and the timeline stays gap-free. This
  // pins the interleaving semantics the sweep runner's multi-tenant
  // scenarios build on.
  SmallApp a = make_app("A", 1, 1);
  SmallApp b = make_app("B", 3, 2);
  RiscOnlyRts rts_a(a.library);
  RiscOnlyRts rts_b(b.library);
  const std::vector<Task> tasks = {{"A", &rts_a, &a.trace},
                                   {"B", &rts_b, &b.trace}};
  const MultiTenantResult r = run_multi_tenant(tasks);

  ASSERT_EQ(r.tasks[0].run.block_cycles.size(), 1u);
  ASSERT_EQ(r.tasks[1].run.block_cycles.size(), 3u);
  // A runs first in round 1, so it finishes exactly when its only block
  // ends — before any later block of B.
  EXPECT_EQ(r.tasks[0].run.finished_at, r.tasks[0].run.block_cycles[0]);
  // B's last block closes the gap-free timeline.
  EXPECT_EQ(r.tasks[1].run.finished_at, r.total_cycles);
  EXPECT_EQ(r.total_cycles,
            r.tasks[0].run.active_cycles + r.tasks[1].run.active_cycles);
}

TEST(MultiTask, TaskVectorIsNotCopied) {
  // run_multi_tenant takes the task list by const reference; the caller's
  // vector (including the non-owned pointers) must be left untouched.
  SmallApp a = make_app("A", 2, 1);
  RiscOnlyRts rts(a.library);
  const std::vector<Task> tasks = {{"A", &rts, &a.trace, 2}};
  const Task* before = tasks.data();
  const MultiTenantResult r = run_multi_tenant(tasks);
  EXPECT_EQ(tasks.data(), before);
  EXPECT_EQ(tasks[0].rts, &rts);
  EXPECT_EQ(r.tasks[0].run.block_cycles.size(), 2u);
}

TEST(MultiTask, WeightedSlicesGiveLargerShare) {
  SmallApp a = make_app("A", 6, 1);
  SmallApp b = make_app("B", 6, 2);
  RiscOnlyRts rts_a(a.library);
  RiscOnlyRts rts_b(b.library);
  // A gets 3 blocks per turn, B gets 1: A's 6 blocks finish in 2 turns while
  // B has only run 2 blocks.
  const MultiTenantResult r = run_multi_tenant(
      {{"A", &rts_a, &a.trace, 3}, {"B", &rts_b, &b.trace, 1}});
  EXPECT_EQ(r.tasks[0].run.block_cycles.size(), 6u);
  EXPECT_EQ(r.tasks[1].run.block_cycles.size(), 6u);
  // With weight 3, A's last block ends before B's third block starts:
  // ordering A A A B | A A A B | B B B B -> A finishes during round 2.
  EXPECT_LT(r.tasks[0].run.finished_at, r.tasks[1].run.finished_at);
}

TEST(MultiTask, ZeroSliceWeightRejected) {
  SmallApp a = make_app("A", 1, 1);
  RiscOnlyRts rts(a.library);
  EXPECT_THROW(run_multi_tenant({{"A", &rts, &a.trace, 0}}),
               std::invalid_argument);
}

TEST(MultiTask, NullTaskRejected) {
  SmallApp a = make_app("A", 1, 1);
  RiscOnlyRts rts(a.library);
  EXPECT_THROW(run_multi_tenant({{"bad", nullptr, &a.trace}}),
               std::invalid_argument);
  EXPECT_THROW(run_multi_tenant({{"bad", &rts, nullptr}}),
               std::invalid_argument);
}

TEST(MultiTask, EmptyTaskListIsZeroCycles) {
  const MultiTenantResult r = run_multi_tenant({});
  EXPECT_EQ(r.total_cycles, 0u);
  EXPECT_TRUE(r.tasks.empty());
}

TEST(MultiTask, DeterministicAcrossRuns) {
  SmallApp a = make_app("A", 4, 1);
  auto run_once = [&a]() {
    MRts rts(a.library, 1, 1);
    return run_application(rts, a.trace).total_cycles;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace mrts
