// Tests for the cross-block reconfiguration lookahead (extension beyond the
// paper): speculative prefetch into leftover fabric, predictor behaviour and
// the guarantee that speculation never disturbs the live selection.

#include <gtest/gtest.h>

#include "rts/mrts.h"
#include "sim/app_simulator.h"
#include "workload/h264_app.h"

namespace mrts {
namespace {

H264AppParams small_params() {
  H264AppParams p;
  p.frames = 4;
  p.macroblocks = 200;
  return p;
}

TEST(Lookahead, PrefetchesAfterOneRoundOfBlocks) {
  const H264Application app = build_h264_application(small_params());
  MRtsConfig cfg;
  cfg.enable_lookahead = true;
  MRts rts(app.library, 3, 3, cfg);
  const AppRunResult r = run_application(rts, app.trace);
  (void)r;
  // After the first frame the ME->EE->LF->ME cycle is known; speculative
  // loads must have been issued.
  EXPECT_GT(rts.run_stats().lookahead_prefetches, 0u);
}

TEST(Lookahead, NeverSlowerThanBaselineOnCyclicWorkload) {
  const H264Application app = build_h264_application(small_params());
  MRts base(app.library, 3, 3);
  const Cycles base_cycles = run_application(base, app.trace).total_cycles;
  MRtsConfig cfg;
  cfg.enable_lookahead = true;
  MRts ahead(app.library, 3, 3, cfg);
  const Cycles ahead_cycles = run_application(ahead, app.trace).total_cycles;
  // The block sequence is perfectly cyclic, so predictions are always right;
  // warming idle fabric must not hurt (allow 2% tolerance for second-order
  // effects: speculative loads occupy the FG port).
  EXPECT_LE(ahead_cycles, base_cycles + base_cycles / 50);
}

TEST(Lookahead, PrefetchLeavesReservationsIntact) {
  DataPathTable table;
  DataPathDesc fg1;
  fg1.name = "fg1";
  fg1.grain = Grain::kFine;
  const DataPathId fg1_id = table.add(fg1);
  DataPathDesc fg2;
  fg2.name = "fg2";
  fg2.grain = Grain::kFine;
  const DataPathId fg2_id = table.add(fg2);

  FabricManager fm(1, 2, &table);
  fm.install({{IseId{0}, KernelId{0}, {fg1_id}}}, 0);
  const FabricUsage before = fm.usage();

  // Prefetch a future data path: it must land on the unreserved PRC.
  const std::size_t started =
      fm.prefetch({{IseId{1}, KernelId{1}, {fg2_id}}}, 100);
  EXPECT_EQ(started, 1u);
  const FabricUsage after = fm.usage();
  EXPECT_EQ(after.reserved_prcs, before.reserved_prcs);
  // fg1 is untouched; fg2 is loading.
  EXPECT_EQ(fm.available_instances(fg1_id, kNeverCycles), 1u);
  EXPECT_EQ(fm.available_instances(fg2_id, kNeverCycles), 1u);

  // No room left: a second prefetch finds no victim.
  DataPathDesc fg3;
  fg3.name = "fg3";
  fg3.grain = Grain::kFine;
  const DataPathId fg3_id = table.add(fg3);
  // fg2 occupies the only unreserved PRC but is NOT reserved, so it may be
  // overwritten by a later prefetch round; the reserved fg1 may not.
  const std::size_t second =
      fm.prefetch({{IseId{2}, KernelId{2}, {fg3_id}}}, 200);
  EXPECT_EQ(second, 1u);
  EXPECT_EQ(fm.available_instances(fg1_id, kNeverCycles), 1u)
      << "the reserved data path must never be evicted by speculation";
}

TEST(Lookahead, AlreadyLoadedDataPathsAreSkipped) {
  DataPathTable table;
  DataPathDesc fg1;
  fg1.name = "fg1";
  fg1.grain = Grain::kFine;
  const DataPathId fg1_id = table.add(fg1);
  FabricManager fm(0, 2, &table);
  fm.install({{IseId{0}, KernelId{0}, {fg1_id}}}, 0);
  EXPECT_EQ(fm.prefetch({{IseId{0}, KernelId{0}, {fg1_id}}}, 10), 0u);
}

TEST(Lookahead, DisabledByDefault) {
  const H264Application app = build_h264_application(small_params());
  MRts rts(app.library, 2, 2);
  run_application(rts, app.trace);
  EXPECT_EQ(rts.run_stats().lookahead_prefetches, 0u);
}

}  // namespace
}  // namespace mrts
