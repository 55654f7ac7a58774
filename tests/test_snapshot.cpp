// Whole-runtime checkpoint/restore (rts/snapshot.h, format mrts.snapshot.v2):
// a restored run must be bit-identical to the uninterrupted one — cycles,
// trace events, counters and fault statistics — and malformed bytes must
// never crash or partially mutate a live runtime.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "rts/mrts.h"
#include "rts/snapshot.h"
#include "sim/app_simulator.h"
#include "util/counters.h"
#include "util/rng.h"
#include "util/snapshot_io.h"
#include "util/trace.h"
#include "workload/h264_app.h"

namespace mrts {
namespace {

std::string jsonl(const TraceRecorder& rec) {
  std::ostringstream os;
  write_trace_jsonl(os, rec.events());
  return os.str();
}

/// One faulty observed run, stoppable mid-flight: everything the split-run
/// tests need to compare against the uninterrupted execution.
struct ObservedRun {
  H264Application app;
  MRtsConfig config;
  MRts rts;
  TraceRecorder rec;
  CounterRegistry ctr;
  AppRunProgress progress;

  static MRtsConfig faulty_config() {
    MRtsConfig c;
    c.fault = FaultModelConfig::uniform(0.05, 7);
    return c;
  }

  ObservedRun()
      : app(build_h264_application([] {
          H264AppParams p;
          p.frames = 2;
          return p;
        }())),
        config(faulty_config()),
        rts(app.library, 1, 4, config) {
    rts.attach_observability(&rec, &ctr);
  }

  /// Runs until the cycle cursor passes \p stop (kNeverCycles = to the end).
  bool run(Cycles stop = kNeverCycles) {
    return run_application_portion(rts, app.trace, progress, &rec, stop);
  }
};

CheckpointMeta test_meta() {
  CheckpointMeta meta;
  meta.app = "h264";
  meta.prcs = 4;
  meta.cg = 1;
  meta.frames = 2;
  meta.fault = ObservedRun::faulty_config().fault;
  meta.trace_path = "out/trace.jsonl";
  meta.report_path = "out/report.csv";
  meta.checkpoint_every = 123456;
  meta.checkpoint_path = "out/run.snapshot";
  meta.sequence = 3;
  return meta;
}

TEST(Snapshot, MetaHeaderRoundTrips) {
  ObservedRun run;
  const CheckpointMeta meta = test_meta();
  const std::vector<std::uint8_t> bytes =
      build_snapshot(meta, run.rts, run.progress, &run.rec, &run.ctr);
  const CheckpointMeta back = read_snapshot_meta(bytes);
  EXPECT_EQ(back.app, meta.app);
  EXPECT_EQ(back.prcs, meta.prcs);
  EXPECT_EQ(back.cg, meta.cg);
  EXPECT_EQ(back.frames, meta.frames);
  EXPECT_EQ(back.fault.seed, meta.fault.seed);
  EXPECT_DOUBLE_EQ(back.fault.fg_load_failure_prob,
                   meta.fault.fg_load_failure_prob);
  EXPECT_EQ(back.fault.max_retries, meta.fault.max_retries);
  EXPECT_EQ(back.trace_path, meta.trace_path);
  EXPECT_EQ(back.report_path, meta.report_path);
  EXPECT_EQ(back.checkpoint_every, meta.checkpoint_every);
  EXPECT_EQ(back.checkpoint_path, meta.checkpoint_path);
  EXPECT_EQ(back.sequence, meta.sequence);
}

TEST(Snapshot, SplitRunEqualsWholeRunWithFaults) {
  // Reference: the uninterrupted observed run.
  ObservedRun whole;
  ASSERT_TRUE(whole.run());
  ASSERT_GT(whole.progress.partial.total_cycles, 0u);

  // Checkpointed run: stop near the middle, snapshot, throw the process
  // state away (fresh MRts + streams) and restore.
  ObservedRun half;
  ASSERT_FALSE(half.run(whole.progress.partial.total_cycles / 2));
  ASSERT_TRUE(half.progress.started());
  const std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), half.rts, half.progress, &half.rec, &half.ctr);

  ObservedRun resumed;
  apply_snapshot(bytes, resumed.rts, resumed.progress, &resumed.rec,
                 &resumed.ctr);
  ASSERT_TRUE(resumed.progress.started());
  ASSERT_TRUE(resumed.run());

  // Bit-identical resume: cycles, per-block latencies, trace, counters.
  EXPECT_EQ(resumed.progress.partial.total_cycles,
            whole.progress.partial.total_cycles);
  EXPECT_EQ(resumed.progress.partial.block_cycles,
            whole.progress.partial.block_cycles);
  EXPECT_EQ(resumed.progress.partial.impl_executions,
            whole.progress.partial.impl_executions);
  EXPECT_EQ(jsonl(resumed.rec), jsonl(whole.rec));
  EXPECT_EQ(resumed.ctr.counters(), whole.ctr.counters());

  // Satellite: fault statistics and the fault RNG stream resume exactly —
  // the restored run draws the same faults the uninterrupted one did.
  ASSERT_NE(whole.rts.fault_model(), nullptr);
  ASSERT_NE(resumed.rts.fault_model(), nullptr);
  const FaultStats& a = whole.rts.fault_model()->stats();
  const FaultStats& b = resumed.rts.fault_model()->stats();
  EXPECT_EQ(b.injected, a.injected);
  EXPECT_EQ(b.load_failures, a.load_failures);
  EXPECT_EQ(b.retries, a.retries);
  EXPECT_EQ(b.failed_loads, a.failed_loads);
  EXPECT_EQ(b.transient_upsets, a.transient_upsets);
  EXPECT_EQ(b.scrub_repairs, a.scrub_repairs);
  EXPECT_EQ(b.quarantined_prcs, a.quarantined_prcs);
  EXPECT_EQ(b.quarantined_cg, a.quarantined_cg);
}

TEST(Snapshot, RestoreMarkerIsOptInOnly) {
  ObservedRun half;
  ASSERT_FALSE(half.run(1'000'000));
  const std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), half.rts, half.progress, &half.rec, &half.ctr);

  ObservedRun resumed;
  TraceRecorder marker;
  apply_snapshot(bytes, resumed.rts, resumed.progress, &resumed.rec,
                 &resumed.ctr, &marker);
  // The resumed recorder holds exactly the checkpointed prefix (no
  // kSnapshotRestore pollution — that would break trace bit-identity); the
  // side-channel marker recorder gets the one restore event.
  EXPECT_EQ(jsonl(resumed.rec), jsonl(half.rec));
  ASSERT_EQ(marker.events().size(), 1u);
  EXPECT_EQ(marker.events()[0].kind, TraceEventKind::kSnapshotRestore);
}

TEST(Snapshot, EveryTruncationIsRejectedWithoutMutation) {
  ObservedRun half;
  ASSERT_FALSE(half.run(1'000'000));
  const std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), half.rts, half.progress, &half.rec, &half.ctr);
  ASSERT_GT(bytes.size(), 24u);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + len);
    EXPECT_THROW(read_snapshot_meta(prefix), SnapshotError)
        << "prefix of " << len << " bytes must be rejected";
  }

  // A truncated apply must leave the runtime untouched: the resumed run
  // from the intact image is still bit-identical afterwards.
  ObservedRun resumed;
  const std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() + bytes.size() / 2);
  EXPECT_THROW(apply_snapshot(cut, resumed.rts, resumed.progress,
                              &resumed.rec, &resumed.ctr),
               SnapshotError);
  EXPECT_FALSE(resumed.progress.started());
  apply_snapshot(bytes, resumed.rts, resumed.progress, &resumed.rec,
                 &resumed.ctr);
  EXPECT_EQ(resumed.progress.next_block, half.progress.next_block);
}

TEST(Snapshot, SeededByteFlipFuzzNeverCrashes) {
  ObservedRun half;
  ASSERT_FALSE(half.run(1'000'000));
  const std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), half.rts, half.progress, &half.rec, &half.ctr);

  Rng rng(0xF1A9);
  ObservedRun victim;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> corrupt = bytes;
    const std::size_t pos = rng.next_below(corrupt.size());
    const std::uint8_t bit =
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    corrupt[pos] ^= bit;
    // Header flips fail magic/version/size checks; any payload flip fails
    // the CRC — validated before anything is touched, so the victim runtime
    // stays pristine through all 200 attacks.
    EXPECT_THROW(read_snapshot_meta(corrupt), SnapshotError)
        << "flip of bit " << int(bit) << " at offset " << pos;
    EXPECT_THROW(apply_snapshot(corrupt, victim.rts, victim.progress,
                                &victim.rec, &victim.ctr),
                 SnapshotError);
    EXPECT_FALSE(victim.progress.started());
  }
  // The pristine victim still accepts the intact image.
  apply_snapshot(bytes, victim.rts, victim.progress, &victim.rec,
                 &victim.ctr);
  EXPECT_EQ(victim.progress.next_block, half.progress.next_block);
}

TEST(Snapshot, ErrorsNameTheFailingOffset) {
  ObservedRun run;
  std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), run.rts, run.progress, &run.rec, &run.ctr);

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[3] ^= 0xFF;
  try {
    read_snapshot_meta(bad_magic);
    FAIL() << "bad magic must throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.offset(), 3u);
    EXPECT_NE(std::string(e.what()).find("offset 3"), std::string::npos);
  }

  std::vector<std::uint8_t> bad_version = bytes;
  bad_version[8] = 0x7F;  // version lives at [8..12)
  try {
    read_snapshot_meta(bad_version);
    FAIL() << "unknown version must throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.offset(), 8u);
  }
}

TEST(Snapshot, ApplyRejectsMismatchedRuntimeShape) {
  ObservedRun half;
  ASSERT_FALSE(half.run(1'000'000));
  const std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), half.rts, half.progress, &half.rec, &half.ctr);

  // Wrong fabric shape: 2 PRCs instead of the checkpointed 4.
  const H264Application app = build_h264_application([] {
    H264AppParams p;
    p.frames = 2;
    return p;
  }());
  MRts wrong(app.library, 1, 2, ObservedRun::faulty_config());
  TraceRecorder rec;
  CounterRegistry ctr;
  wrong.attach_observability(&rec, &ctr);
  AppRunProgress progress;
  EXPECT_THROW(apply_snapshot(bytes, wrong, progress, &rec, &ctr),
               SnapshotError);
  EXPECT_FALSE(progress.started());
}

TEST(Snapshot, FileRoundTripIsAtomicAndWhole) {
  ObservedRun run;
  const std::vector<std::uint8_t> bytes = build_snapshot(
      test_meta(), run.rts, run.progress, &run.rec, &run.ctr);
  const std::string path = ::testing::TempDir() + "snapshot_roundtrip.bin";
  ASSERT_TRUE(write_snapshot_file(path, bytes));
  std::vector<std::uint8_t> back;
  std::string error;
  ASSERT_TRUE(read_snapshot_file(path, &back, &error)) << error;
  EXPECT_EQ(back, bytes);
  std::remove(path.c_str());

  EXPECT_FALSE(read_snapshot_file(path + ".missing", &back, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace mrts
