// Differential tests for the batched frame-execution fast path
// (sim/fb_simulator, util/fastpath.h): the per-event frame loop is the
// oracle. Sweeps must render bit-identical CSVs with the fast path on and
// off, also under fault-induced re-execution and across sweep worker
// counts. The ECU's chunk and per-run memo commits are checked block by
// block against the per-event loop on full-size CIF blocks and on hand-made
// block shapes around the chunk boundaries, and again with a flight
// recorder and counter registry attached, where the trace, counters and
// histograms must match the per-event loop's too.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/fault_model.h"
#include "baselines/morpheus4s_rts.h"
#include "baselines/offline_optimal_rts.h"
#include "baselines/rispp_rts.h"
#include "rts/mrts.h"
#include "serve/serve_core.h"
#include "sim/app_simulator.h"
#include "sim/fb_simulator.h"
#include "sim/metrics.h"
#include "sim/sweep_runner.h"
#include "util/counters.h"
#include "util/csv.h"
#include "util/fastpath.h"
#include "util/rng.h"
#include "util/trace.h"
#include "workload/h264_app.h"
#include "workload/workload_gen.h"

namespace mrts {
namespace {

/// Scoped override of the process-wide fast-path toggle; restores the
/// previous setting on destruction so test order never leaks state.
class FastpathGuard {
 public:
  explicit FastpathGuard(bool enabled) : previous_(fastpath_enabled()) {
    set_fastpath_enabled(enabled);
  }
  ~FastpathGuard() { set_fastpath_enabled(previous_); }
  FastpathGuard(const FastpathGuard&) = delete;
  FastpathGuard& operator=(const FastpathGuard&) = delete;

 private:
  bool previous_;
};

// --- Whole-stack differentials: sweeps and fault-induced re-execution ------

class BlockCacheSweep : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    H264AppParams params;
    params.frames = 2;  // same setting as the bench smokes
    app_ = new H264Application(build_h264_application(params));
  }
  static void TearDownTestSuite() {
    delete app_;
    app_ = nullptr;
  }

  /// fig-8-style mini sweep rendered to a CSV string at \p jobs workers.
  static std::string render_csv(unsigned jobs) {
    const std::vector<FabricCombination> points = fabric_sweep(2, 1);
    const SweepRunner runner(jobs);
    const std::vector<Cycles> rows =
        runner.map(points, [](const FabricCombination& c) {
          MRts rts(app_->library, c.cg, c.prcs);
          return run_application(rts, app_->trace).total_cycles;
        });
    CsvWriter csv;
    csv.write_header({"label", "mrts_cycles"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      csv.write_values(points[i].label(), rows[i]);
    }
    return csv.str();
  }

  static Cycles run_faulty(double rate, std::uint64_t seed) {
    MRtsConfig config;
    if (rate > 0.0) {
      config.fault = FaultModelConfig::uniform(rate, seed, /*max_retries=*/3);
    }
    MRts rts(app_->library, 2, 2, config);
    return run_application(rts, app_->trace).total_cycles;
  }

  static H264Application* app_;
};

H264Application* BlockCacheSweep::app_ = nullptr;

TEST_F(BlockCacheSweep, SweepIdenticalCacheOnOffAtEveryWorkerCount) {
  std::string oracle;
  {
    FastpathGuard guard(false);
    oracle = render_csv(1);
  }
  ASSERT_FALSE(oracle.empty());
  {
    FastpathGuard guard(false);
    EXPECT_EQ(render_csv(4), oracle) << "per-event loop, jobs=4";
  }
  FastpathGuard guard(true);
  for (unsigned jobs : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(render_csv(jobs), oracle) << "fast path on, jobs=" << jobs;
  }
}

TEST_F(BlockCacheSweep, FaultInducedReExecutionIdenticalCacheOnOff) {
  // Fault injection retries/re-executes kernels and quarantines fabric —
  // the heaviest consumer of the batched frame-execution path. The cycle
  // totals must not depend on the fast path at any fault rate.
  for (double rate : {0.0, 0.3, 1.0}) {
    SCOPED_TRACE("rate " + std::to_string(rate));
    Cycles slow = 0;
    Cycles fast = 0;
    {
      FastpathGuard guard(false);
      slow = run_faulty(rate, 42);
    }
    {
      FastpathGuard guard(true);
      fast = run_faulty(rate, 42);
    }
    EXPECT_EQ(slow, fast);
  }
}

// --- ECU chunk commits: fast path vs per-event oracle, block by block -------

/// Everything the simulator reports about one block.
struct BlockOutcome {
  Cycles cycles = 0;
  std::array<std::uint64_t, kNumImplKinds> impl_executions{};
  std::array<Cycles, kNumImplKinds> impl_cycles{};
  std::vector<ObservedKernelStats> observed;
};

/// What an attached flight recorder and counter registry saw of a run.
struct Observation {
  std::vector<TraceEvent> events;
  CounterRegistry counters;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string describe(const TraceEvent& e) {
  return std::string(to_string(e.kind)) + " track " + std::to_string(e.track) +
         " at " + std::to_string(e.at) + " dur " + std::to_string(e.duration) +
         " args " + std::to_string(e.arg0) + "," + std::to_string(e.arg1) +
         " values " + std::to_string(e.v0) + "," + std::to_string(e.v1) +
         " tenant " + std::to_string(e.tenant);
}

/// Every trace event (every field, in order), every counter and every
/// histogram (count, bit-identical sum, min, max, buckets) must match.
void expect_same_observation(const Observation& fast,
                             const Observation& oracle) {
  EXPECT_EQ(fast.events.size(), oracle.events.size());
  for (std::size_t i = 0; i < std::min(fast.events.size(), oracle.events.size());
       ++i) {
    const TraceEvent& f = fast.events[i];
    const TraceEvent& o = oracle.events[i];
    const bool same = f.kind == o.kind && f.track == o.track && f.at == o.at &&
                      f.duration == o.duration && f.arg0 == o.arg0 &&
                      f.arg1 == o.arg1 && same_bits(f.v0, o.v0) &&
                      same_bits(f.v1, o.v1) && f.tenant == o.tenant;
    ASSERT_TRUE(same) << "event " << i << ": " << describe(f) << " vs "
                      << describe(o);
  }
  EXPECT_EQ(fast.counters.counters(), oracle.counters.counters());
  const auto& fh = fast.counters.histograms();
  const auto& oh = oracle.counters.histograms();
  ASSERT_EQ(fh.size(), oh.size());
  for (auto f = fh.begin(), o = oh.begin(); f != fh.end(); ++f, ++o) {
    SCOPED_TRACE("histogram " + o->first);
    EXPECT_EQ(f->first, o->first);
    EXPECT_EQ(f->second.count(), o->second.count());
    EXPECT_TRUE(same_bits(f->second.sum(), o->second.sum()))
        << f->second.sum() << " vs " << o->second.sum();
    EXPECT_TRUE(same_bits(f->second.min(), o->second.min()));
    EXPECT_TRUE(same_bits(f->second.max(), o->second.max()));
    EXPECT_EQ(f->second.buckets(), o->second.buckets());
  }
}

using RtsFactory = std::function<std::unique_ptr<RuntimeSystem>()>;

/// Runs \p blocks back to back on a fresh RTS from \p make, as
/// run_application does, and reports every block. \p ecu receives the ECU's
/// totals where the RTS exposes its ECU. A non-null \p seen attaches a
/// flight recorder and counter registry and receives what they saw.
std::vector<BlockOutcome> run_blocks(
    const RtsFactory& make, const std::vector<FunctionalBlockInstance>& blocks,
    bool fast, EcuStats& ecu, Observation* seen = nullptr) {
  FastpathGuard guard(fast);
  TraceRecorder recorder;
  const std::unique_ptr<RuntimeSystem> rts = make();
  if (seen != nullptr) rts->attach_observability(&recorder, &seen->counters);
  std::vector<BlockOutcome> out;
  Cycles cursor = 0;
  for (const FunctionalBlockInstance& block : blocks) {
    const FbRunResult r = run_block(*rts, block, cursor,
                                    seen != nullptr ? &recorder : nullptr);
    cursor += r.cycles;
    out.push_back({r.cycles, r.impl_executions, r.impl_cycles,
                   r.observed.kernels});
  }
  if (seen != nullptr) seen->events = recorder.events();
  if (const auto* mrts = dynamic_cast<const MRts*>(rts.get())) {
    ecu = mrts->ecu().stats();
  } else if (const auto* rispp = dynamic_cast<const RisppRts*>(rts.get())) {
    ecu = rispp->ecu().stats();
  }
  return out;
}

/// Compares the fast path with the per-event oracle block by block: cycles,
/// per-implementation tallies and every observed kernel statistic, then the
/// ECU's totals. With \p oracle_seen non-null both runs are observed,
/// their counter registries starting from what \p oracle_seen holds: the
/// oracle's observation lands there and the fast run's must equal it.
/// Returns the oracle's outcomes so a test can check its scenario happened.
std::vector<BlockOutcome> expect_fast_matches_oracle(
    const RtsFactory& make, const std::vector<FunctionalBlockInstance>& blocks,
    Observation* oracle_seen = nullptr) {
  EcuStats oracle_ecu;
  EcuStats fast_ecu;
  Observation fast_seen;  // its registry starts as the oracle's does
  if (oracle_seen != nullptr) fast_seen.counters = oracle_seen->counters;
  const std::vector<BlockOutcome> oracle =
      run_blocks(make, blocks, false, oracle_ecu, oracle_seen);
  const std::vector<BlockOutcome> fast =
      run_blocks(make, blocks, true, fast_ecu,
                 oracle_seen != nullptr ? &fast_seen : nullptr);
  if (oracle_seen != nullptr) expect_same_observation(fast_seen, *oracle_seen);
  EXPECT_EQ(fast_ecu.executions, oracle_ecu.executions);
  EXPECT_EQ(fast_ecu.cycles, oracle_ecu.cycles);
  EXPECT_EQ(fast_ecu.saved_vs_risc, oracle_ecu.saved_vs_risc);
  EXPECT_EQ(fast_ecu.context_switch_cycles, oracle_ecu.context_switch_cycles);
  EXPECT_EQ(fast.size(), oracle.size());
  for (std::size_t b = 0; b < std::min(fast.size(), oracle.size()); ++b) {
    SCOPED_TRACE("block " + std::to_string(b));
    EXPECT_EQ(fast[b].cycles, oracle[b].cycles);
    EXPECT_EQ(fast[b].impl_executions, oracle[b].impl_executions);
    EXPECT_EQ(fast[b].impl_cycles, oracle[b].impl_cycles);
    const std::vector<ObservedKernelStats>& fo = fast[b].observed;
    const std::vector<ObservedKernelStats>& oo = oracle[b].observed;
    EXPECT_EQ(fo.size(), oo.size());
    for (std::size_t i = 0; i < std::min(fo.size(), oo.size()); ++i) {
      const ObservedKernelStats& f = fo[i];
      const ObservedKernelStats& o = oo[i];
      EXPECT_EQ(f.kernel, o.kernel);
      EXPECT_EQ(f.executions, o.executions);
      EXPECT_EQ(f.time_to_first, o.time_to_first);
      EXPECT_EQ(f.time_between, o.time_between);
    }
  }
  return oracle;
}

std::uint64_t executions(const BlockOutcome& block, ImplKind kind) {
  return block.impl_executions[static_cast<std::size_t>(kind)];
}

class EcuChunkCommit : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    H264AppParams params;
    params.frames = 2;  // full-size CIF blocks, two frames of them
    app_ = new H264Application(build_h264_application(params));
    profile_ = new std::vector<BlockProfile>(
        profile_application(app_->trace, app_->library));
  }
  static void TearDownTestSuite() {
    delete profile_;
    profile_ = nullptr;
    delete app_;
    app_ = nullptr;
  }

  /// The five run-time systems of the figure grid on \p prcs PRCs and
  /// \p cg CG fabrics, by name.
  static std::vector<std::pair<std::string, RtsFactory>> fig_grid_kinds(
      unsigned prcs, unsigned cg) {
    const IseLibrary& lib = app_->library;
    const std::vector<BlockProfile>& profile = *profile_;
    return {
        {"mRTS",
         [&lib, prcs, cg] { return std::make_unique<MRts>(lib, cg, prcs); }},
        {"mRTS-optimal",
         [&lib, prcs, cg] {
           MRtsConfig config;
           config.use_optimal_selector = true;
           return std::make_unique<MRts>(lib, cg, prcs, config);
         }},
        {"RISPP",
         [&lib, prcs, cg] {
           return std::make_unique<RisppRts>(lib, cg, prcs);
         }},
        {"Morpheus",
         [&lib, &profile, prcs, cg] {
           return std::make_unique<Morpheus4sRts>(lib, cg, prcs, profile);
         }},
        {"offline",
         [&lib, &profile, prcs, cg] {
           return std::make_unique<OfflineOptimalRts>(lib, cg, prcs, profile);
         }},
    };
  }

  /// A finalized block of \p runs maximal runs of the functional block
  /// \p fb: run i executes kernel_of(i) min_count to min_count + spread - 1
  /// times, each after a seeded gap around \p gap cycles. Its programmed
  /// trigger is stamped from its own schedule, like a workload-built block's.
  static FunctionalBlockInstance make_block(
      FunctionalBlockId fb, std::size_t runs,
      const std::function<KernelId(std::size_t)>& kernel_of, Cycles gap,
      std::uint64_t seed, std::uint64_t min_count = 1,
      std::uint64_t spread = 6) {
    Rng rng(seed);
    FunctionalBlockInstance block;
    block.functional_block = fb;
    block.tail_gap = gap;
    for (std::size_t i = 0; i < runs; ++i) {
      const std::uint64_t count = min_count + rng.next_below(spread);
      for (std::uint64_t e = 0; e < count; ++e) {
        block.events.push_back({kernel_of(i), gap / 2 + rng.next_below(gap)});
      }
    }
    finalize_instance_runs(block);
    stamp_programmed_trigger(block, app_->library);
    return block;
  }

  /// A 400-run block in which two kernels outside the programmed trigger
  /// take turns over runs 219-223, the last five runs before run 224. Their
  /// monoCG acquisitions bump the fabric epoch and, on a single CG fabric,
  /// evict the first kernel's monoCG context, so the chunk from run 224
  /// opens with that kernel's memo void while the newcomers' memos are
  /// fresh. Every run executes 2 to 7 times, or with \p single once.
  static FunctionalBlockInstance mono_cg_mid_block(bool single = false) {
    const auto kernel_of = [](std::size_t i) {
      if (i < 219) return ee_cycle(i, 3);
      if (i < 224) return i % 2 == 1 ? app_->k_idct : app_->k_cavlc;
      return ee_cycle(i + 1, 5);
    };
    const std::uint64_t min_count = single ? 1 : 2;
    const std::uint64_t spread = single ? 1 : 6;
    FunctionalBlockInstance block = make_block(app_->fb_ee, 400, kernel_of,
                                               400, 13, min_count, spread);
    block.programmed = make_block(app_->fb_ee, 219, kernel_of, 400, 13,
                                  min_count, spread)
                           .programmed;
    return block;
  }

  /// Blocks of single-execution runs: two kernels alternating (A B A B ...)
  /// and a three-kernel cycle, 400 runs each.
  static std::vector<FunctionalBlockInstance> alternating_blocks() {
    return {make_block(
                app_->fb_ee, 400, [](std::size_t i) { return ee_cycle(i, 2); },
                400, 21, 1, 1),
            make_block(
                app_->fb_ee, 400, [](std::size_t i) { return ee_cycle(i, 3); },
                400, 22, 1, 1)};
  }

  /// A 320-run block of single-execution runs whose fourth kernel runs for
  /// the last time at run \p last_run; a three-kernel cycle follows.
  static FunctionalBlockInstance last_run_at(std::size_t last_run) {
    const std::size_t shift = 7 - last_run % 4;  // run last_run: kernel 3
    const auto kernel_of = [last_run, shift](std::size_t i) {
      return i <= last_run ? ee_cycle(i + shift, 4) : ee_cycle(i, 3);
    };
    return make_block(app_->fb_ee, 320, kernel_of, 400, last_run, 1, 1);
  }

  /// mRTS on 2 PRCs + 2 CG fabrics whose loads fail at \p rate with one
  /// retry, so containers get quarantined as the run goes on.
  static RtsFactory faulty_mrts(double rate) {
    return [rate] {
      MRtsConfig config;
      config.fault = FaultModelConfig::uniform(rate, 42, /*max_retries=*/1);
      return std::make_unique<MRts>(app_->library, 2, 2, config);
    };
  }

  /// Run \p i of a cycle through the encoding engine's first \p n kernels.
  static KernelId ee_cycle(std::size_t i, std::size_t n = 3) {
    const std::array<KernelId, 6> kernels = {app_->k_dct4,  app_->k_ht,
                                             app_->k_quant, app_->k_idct,
                                             app_->k_cavlc, app_->k_scan};
    return kernels[i % n];
  }

  static H264Application* app_;
  static std::vector<BlockProfile>* profile_;
};

H264Application* EcuChunkCommit::app_ = nullptr;
std::vector<BlockProfile>* EcuChunkCommit::profile_ = nullptr;

TEST_F(EcuChunkCommit, FigGridKindsMatchOracleOnFullCifBlocks) {
  // A CIF frame's loop-filter block spans 99 chunks, its motion-estimation
  // and encoding blocks about 190 and 297.
  std::size_t chunks = 0;
  for (const FunctionalBlockInstance& block : app_->trace.blocks) {
    ASSERT_GE(block.chunks.chunks.size(), 99u);
    chunks += block.chunks.chunks.size();
  }
  EXPECT_GE(chunks, 190 * app_->trace.blocks.size());
  for (const auto& [prcs, cg] : {std::pair{0u, 1u}, std::pair{2u, 0u},
                                 std::pair{2u, 2u}, std::pair{6u, 3u}}) {
    for (const auto& [name, make] : fig_grid_kinds(prcs, cg)) {
      SCOPED_TRACE(name + " on " + std::to_string(prcs) + " PRC + " +
                   std::to_string(cg) + " CG");
      expect_fast_matches_oracle(make, app_->trace.blocks);
    }
  }
}

TEST_F(EcuChunkCommit, BlocksAroundTheChunkSizeMatchOracle) {
  // kChunkRuns - 1 and kChunkRuns runs fit in one chunk, which gets no
  // table; kChunkRuns + 1 starts a second chunk and 2 * kChunkRuns fills
  // it. The last chunk always holds the final runs, so none of these may
  // commit a stretch — they pin the boundary arithmetic.
  std::vector<FunctionalBlockInstance> blocks;
  for (const std::size_t runs :
       {kChunkRuns - 1, kChunkRuns, kChunkRuns + 1, 2 * kChunkRuns}) {
    blocks.push_back(make_block(app_->fb_ee, runs,
                                [](std::size_t i) { return ee_cycle(i); }, 400,
                                runs));
    ASSERT_EQ(blocks.back().runs.size(), runs);
    ASSERT_EQ(blocks.back().chunks.chunks.size(),
              runs > kChunkRuns ? (runs + kChunkRuns - 1) / kChunkRuns : 0);
  }
  for (const auto& [name, make] : fig_grid_kinds(2, 2)) {
    SCOPED_TRACE(name);
    expect_fast_matches_oracle(make, blocks);
  }
}

TEST_F(EcuChunkCommit, KernelWhoseLastRunFallsMidBlock) {
  // The fourth kernel stops after run 100 of 320: the chunk holding its last
  // run must go run by run, the chunks after it may commit whole. Behind a
  // whole chunk of the remaining three-kernel cycle, the next run is of the
  // kernel that ran just before the chunk, so a stale last-executed kernel
  // would drop its context switch.
  const auto kernel_of = [](std::size_t i) {
    return i < 100 ? ee_cycle(i, 4) : ee_cycle(i, 3);
  };
  const FunctionalBlockInstance block =
      make_block(app_->fb_ee, 320, kernel_of, 400, 7);
  const std::size_t mid = (100 + kChunkRuns - 1) / kChunkRuns;
  ASSERT_LT(mid + 2, block.chunks.chunks.size());
  EXPECT_EQ(block.chunks.chunks[mid - 1].next_endpoint, mid - 1);
  EXPECT_GT(block.chunks.chunks[mid + 1].next_endpoint, mid + 1);
  for (const auto& [name, make] : fig_grid_kinds(2, 2)) {
    SCOPED_TRACE(name);
    expect_fast_matches_oracle(make, {block, block});
  }
}

TEST_F(EcuChunkCommit, MemoHorizonInsideAChunk) {
  // FG data paths finish loading while the block runs, so each upgrade ends
  // a memo horizon inside some chunk of the 600-run block.
  const FunctionalBlockInstance block =
      make_block(app_->fb_ee, 600, [](std::size_t i) { return ee_cycle(i); },
                 2000, 11);
  const RtsFactory make = [] {
    return std::make_unique<MRts>(app_->library, 0, 2);
  };
  const std::vector<BlockOutcome> oracle =
      expect_fast_matches_oracle(make, {block, block});
  ASSERT_FALSE(oracle.empty());
  EXPECT_GT(executions(oracle[0], ImplKind::kRisc), 0u);
  EXPECT_GT(executions(oracle[0], ImplKind::kIntermediate) +
                executions(oracle[0], ImplKind::kFullIse) +
                executions(oracle[0], ImplKind::kCoveredIse),
            0u);
}

TEST_F(EcuChunkCommit, MonoCgAcquisitionMidBlock) {
  // The chunk from run 224 opens with a void memo beside fresh ones
  // (mono_cg_mid_block): it must not open a stretch. With single-execution
  // runs every memo stays void until the kernel's next exact execution.
  for (const bool single : {false, true}) {
    SCOPED_TRACE(single ? "single-execution runs" : "runs of 2 to 7");
    const FunctionalBlockInstance block = mono_cg_mid_block(single);
    ASSERT_EQ(block.runs.size(), 400u);
    const std::size_t c = 224 / kChunkRuns;
    ASSERT_NE(block.chunks.chunks[c].next_endpoint, c);
    const RtsFactory make = [] {
      return std::make_unique<MRts>(app_->library, 1, 0);
    };
    const std::vector<BlockOutcome> oracle =
        expect_fast_matches_oracle(make, {block, block});
    ASSERT_FALSE(oracle.empty());
    EXPECT_GT(executions(oracle[0], ImplKind::kMonoCg), 0u);
  }
}

TEST_F(EcuChunkCommit, AlternatingSingleExecutionRuns) {
  // Each run is one execution, so a kernel's memo comes from the execution
  // that ends its first run; stretches then span the block.
  const std::vector<FunctionalBlockInstance> blocks = alternating_blocks();
  for (const FunctionalBlockInstance& block : blocks) {
    ASSERT_EQ(block.runs.size(), 400u);
    ASSERT_EQ(block.events.size(), 400u);
  }
  for (const auto& [prcs, cg] : {std::pair{0u, 1u}, std::pair{2u, 2u}}) {
    for (const auto& [name, make] : fig_grid_kinds(prcs, cg)) {
      SCOPED_TRACE(name + " on " + std::to_string(prcs) + " PRC + " +
                   std::to_string(cg) + " CG");
      expect_fast_matches_oracle(make, blocks);
    }
  }
}

TEST_F(EcuChunkCommit, StretchEndsAtAMemoHorizonManyChunksIn) {
  // Without a CG fabric a block runs in RISC mode until its first FG data
  // path has loaded, dozens of chunks in: each stretch before that must
  // stop short of the chunk in which the first upgrade lands.
  const FunctionalBlockInstance block = make_block(
      app_->fb_ee, 800, [](std::size_t i) { return ee_cycle(i); }, 2000, 31,
      1, 1);
  // Kinds with a block that upgrades (not every execution runs in RISC
  // mode) only after many chunks of RISC-mode runs: all but Morpheus, which
  // loads nothing here.
  std::size_t upgrade_late = 0;
  for (const auto& [name, make] : fig_grid_kinds(2, 0)) {
    SCOPED_TRACE(name);
    const std::vector<BlockOutcome> oracle =
        expect_fast_matches_oracle(make, {block, block});
    bool late = false;
    for (const BlockOutcome& b : oracle) {
      const std::uint64_t risc = executions(b, ImplKind::kRisc);
      late = late || (risc > 4 * kChunkRuns && risc < 800);
    }
    upgrade_late += late ? 1 : 0;
  }
  EXPECT_EQ(upgrade_late, 4u);
}

TEST_F(EcuChunkCommit, StretchEndsJustBeforeAMidBlockLastRunChunk) {
  // The fourth kernel's last run opens chunk 12 or closes it: the stretch
  // from chunk 1 must stop there, and the chunk goes run by run.
  for (const std::size_t last : {12 * kChunkRuns, 13 * kChunkRuns - 1}) {
    SCOPED_TRACE("last run " + std::to_string(last));
    const FunctionalBlockInstance block = last_run_at(last);
    ASSERT_EQ(block.runs.size(), 320u);
    const std::vector<RunChunk>& chunks = block.chunks.chunks;
    EXPECT_EQ(chunks[1].next_endpoint, 12u);
    EXPECT_EQ(chunks[13].next_endpoint, chunks.size() - 1);
    for (const auto& [name, make] : fig_grid_kinds(2, 2)) {
      SCOPED_TRACE(name);
      expect_fast_matches_oracle(make, {block, block});
    }
  }
}

TEST_F(EcuChunkCommit, FaultInducedQuarantine) {
  for (const double rate : {0.3, 1.0}) {
    SCOPED_TRACE("rate " + std::to_string(rate));
    const RtsFactory make = faulty_mrts(rate);
    expect_fast_matches_oracle(make, app_->trace.blocks);
    const std::unique_ptr<RuntimeSystem> rts = make();
    run_application(*rts, app_->trace);
    const FabricUsage usage = static_cast<MRts&>(*rts).fabric().usage();
    EXPECT_GT(usage.quarantined_prcs + usage.quarantined_cg, 0u);
  }
}

TEST_F(EcuChunkCommit, HandBuiltInstanceWithoutChunkSummaries) {
  // Runs without chunks commit run by run; events alone are decoded on the
  // fly. Both must match the oracle (which reads only the events).
  std::vector<FunctionalBlockInstance> no_chunks = app_->trace.blocks;
  std::vector<FunctionalBlockInstance> events_only = app_->trace.blocks;
  for (FunctionalBlockInstance& block : no_chunks) block.chunks = RunChunks{};
  for (FunctionalBlockInstance& block : events_only) {
    block.runs.clear();
    block.chunks = RunChunks{};
  }
  for (const auto& [name, make] : fig_grid_kinds(2, 2)) {
    SCOPED_TRACE(name);
    expect_fast_matches_oracle(make, no_chunks);
    expect_fast_matches_oracle(make, events_only);
  }
}

// --- Observed memo commits: recorder and counters attached -----------------

/// Memo commits with a flight recorder and a counter registry attached: the
/// trace, the counters and the latency histogram must come out exactly as
/// the per-event oracle leaves them.
class EcuObservedCommit : public EcuChunkCommit {
 protected:
  /// The oracle's latency histogram counts every execution the ECU counted.
  static void expect_latency_count_matches(const Observation& seen) {
    std::uint64_t executions = 0;
    for (const auto& [name, value] : seen.counters.counters()) {
      if (name.rfind("ecu.executions.", 0) == 0) executions += value;
    }
    const Histogram* latency =
        seen.counters.histogram("ecu.exec_latency_cycles");
    ASSERT_NE(latency, nullptr);
    EXPECT_GT(executions, 0u);
    EXPECT_EQ(latency->count(), executions);
  }
};

TEST_F(EcuObservedCommit, FigGridKindsOnTwoFrameCifBlocks) {
  for (const auto& [prcs, cg] : {std::pair{0u, 1u}, std::pair{2u, 2u},
                                 std::pair{6u, 3u}}) {
    for (const auto& [name, make] : fig_grid_kinds(prcs, cg)) {
      SCOPED_TRACE(name + " on " + std::to_string(prcs) + " PRC + " +
                   std::to_string(cg) + " CG");
      Observation oracle;
      expect_fast_matches_oracle(make, app_->trace.blocks, &oracle);
      expect_latency_count_matches(oracle);
    }
  }
}

TEST_F(EcuObservedCommit, UpgradeLandingMidRunIsTracedAtTheSameCycle) {
  // A block of one run of 2000 to 2005 executions: every upgrade traced
  // after the block's first execution lands inside that run.
  const FunctionalBlockInstance block = make_block(
      app_->fb_ee, 1, [](std::size_t) { return app_->k_dct4; }, 400, 3, 2000);
  ASSERT_EQ(block.runs.size(), 1u);
  const RtsFactory make = [] {
    return std::make_unique<MRts>(app_->library, 0, 2);
  };
  Observation oracle;
  expect_fast_matches_oracle(make, {block, block}, &oracle);
  expect_latency_count_matches(oracle);

  Cycles first_exec = kNeverCycles;
  Cycles block_end = 0;
  for (const TraceEvent& e : oracle.events) {
    if (e.kind == TraceEventKind::kEcuDecision && first_exec == kNeverCycles) {
      first_exec = e.at;
    }
    if (e.kind == TraceEventKind::kBlockEnd) {
      block_end = e.at + e.duration;
      break;
    }
  }
  std::size_t mid_run = 0;
  for (const TraceEvent& e : oracle.events) {
    mid_run += e.kind == TraceEventKind::kEcuUpgrade && e.at > first_exec &&
               e.at < block_end;
  }
  EXPECT_GT(mid_run, 0u);
}

TEST_F(EcuObservedCommit, MonoCgAcquisitionMidBlock) {
  const RtsFactory make = [] {
    return std::make_unique<MRts>(app_->library, 1, 0);
  };
  const FunctionalBlockInstance block = mono_cg_mid_block();
  Observation oracle;
  const std::vector<BlockOutcome> outcomes =
      expect_fast_matches_oracle(make, {block, block}, &oracle);
  ASSERT_FALSE(outcomes.empty());
  EXPECT_GT(executions(outcomes[0], ImplKind::kMonoCg), 0u);
  EXPECT_GT(oracle.counters.counter("ecu.mono_cg_acquired"), 0u);
  expect_latency_count_matches(oracle);
}

TEST_F(EcuObservedCommit, FaultInducedQuarantine) {
  for (const double rate : {0.3, 1.0}) {
    SCOPED_TRACE("rate " + std::to_string(rate));
    Observation oracle;
    expect_fast_matches_oracle(faulty_mrts(rate), app_->trace.blocks, &oracle);
    expect_latency_count_matches(oracle);
    EXPECT_GT(oracle.counters.counter("prc.quarantined") +
                  oracle.counters.counter("cg.quarantined"),
              0u);
  }
}

TEST_F(EcuObservedCommit, SingleExecutionRunsAndMidBlockEndpoints) {
  std::vector<FunctionalBlockInstance> blocks = alternating_blocks();
  blocks.push_back(last_run_at(12 * kChunkRuns));
  blocks.push_back(last_run_at(13 * kChunkRuns - 1));
  blocks.push_back(mono_cg_mid_block(true));
  for (const auto& [prcs, cg] : {std::pair{0u, 1u}, std::pair{2u, 2u}}) {
    for (const auto& [name, make] : fig_grid_kinds(prcs, cg)) {
      SCOPED_TRACE(name + " on " + std::to_string(prcs) + " PRC + " +
                   std::to_string(cg) + " CG");
      Observation oracle;
      expect_fast_matches_oracle(make, blocks, &oracle);
      expect_latency_count_matches(oracle);
    }
  }
}

TEST_F(EcuObservedCommit, LatencySumNearTwoToThe53CommitsRunByRun) {
  // The latency histogram's sum starts half a block's latencies below 2^53.
  // Stretches add their latencies kernel by kernel, so they must stop
  // where the sum would leave the exact range; from there the runs commit
  // one by one, in execution order, rounding as the oracle's additions do.
  constexpr double kTwoTo53 = 9007199254740992.0;
  const std::vector<FunctionalBlockInstance> blocks = {app_->trace.blocks[1]};
  ASSERT_GT(blocks[0].chunks.chunks.size(), 100u);
  for (const auto& [name, make] : fig_grid_kinds(2, 2)) {
    SCOPED_TRACE(name);
    Observation empty;
    expect_fast_matches_oracle(make, blocks, &empty);
    const Histogram* latency =
        empty.counters.histogram("ecu.exec_latency_cycles");
    ASSERT_NE(latency, nullptr);
    Observation oracle;
    oracle.counters.observe("ecu.exec_latency_cycles",
                            kTwoTo53 - std::floor(latency->sum() / 2));
    expect_fast_matches_oracle(make, blocks, &oracle);
    EXPECT_GT(oracle.counters.histogram("ecu.exec_latency_cycles")->sum(),
              kTwoTo53);
  }
}

TEST_F(EcuObservedCommit, ServeCoreJobsOfEveryJobClass) {
  // The same submissions through a fresh ServeCore at its documented
  // defaults; after every job, what the core's recorder and counters hold.
  struct Served {
    std::vector<Observation> seen;
    std::vector<std::string> reports;
  };
  const auto serve = [](bool fast) {
    FastpathGuard guard(fast);
    serve::ServeCore core;
    Served out;
    Rng rng(99);
    for (std::uint32_t i = 0; i < 24; ++i) {
      serve::SubmitFrame spec;
      spec.name = "t";
      spec.name += std::to_string(i);
      spec.job_class = i % core.config().job_classes;
      spec.blocks = 1 + i % 3;
      spec.seed = rng.next_u64();
      switch (i % 3) {
        case 0:
          spec.share = static_cast<std::uint8_t>(serve::WireShare::kWeighted);
          spec.weight = 1 + i % 4;
          break;
        case 1:
          spec.share =
              static_cast<std::uint8_t>(serve::WireShare::kBestEffort);
          break;
        default:
          spec.share = static_cast<std::uint8_t>(serve::WireShare::kReserved);
          spec.reserved_prcs = 1 + i % 2;
          spec.reserved_cg = i % 2;
          break;
      }
      const std::uint64_t id = core.submit(1, spec);
      EXPECT_TRUE(core.run_next());
      const serve::JobRecord* job = core.job(id);
      EXPECT_EQ(job->state, serve::JobState::kDone);
      out.seen.push_back({core.recorder().events(), core.counters()});
      out.reports.push_back(job->report_json + job->counters_delta);
    }
    return out;
  };
  const Served oracle = serve(false);
  const Served fast = serve(true);
  ASSERT_EQ(fast.seen.size(), oracle.seen.size());
  for (std::size_t j = 0; j < oracle.seen.size(); ++j) {
    SCOPED_TRACE("job " + std::to_string(j + 1));
    expect_same_observation(fast.seen[j], oracle.seen[j]);
    EXPECT_EQ(fast.reports[j], oracle.reports[j]);
  }
  expect_latency_count_matches(oracle.seen.back());
}

}  // namespace
}  // namespace mrts
