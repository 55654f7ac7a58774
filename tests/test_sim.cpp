// Unit tests for the simulator layer: trigger derivation (with a
// differential check against the per-event walk), block simulation (cycle
// conservation, observation correctness) and application profiling.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "baselines/risc_only_rts.h"
#include "isa/ise_builder.h"
#include "sim/app_simulator.h"
#include "sim/fb_simulator.h"
#include "sim/metrics.h"
#include "sim/schedule.h"
#include "util/fastpath.h"
#include "util/rng.h"
#include "workload/workload_gen.h"

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

// Regression for the {11,1}/{1,11} label clash.
TEST(FabricCombinationLabel, SingleDigitKeepsPaperForm) {
  EXPECT_EQ((FabricCombination{0, 0}.label()), "00");
  EXPECT_EQ((FabricCombination{2, 3}.label()), "23");
  EXPECT_EQ((FabricCombination{9, 9}.label()), "99");
}

TEST(FabricCombinationLabel, MultiDigitIsUnambiguous) {
  EXPECT_EQ((FabricCombination{11, 1}.label()), "11x1");
  EXPECT_EQ((FabricCombination{1, 11}.label()), "1x11");
  EXPECT_NE((FabricCombination{11, 1}.label()),
            (FabricCombination{1, 11}.label()));
  EXPECT_EQ((FabricCombination{10, 0}.label()), "10x0");
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

// ---------------------------------------------------------------------------
// Differential checks: derive_trigger walks runs; the per-event walk it
// replaced is kept here as the reference.
// ---------------------------------------------------------------------------

/// The per-event derivation: one std::map lookup per event, entries in
/// ascending kernel id.
TriggerInstruction reference_derive_trigger(
    const FunctionalBlockInstance& instance,
    const std::vector<Cycles>& risc_latency_by_kernel) {
  struct Acc {
    double executions = 0.0;
    Cycles first_start = 0;
    Cycles last_end = 0;
    Cycles gap_sum = 0;
    bool seen = false;
  };
  std::map<std::uint32_t, Acc> acc;

  Cycles cursor = 0;
  for (const auto& ev : instance.events) {
    cursor += ev.gap_before;
    const auto kid = raw(ev.kernel);
    if (kid >= risc_latency_by_kernel.size()) {
      throw std::invalid_argument("derive_trigger: kernel without latency");
    }
    Acc& a = acc[kid];
    if (!a.seen) {
      a.first_start = cursor;
      a.seen = true;
    } else {
      a.gap_sum += cursor - a.last_end;
    }
    a.executions += 1.0;
    cursor += risc_latency_by_kernel[kid];
    a.last_end = cursor;
  }

  TriggerInstruction ti;
  ti.functional_block = instance.functional_block;
  for (const auto& [kid, a] : acc) {
    TriggerEntry entry;
    entry.kernel = KernelId{kid};
    entry.expected_executions = a.executions;
    entry.time_to_first = a.first_start;
    entry.time_between =
        a.executions > 1.0
            ? static_cast<Cycles>(static_cast<double>(a.gap_sum) /
                                  (a.executions - 1.0))
            : Cycles{0};
    ti.entries.push_back(entry);
  }
  return ti;
}

/// A gap from one of three regimes: zero, small, or large enough that the
/// block's cycle sums run far past 2^32.
Cycles random_gap(Rng& rng) {
  switch (rng.next_below(3)) {
    case 0:
      return 0;
    case 1:
      return rng.next_below(200);
    default:
      return rng.next_below(Cycles{1} << 40);
  }
}

std::vector<Cycles> random_latencies(Rng& rng, std::uint32_t num_kernels) {
  std::vector<Cycles> latency(num_kernels);
  for (Cycles& l : latency) {
    l = rng.bernoulli(0.5) ? rng.next_below(1000)
                           : rng.next_below(Cycles{1} << 36);
  }
  return latency;
}

/// A hand-built block (no runs) interleaving 1-12 kernel ids below
/// \p num_kernels in up to \p max_runs stretches of 1-8 executions; a
/// stretch may repeat the previous kernel, so maximal runs grow longer.
FunctionalBlockInstance random_block(Rng& rng, std::uint32_t num_kernels,
                                     std::size_t max_runs) {
  FunctionalBlockInstance inst;
  inst.functional_block =
      FunctionalBlockId{static_cast<std::uint32_t>(rng.next_below(4))};
  std::vector<KernelId> kernels(1 + rng.next_below(12));
  for (KernelId& k : kernels) {
    k = KernelId{static_cast<std::uint32_t>(rng.next_below(num_kernels))};
  }
  const std::size_t stretches = rng.next_below(max_runs + 1);
  for (std::size_t r = 0; r < stretches; ++r) {
    const KernelId k = kernels[rng.next_below(kernels.size())];
    const std::size_t count = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < count; ++i) {
      inst.events.push_back({k, random_gap(rng)});
    }
  }
  return inst;
}

TEST(DeriveTriggerDiff, RunWalkMatchesPerEventReference) {
  Rng rng(20261019);
  std::size_t interleaved = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const auto num_kernels = static_cast<std::uint32_t>(1 + rng.next_below(16));
    const std::vector<Cycles> latency = random_latencies(rng, num_kernels);
    FunctionalBlockInstance inst = random_block(rng, num_kernels, 60);
    // The same kind of events in three shapes: hand-built (no runs),
    // finalized, and with runs left stale by a later append.
    const int shape = trial % 3;
    if (shape >= 1) finalize_instance_runs(inst);
    if (shape == 2) inst.events.push_back({KernelId{0}, random_gap(rng)});
    const TriggerInstruction expect = reference_derive_trigger(inst, latency);
    const TriggerInstruction got = derive_trigger(inst, latency);
    EXPECT_EQ(got.functional_block, expect.functional_block);
    ASSERT_EQ(got.entries, expect.entries) << "trial " << trial;
    if (expect.entries.size() > 1) ++interleaved;
  }
  EXPECT_GT(interleaved, 400u);
}

TEST(DeriveTriggerDiff, UnknownKernelThrowsAndTheNextCallIsExact) {
  Rng rng(77);
  const std::vector<Cycles> latency = random_latencies(rng, 8);
  FunctionalBlockInstance good = random_block(rng, 8, 40);
  good.events.push_back({KernelId{3}, 12});
  good.events.push_back({KernelId{5}, 0});
  FunctionalBlockInstance bad = good;
  // The first id past the latency table, in the middle of the block.
  bad.events.insert(bad.events.begin() + bad.events.size() / 2,
                    {KernelId{8}, 9});
  for (const bool finalized : {false, true}) {
    if (finalized) {
      finalize_instance_runs(good);
      finalize_instance_runs(bad);
    }
    EXPECT_THROW(reference_derive_trigger(bad, latency),
                 std::invalid_argument);
    EXPECT_THROW(derive_trigger(bad, latency), std::invalid_argument);
    EXPECT_EQ(derive_trigger(good, latency).entries,
              reference_derive_trigger(good, latency).entries);
  }
}

/// The maximal same-kernel runs of \p events, from their definition.
std::vector<ExecRun> reference_runs(const std::vector<ExecEvent>& events) {
  std::vector<ExecRun> runs;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == 0 || events[i].kernel != events[i - 1].kernel) {
      runs.push_back({events[i].kernel, static_cast<std::uint32_t>(i), 0, 0,
                      events[i].gap_before});
    }
    runs.back().count += 1;
    runs.back().gap_total += events[i].gap_before;
  }
  return runs;
}

/// The chunk tables of \p runs from their definition: each chunk's runs
/// recounted and added to the boundary before it, and each endpoint chunk
/// found from every kernel's first and last run.
RunChunks reference_chunks(const std::vector<ExecRun>& runs) {
  RunChunks ref;
  if (runs.size() <= kChunkRuns) return ref;
  std::map<KernelId, std::pair<std::size_t, std::size_t>> first_last;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    first_last.try_emplace(runs[r].kernel, r, r).first->second.second = r;
  }
  for (const auto& [k, ends] : first_last) ref.kernels.push_back(k);
  const std::size_t num_chunks = (runs.size() + kChunkRuns - 1) / kChunkRuns;
  std::vector<bool> endpoint(num_chunks, false);
  for (const auto& [k, ends] : first_last) {
    endpoint[ends.first / kChunkRuns] = true;
    endpoint[ends.second / kChunkRuns] = true;
  }
  RunChunk chunk;
  std::vector<RunCount> before(ref.kernels.size());
  for (std::size_t c = 0; c < num_chunks; ++c) {
    chunk.next_endpoint = static_cast<std::uint32_t>(c);
    while (!endpoint[chunk.next_endpoint]) ++chunk.next_endpoint;
    const std::size_t end = std::min(runs.size(), (c + 1) * kChunkRuns);
    chunk.last_kernel = runs[end - 1].kernel;
    ref.chunks.push_back(chunk);
    ref.counts.insert(ref.counts.end(), before.begin(), before.end());
    for (std::size_t r = c * kChunkRuns; r < end; ++r) {
      chunk.gaps_before += runs[r].gap_total;
      for (std::size_t j = 0; j < ref.kernels.size(); ++j) {
        if (ref.kernels[j] != runs[r].kernel) continue;
        before[j].runs += 1;
        before[j].executions += runs[r].count;
      }
    }
  }
  return ref;
}

/// The events of make_block_instance drawn one at a time, in the order the
/// generator must keep: per macroblock, per work entry in list order, one
/// uniform01 per execution; only the block's first event adds the entry
/// gap. Jobs and traces draw all their blocks from one Rng, so a draw too
/// many or too few would shift every later block.
std::vector<ExecEvent> reference_events(unsigned macroblocks,
                                        const std::vector<KernelWork>& work,
                                        Cycles entry_gap, Rng& rng) {
  std::vector<ExecEvent> events;
  std::vector<double> remainder(work.size(), 0.0);
  bool first_event = true;
  for (unsigned mb = 0; mb < macroblocks; ++mb) {
    for (std::size_t w = 0; w < work.size(); ++w) {
      const KernelWork& kw = work[w];
      remainder[w] += kw.repetitions_per_mb;
      auto reps = static_cast<unsigned>(remainder[w]);
      remainder[w] -= reps;
      for (unsigned r = 0; r < reps; ++r) {
        ExecEvent ev;
        ev.kernel = kw.kernel;
        const double jitter =
            1.0 + kw.gap_jitter * (2.0 * rng.uniform01() - 1.0);
        ev.gap_before = static_cast<Cycles>(
            std::max(0.0, static_cast<double>(kw.gap_cycles) * jitter));
        if (first_event) {
          ev.gap_before += entry_gap;
          first_event = false;
        }
        events.push_back(ev);
      }
    }
  }
  return events;
}

TEST(MakeBlockInstance, RunsAndChunksMatchAFreshDecodeOfItsEvents) {
  Rng rng(4242);
  std::size_t tables = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<KernelWork> work(1 + rng.next_below(12));
    for (KernelWork& kw : work) {
      kw.kernel = KernelId{static_cast<std::uint32_t>(rng.next_below(16))};
      kw.repetitions_per_mb =
          rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 12.0);
      kw.gap_cycles = rng.bernoulli(0.5) ? 0 : rng.next_below(5000);
      kw.gap_jitter = rng.uniform(0.0, 0.5);
    }
    const auto macroblocks = static_cast<unsigned>(1 + rng.next_below(120));
    const Cycles entry_gap = rng.next_below(500);
    Rng draw(static_cast<std::uint64_t>(trial));
    const FunctionalBlockInstance inst = make_block_instance(
        FunctionalBlockId{1}, macroblocks, work, entry_gap, 7, draw);
    // Sized once: the reservation's slack is about one event per kernel.
    EXPECT_LE(inst.events.capacity(), inst.events.size() + 2 * work.size());

    // The same events from the same draws, and the caller's generator left
    // where the per-event loop leaves it.
    Rng reference_draw(static_cast<std::uint64_t>(trial));
    const std::vector<ExecEvent> events =
        reference_events(macroblocks, work, entry_gap, reference_draw);
    ASSERT_EQ(inst.events.size(), events.size()) << "trial " << trial;
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_EQ(inst.events[i].kernel, events[i].kernel) << "event " << i;
      ASSERT_EQ(inst.events[i].gap_before, events[i].gap_before)
          << "event " << i;
    }
    EXPECT_EQ(draw.next_u64(), reference_draw.next_u64()) << "trial " << trial;

    // Runs written while drawing, and decoded from the finished events,
    // both against the definition.
    const std::vector<ExecRun> runs = reference_runs(inst.events);
    std::vector<ExecRun> decoded;
    decode_runs(inst.events, decoded);
    const std::vector<ExecRun>* written[] = {&inst.runs, &decoded};
    for (const std::vector<ExecRun>* got : written) {
      ASSERT_EQ(got->size(), runs.size()) << "trial " << trial;
      for (std::size_t r = 0; r < runs.size(); ++r) {
        EXPECT_EQ((*got)[r].kernel, runs[r].kernel);
        EXPECT_EQ((*got)[r].first_event, runs[r].first_event);
        EXPECT_EQ((*got)[r].count, runs[r].count);
        EXPECT_EQ((*got)[r].gap_total, runs[r].gap_total);
        EXPECT_EQ((*got)[r].first_gap, runs[r].first_gap);
      }
    }
    // Sized exactly: the runs live as long as the trace.
    EXPECT_EQ(inst.runs.capacity(), inst.runs.size());

    // The chunk rows written while drawing, and those a hand-built copy of
    // the events gets from finalize_instance_runs, against the definition.
    FunctionalBlockInstance rebuilt;
    rebuilt.events = inst.events;
    finalize_instance_runs(rebuilt);
    const RunChunks b = reference_chunks(runs);
    const RunChunks* tables_written[] = {&inst.chunks, &rebuilt.chunks};
    for (const RunChunks* a : tables_written) {
      EXPECT_EQ(a->kernels, b.kernels);
      ASSERT_EQ(a->chunks.size(), b.chunks.size());
      for (std::size_t c = 0; c < a->chunks.size(); ++c) {
        EXPECT_EQ(a->chunks[c].gaps_before, b.chunks[c].gaps_before);
        EXPECT_EQ(a->chunks[c].last_kernel, b.chunks[c].last_kernel);
        EXPECT_EQ(a->chunks[c].next_endpoint, b.chunks[c].next_endpoint);
      }
      ASSERT_EQ(a->counts.size(), b.counts.size());
      for (std::size_t i = 0; i < a->counts.size(); ++i) {
        EXPECT_EQ(a->counts[i].runs, b.counts[i].runs);
        EXPECT_EQ(a->counts[i].executions, b.counts[i].executions);
      }
      // Runs that fit in one chunk get no table, so run_block passes none.
      if (!runs.empty()) {
        EXPECT_EQ(a->covers(runs.size()), runs.size() > kChunkRuns);
      }
    }
    tables += inst.chunks.chunks.empty() ? 0 : 1;
  }
  EXPECT_GT(tables, 100u);
  EXPECT_LT(tables, 200u);
}

}  // namespace
}  // namespace mrts
