#pragma once
/// \file schedule.h
/// Application traces. A trace is the sequence of functional-block instances
/// the core processor executes; each instance carries the programmed trigger
/// instruction (the static forecast embedded in the binary) and the *actual*
/// interleaved kernel-execution schedule of that instance (which varies with
/// the input data — this variation is what the run-time system adapts to).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/trigger.h"
#include "util/types.h"

namespace mrts {

/// One kernel execution in program order: \p gap_before is the number of
/// non-kernel (plain software) cycles the core spends before starting it.
struct ExecEvent {
  KernelId kernel = kInvalidKernel;
  Cycles gap_before = 0;
};

/// A maximal run of consecutive executions of the same kernel, decoded once
/// from an instance's event list (finalize_instance_runs). The batched
/// frame-execution fast path dispatches whole runs through
/// RuntimeSystem::execute_run instead of one virtual call per event.
struct ExecRun {
  KernelId kernel = kInvalidKernel;
  std::uint32_t first_event = 0;  ///< index of the run's first event
  std::uint32_t count = 0;        ///< number of consecutive events
  Cycles gap_total = 0;           ///< sum of gap_before over the run's events
  /// gap_before of the first event, copied here so the steady-state fast
  /// path never has to touch the (much larger) event array.
  Cycles first_gap = 0;
};

/// Runs per RunChunk. A constant: a stretch commit spans any number of
/// chunks at O(kernels) per binary-search step, so more boundaries cost
/// little, while small chunks keep short the run-by-run commits in a
/// block's first and last chunks and in the chunk around every break.
inline constexpr std::size_t kChunkRuns = 8;

/// One chunk of kChunkRuns consecutive runs of an instance (the instance's
/// last chunk may hold fewer).
struct RunChunk {
  Cycles gaps_before = 0;  ///< sum of gap_total over every run before it
  KernelId last_kernel = kInvalidKernel;  ///< kernel of the chunk's last run
  /// The first chunk at or after this one that holds some kernel's first or
  /// last run of the instance (an *endpoint chunk*). Only those runs move a
  /// kernel's observed first start or last end, so whole chunks before it
  /// can be observed by adding up counts alone.
  std::uint32_t next_endpoint = 0;
};

/// One kernel's runs and the executions they hold.
struct RunCount {
  std::uint32_t runs = 0;
  std::uint32_t executions = 0;
};

/// Prefix sums of an instance's runs at every chunk boundary: chunk c covers
/// runs [c * kChunkRuns, (c + 1) * kChunkRuns), and boundary c is its start.
/// The ECU commits any stretch of whole chunks [c, e) in O(kernels) from the
/// differences at boundaries c and e (see Ecu::execute_events). An instance
/// whose runs fit in one chunk gets empty tables: that chunk holds every
/// endpoint, so no stretch could use them.
struct RunChunks {
  std::vector<KernelId> kernels;  ///< the instance's kernels, ascending id
  std::vector<RunChunk> chunks;
  /// Boundary c's counts of kernels[j] (runs before the boundary) at
  /// index c * kernels.size() + j.
  std::vector<RunCount> counts;

  /// True when this table summarizes exactly \p num_runs runs.
  bool covers(std::size_t num_runs) const {
    return chunks.size() == (num_runs + kChunkRuns - 1) / kChunkRuns;
  }
};

/// One dynamic instance of a functional block.
struct FunctionalBlockInstance {
  FunctionalBlockId functional_block = kInvalidFunctionalBlock;
  /// Forecast embedded in the binary (from offline profiling); the same for
  /// every instance of the block.
  TriggerInstruction programmed;
  /// Actual execution schedule of this instance.
  std::vector<ExecEvent> events;
  /// Run-compressed view of \p events (derived; see finalize_instance_runs).
  /// Empty = not decoded yet; run_block then derives it on the fly. Mutating
  /// \p events invalidates this and \p chunks — call finalize_instance_runs
  /// again (or clear both) afterwards.
  std::vector<ExecRun> runs;
  /// Chunk summaries of \p runs (derived with them). Empty = none; the ECU
  /// then commits run by run.
  RunChunks chunks;
  /// Non-kernel cycles after the last kernel execution.
  Cycles tail_gap = 0;

  std::size_t executions_of(KernelId k) const {
    std::size_t n = 0;
    for (const auto& e : events) {
      if (e.kernel == k) ++n;
    }
    return n;
  }
};

struct ApplicationTrace {
  std::string name;
  std::vector<FunctionalBlockInstance> blocks;

  std::size_t total_events() const {
    std::size_t n = 0;
    for (const auto& b : blocks) n += b.events.size();
    return n;
  }
};

/// Decodes \p events into maximal same-kernel runs, appending to \p runs
/// (cleared first). Exposed so run_block can derive runs into a scratch
/// buffer for hand-built instances that were never finalized.
void decode_runs(const std::vector<ExecEvent>& events,
                 std::vector<ExecRun>& runs);

/// The runs of \p instance: its own when they cover exactly its events,
/// else \p scratch with the events decoded into it (tests hand-build
/// instances that were never finalized).
const std::vector<ExecRun>& instance_runs(
    const FunctionalBlockInstance& instance, std::vector<ExecRun>& scratch);

/// Decodes the instance's event list into its run-compressed form and that
/// form's chunk summaries (stored in instance.runs / instance.chunks).
/// Workload builders call this once per instance so the shared, read-only
/// trace carries both into every sweep point.
void finalize_instance_runs(FunctionalBlockInstance& instance);

/// Derives the programmed trigger instruction of a block instance from its
/// schedule, assuming RISC-mode execution latencies (this is exactly what an
/// offline profiling run would measure): e = execution count, tf = cycles
/// from block start to the first execution start, tb = average gap between
/// the end of one execution and the start of the next of the same kernel.
/// Entries come in ascending kernel id. Walks the instance's runs: a run
/// adds its first gap before its first execution and the rest between its
/// executions, so every sum equals a walk over the single events.
TriggerInstruction derive_trigger(
    const FunctionalBlockInstance& instance,
    const std::vector<Cycles>& risc_latency_by_kernel);

}  // namespace mrts
