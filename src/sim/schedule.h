#pragma once
/// \file schedule.h
/// Application traces. A trace is the sequence of functional-block instances
/// the core processor executes; each instance carries the programmed trigger
/// instruction (the static forecast embedded in the binary) and the *actual*
/// interleaved kernel-execution schedule of that instance (which varies with
/// the input data — this variation is what the run-time system adapts to).

#include <algorithm>
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

/// What a RunWriter must know before its first stretch: the number of
/// maximal runs the stretches form and their distinct kernels. Feed it the
/// kernel of every stretch, in program order.
class RunShape {
 public:
  void add(KernelId kernel) {
    if (runs_ > 0 && kernel == last_) return;  // extends the run before
    ++runs_;
    last_ = kernel;
    // A block interleaves few kernels, so a sorted insert beats any map.
    const auto it = std::lower_bound(kernels_.begin(), kernels_.end(), kernel);
    if (it == kernels_.end() || *it != kernel) kernels_.insert(it, kernel);
  }

  std::size_t runs() const { return runs_; }
  /// The distinct kernels, ascending id.
  std::vector<KernelId>& kernels() { return kernels_; }

 private:
  std::size_t runs_ = 0;
  KernelId last_ = kInvalidKernel;
  std::vector<KernelId> kernels_;
};

/// Writes an instance's runs and their chunk rows as its events arrive in
/// program order, one same-kernel stretch at a time; a stretch of the
/// kernel of the run before it extends that run. make_block_instance feeds
/// it while it draws the events; decode_runs and finalize_instance_runs
/// feed it an existing event list.
class RunWriter {
 public:
  /// Clears \p runs and sizes it for exactly \p shape's runs; clears
  /// \p chunks too unless it is null, and writes its rows when the runs
  /// span more than one chunk (one chunk holds every endpoint, so no
  /// stretch commit could use a table). \p shape gives up its kernels.
  RunWriter(std::vector<ExecRun>& runs, RunChunks* chunks, RunShape& shape);

  /// The next \p count (> 0) events: all of \p kernel, the first with gap
  /// \p first_gap and together \p gap_total.
  void append(KernelId kernel, std::uint32_t count, Cycles first_gap,
              Cycles gap_total) {
    if (run_.count > 0 && kernel == run_.kernel) {
      run_.count += count;
      run_.gap_total += gap_total;
    } else {
      close_run();
      run_ = {kernel, events_, count, gap_total, first_gap};
    }
    events_ += count;
  }

  /// Closes the last run and fills in the endpoint chunks. Call once,
  /// after the last stretch.
  void finish();

 private:
  /// Appends the open run, if any, and adds it to its chunk row.
  void close_run();

  std::vector<ExecRun>& runs_;
  RunChunks* chunks_ = nullptr;  ///< null when the runs get no table
  ExecRun run_;                  ///< the open run; count 0 = none yet
  std::uint32_t events_ = 0;     ///< events appended so far
  Cycles gaps_ = 0;              ///< gap_total of every closed run
  /// Per kernel of chunks_->kernels: runs and executions closed so far,
  /// and the indices of its first and last run.
  struct KernelTally {
    RunCount closed;
    std::uint32_t first_run = 0;
    std::uint32_t last_run = 0;
  };
  std::vector<KernelTally> tally_;
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
