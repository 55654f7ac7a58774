#pragma once
/// \file obs_accum.h
/// Per-kernel observation accumulator for the batched block-execution fast
/// path. RuntimeSystem::execute_events reports every run through
/// ObservationSink::note_run — a concrete inline call, so the ECU folds the
/// accumulation into its single pass over the runs — and every kernel's
/// share of a stretch of whole chunks it commits at once through
/// note_stretch_kernel. The sink also carries the block's chunk summaries
/// to the ECU (chunks()).
///
/// The sink adds up each kernel's executed cycles, not its gaps. The gaps
/// between a kernel's executions telescope: last_end - first_start is the
/// sum of its execution latencies plus the sum of those gaps, so
///   gap_sum = last_end - first_start - exec_cycles
/// exactly, in unsigned 64-bit. That identity lets a stretch commit add counts
/// alone, leaving first_start / last_end to the runs that set them, and it
/// reproduces the legacy per-event loop's observations bit for bit.
/// Executions are integer counts in a double (exact far beyond any block
/// size, in any order of addition).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "rts/rts_interface.h"
#include "sim/schedule.h"
#include "util/types.h"

namespace mrts {

class ObservationSink {
 public:
  /// Per-kernel accumulator state, indexed by raw kernel id in a flat
  /// thread_local scratch vector (no per-kernel map nodes).
  struct Acc {
    double executions = 0.0;
    Cycles first_start = 0;
    Cycles last_end = 0;
    Cycles exec_cycles = 0;
    bool seen = false;
  };

  /// \p acc / \p touched are caller-owned scratch (touched must be empty;
  /// acc entries must be in their reset state). \p start is the block's
  /// start cycle — observations are block-relative. \p chunks (nullable)
  /// summarizes the runs about to be executed. On destruction the sink
  /// returns every entry it touched to the reset state — also when the
  /// block throws partway, so no kernel stays seen for the next block that
  /// reuses the scratch.
  ObservationSink(Cycles start, std::vector<Acc>& acc,
                  std::vector<std::uint32_t>& touched,
                  const RunChunks* chunks)
      : start_(start), acc_(&acc), touched_(&touched), chunks_(chunks) {}
  ~ObservationSink() {
    for (const std::uint32_t kid : *touched_) (*acc_)[kid] = Acc{};
    touched_->clear();
  }
  ObservationSink(const ObservationSink&) = delete;
  ObservationSink& operator=(const ObservationSink&) = delete;

  /// Accounts one executed run. \p first_exec_start is the absolute start of
  /// the run's first execution and \p end_cursor the cursor after its last.
  void note_run(const ExecRun& run, Cycles first_exec_start,
                Cycles end_cursor) {
    const std::uint32_t kid = raw(run.kernel);
    if (kid >= acc_->size()) acc_->resize(kid + 1);
    Acc& a = (*acc_)[kid];
    if (!a.seen) {
      a.first_start = first_exec_start - start_;
      a.seen = true;
      touched_->push_back(kid);
    }
    // The run spans its executions plus the gaps before all but its first.
    a.exec_cycles +=
        end_cursor - first_exec_start - (run.gap_total - run.first_gap);
    a.executions += static_cast<double>(run.count);
    a.last_end = end_cursor - start_;
  }

  /// Accounts kernel \p k's share of a stretch of whole chunks committed at
  /// once. The stretch holds neither the kernel's first nor its last run
  /// (RunChunk::next_endpoint), so the kernel is already seen and its last
  /// end is set by a later note_run.
  void note_stretch_kernel(KernelId k, std::uint32_t executions,
                           Cycles exec_cycles) {
    Acc& a = (*acc_)[raw(k)];
    a.exec_cycles += exec_cycles;
    a.executions += static_cast<double>(executions);
  }

  /// Chunk summaries of the block's runs, or null when there are none.
  const RunChunks* chunks() const { return chunks_; }

  /// Appends the block's observed per-kernel statistics to \p out in
  /// ascending kernel id — the std::map order of the legacy loop, so the MPU
  /// feedback (and every downstream byte) is identical.
  void emit(std::vector<ObservedKernelStats>& out) {
    std::sort(touched_->begin(), touched_->end());
    for (const std::uint32_t kid : *touched_) {
      const Acc& a = (*acc_)[kid];
      ObservedKernelStats stats;
      stats.kernel = KernelId{kid};
      stats.executions = a.executions;
      stats.time_to_first = a.first_start;
      const Cycles gap_sum = a.last_end - a.first_start - a.exec_cycles;
      stats.time_between =
          a.executions > 1.0
              ? static_cast<Cycles>(static_cast<double>(gap_sum) /
                                    (a.executions - 1.0))
              : Cycles{0};
      out.push_back(stats);
    }
  }

 private:
  Cycles start_;
  std::vector<Acc>* acc_;
  std::vector<std::uint32_t>* touched_;
  const RunChunks* chunks_;
};

}  // namespace mrts
