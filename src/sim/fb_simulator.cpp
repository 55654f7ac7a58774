#include "sim/fb_simulator.h"

#include <map>

#include "sim/obs_accum.h"
#include "util/fastpath.h"
#include "util/trace.h"

namespace mrts {
namespace {

/// Per-kernel observation accumulator of the legacy loop.
struct Acc {
  double executions = 0.0;
  Cycles first_start = 0;
  Cycles last_end = 0;
  Cycles gap_sum = 0;
  bool seen = false;
};

/// Legacy per-event loop: one virtual execute_kernel call per event, map
/// accumulator. Kept verbatim as the oracle for the batched fast path
/// (util/fastpath.h toggles between them; outputs are bit-identical).
Cycles run_events_legacy(RuntimeSystem& rts,
                         const FunctionalBlockInstance& instance, Cycles start,
                         Cycles cursor, FbRunResult& result) {
  std::map<std::uint32_t, Acc> acc;
  for (const auto& ev : instance.events) {
    cursor += ev.gap_before;
    const Cycles exec_start = cursor;
    const ExecOutcome outcome = rts.execute_kernel(ev.kernel, cursor);
    cursor += outcome.latency;

    result.impl_executions[static_cast<std::size_t>(outcome.impl)]++;
    result.impl_cycles[static_cast<std::size_t>(outcome.impl)] +=
        outcome.latency;

    Acc& a = acc[raw(ev.kernel)];
    if (!a.seen) {
      a.first_start = exec_start - start;
      a.seen = true;
    } else {
      a.gap_sum += exec_start - start - a.last_end;
    }
    a.executions += 1.0;
    a.last_end = cursor - start;
  }
  for (const auto& [kid, a] : acc) {
    ObservedKernelStats stats;
    stats.kernel = KernelId{kid};
    stats.executions = a.executions;
    stats.time_to_first = a.first_start;
    stats.time_between =
        a.executions > 1.0
            ? static_cast<Cycles>(static_cast<double>(a.gap_sum) /
                                  (a.executions - 1.0))
            : Cycles{0};
    result.observed.kernels.push_back(stats);
  }
  return cursor;
}

/// Batched fast path: dispatches pre-decoded same-kernel runs (and their
/// chunk summaries) through RuntimeSystem::execute_events and accumulates
/// observations in flat (structure-of-arrays) scratch indexed by raw kernel
/// id — no per-kernel map nodes, no per-event virtual dispatch. The scratch
/// is static and reused by every block (the library is single-threaded).
Cycles run_events_batched(RuntimeSystem& rts,
                          const FunctionalBlockInstance& instance, Cycles start,
                          Cycles cursor, FbRunResult& result) {
  static std::vector<ExecRun> scratch_runs;
  const std::vector<ExecRun>& runs = instance_runs(instance, scratch_runs);
  // Without summaries of exactly the instance's own runs the ECU commits run
  // by run.
  const RunChunks* chunks =
      &runs == &instance.runs && instance.chunks.covers(runs.size())
          ? &instance.chunks
          : nullptr;

  static std::vector<ObservationSink::Acc> acc;  // by raw kernel id
  static std::vector<std::uint32_t> touched;

  // One virtual call executes the whole block (see Ecu::execute_events);
  // the sink's inline note_run fuses the per-kernel accumulation into the
  // execution loop itself.
  ObservationSink sink(start, acc, touched, chunks);
  cursor = rts.execute_events(instance.events.data(), runs.data(),
                              runs.size(), cursor,
                              result.impl_executions.data(),
                              result.impl_cycles.data(), sink);
  sink.emit(result.observed.kernels);
  return cursor;
}

}  // namespace

FbRunResult run_block(RuntimeSystem& rts,
                      const FunctionalBlockInstance& instance, Cycles start,
                      TraceRecorder* recorder) {
  FbRunResult result;

  if (recorder != nullptr) {
    recorder->record({TraceEventKind::kBlockBegin, kTrackApp, start, 0,
                      raw(instance.functional_block), 0, 0.0, 0.0});
  }

  Cycles cursor = start;
  result.selection = rts.on_trigger(instance.programmed, cursor);
  result.blocking_overhead = result.selection.blocking_overhead;
  cursor += result.blocking_overhead;

  result.observed.functional_block = instance.functional_block;
  cursor = fastpath_enabled()
               ? run_events_batched(rts, instance, start, cursor, result)
               : run_events_legacy(rts, instance, start, cursor, result);
  cursor += instance.tail_gap;

  rts.on_block_end(result.observed, cursor);
  result.cycles = cursor - start;
  if (recorder != nullptr) {
    // Span event covering the whole block instance.
    recorder->record({TraceEventKind::kBlockEnd, kTrackApp, start,
                      result.cycles, raw(instance.functional_block), 0,
                      static_cast<double>(result.blocking_overhead), 0.0});
  }
  return result;
}

}  // namespace mrts
