#include "rts/rts_interface.h"

#include "sim/obs_accum.h"
#include "sim/schedule.h"

namespace mrts {

Cycles RuntimeSystem::execute_run(KernelId k, Cycles cursor,
                                  const ExecEvent* events, std::size_t n,
                                  Cycles gap_total,
                                  std::uint64_t* impl_executions,
                                  Cycles* impl_cycles,
                                  Cycles* first_exec_start) {
  (void)gap_total;
  for (std::size_t i = 0; i < n; ++i) {
    cursor += events[i].gap_before;
    if (i == 0) *first_exec_start = cursor;
    const ExecOutcome out = execute_kernel(k, cursor);
    impl_executions[static_cast<std::size_t>(out.impl)]++;
    impl_cycles[static_cast<std::size_t>(out.impl)] += out.latency;
    cursor += out.latency;
  }
  return cursor;
}

Cycles RuntimeSystem::execute_events(const ExecEvent* events,
                                     const ExecRun* runs, std::size_t num_runs,
                                     Cycles cursor,
                                     std::uint64_t* impl_executions,
                                     Cycles* impl_cycles,
                                     ObservationSink& obs) {
  for (std::size_t r = 0; r < num_runs; ++r) {
    const ExecRun& run = runs[r];
    Cycles first_exec_start = 0;
    cursor = execute_run(run.kernel, cursor, events + run.first_event,
                         run.count, run.gap_total, impl_executions,
                         impl_cycles, &first_exec_start);
    obs.note_run(run, first_exec_start, cursor);
  }
  return cursor;
}

}  // namespace mrts
