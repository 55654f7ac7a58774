#include "workload/workload_gen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/app_simulator.h"

namespace mrts {

FunctionalBlockInstance make_block_instance(
    FunctionalBlockId fb, unsigned macroblocks,
    const std::vector<KernelWork>& work, Cycles entry_gap, Cycles tail_gap,
    Rng& rng) {
  if (macroblocks == 0) {
    throw std::invalid_argument("make_block_instance: zero macroblocks");
  }
  FunctionalBlockInstance instance;
  instance.functional_block = fb;
  instance.tail_gap = tail_gap;

  // Size the event list once: kernel w's running remainder yields
  // floor(macroblocks * repetitions_per_mb) executions, give or take the
  // rounding of the running sum, which the +1 covers.
  std::size_t max_events = 0;
  for (const KernelWork& kw : work) {
    max_events += static_cast<std::size_t>(
                      std::max(0.0, kw.repetitions_per_mb) * macroblocks) +
                  1;
  }
  instance.events.reserve(max_events);

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
        instance.events.push_back(ev);
      }
    }
  }
  // Decode the run-compressed view and its chunk summaries once, at build
  // time: the trace is shared read-only across sweep points, so every
  // run_block call replays the same pre-decoded runs instead of re-scanning
  // the event list.
  finalize_instance_runs(instance);
  return instance;
}

void stamp_programmed_trigger(FunctionalBlockInstance& instance,
                              const IseLibrary& lib) {
  instance.programmed =
      derive_trigger(instance, risc_latency_table(lib));
}

}  // namespace mrts
