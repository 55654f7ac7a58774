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

  // Which kernel runs how often in each macroblock depends only on the
  // running remainders, never on the draws. A first pass over them gives
  // the block's runs and kernels, so the second can write the runs and
  // their chunk rows as it draws the events: the trace is shared read-only
  // across sweep points, and every run_block replays the same runs.
  std::vector<double> remainder(work.size(), 0.0);
  auto reps_of = [&](std::size_t w) {
    remainder[w] += work[w].repetitions_per_mb;
    const auto reps = static_cast<unsigned>(remainder[w]);
    remainder[w] -= reps;
    return reps;
  };
  RunShape shape;
  for (unsigned mb = 0; mb < macroblocks; ++mb) {
    for (std::size_t w = 0; w < work.size(); ++w) {
      if (reps_of(w) > 0) shape.add(work[w].kernel);
    }
  }
  std::fill(remainder.begin(), remainder.end(), 0.0);

  RunWriter writer(instance.runs, &instance.chunks, shape);
  // Drawn from a copy, stored back below, so the generator state stays in
  // registers across the event stores.
  Rng draw = rng;
  Cycles entry = entry_gap;  // the block's first event only
  for (unsigned mb = 0; mb < macroblocks; ++mb) {
    for (std::size_t w = 0; w < work.size(); ++w) {
      const unsigned reps = reps_of(w);
      if (reps == 0) continue;
      // Copied out of work[w], which the event stores might alias.
      const KernelId kernel = work[w].kernel;
      const auto gap_cycles = static_cast<double>(work[w].gap_cycles);
      const double gap_jitter = work[w].gap_jitter;
      Cycles first_gap = 0;
      Cycles gap_total = 0;
      for (unsigned r = 0; r < reps; ++r) {
        const double jitter = 1.0 + gap_jitter * (2.0 * draw.uniform01() - 1.0);
        auto gap = static_cast<Cycles>(std::max(0.0, gap_cycles * jitter));
        if (r == 0) {
          gap += entry;
          entry = 0;
          first_gap = gap;
        }
        instance.events.push_back({kernel, gap});
        gap_total += gap;
      }
      writer.append(kernel, reps, first_gap, gap_total);
    }
  }
  rng = draw;
  writer.finish();
  return instance;
}

void stamp_programmed_trigger(FunctionalBlockInstance& instance,
                              const IseLibrary& lib) {
  instance.programmed =
      derive_trigger(instance, risc_latency_table(lib));
}

}  // namespace mrts
