#include "sim/schedule.h"

#include <algorithm>
#include <stdexcept>

namespace mrts {

namespace {

/// Summarizes \p runs (maximal, as decode_runs makes them) into \p chunks
/// (cleared first): a scan of the run kernels finds the distinct kernels and
/// each one's first and last run, then one pass over the runs writes the
/// prefix sums at every chunk boundary.
void summarize_chunks(const std::vector<ExecRun>& runs, RunChunks& chunks) {
  chunks.kernels.clear();
  chunks.chunks.clear();
  chunks.counts.clear();
  if (runs.size() <= kChunkRuns) return;  // one chunk holds every endpoint
  const std::size_t num_chunks = (runs.size() + kChunkRuns - 1) / kChunkRuns;

  // A block interleaves few kernels, so sorted inserts and linear scans
  // beat any map. first_run / last_run run parallel to chunks.kernels.
  std::vector<KernelId>& kernels = chunks.kernels;
  std::vector<std::size_t> first_run;
  std::vector<std::size_t> last_run;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const auto it = std::lower_bound(kernels.begin(), kernels.end(),
                                     runs[r].kernel);
    const auto j = static_cast<std::size_t>(it - kernels.begin());
    if (it == kernels.end() || *it != runs[r].kernel) {
      kernels.insert(it, runs[r].kernel);
      first_run.insert(first_run.begin() + j, r);
      last_run.insert(last_run.begin() + j, r);
    }
    last_run[j] = r;
  }

  const std::size_t width = kernels.size();
  chunks.chunks.resize(num_chunks);
  chunks.counts.resize(num_chunks * width);
  std::vector<RunCount> before(width);  // totals before the current run
  Cycles gaps = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    RunChunk& chunk = chunks.chunks[c];
    chunk.gaps_before = gaps;
    std::copy(before.begin(), before.end(), &chunks.counts[c * width]);
    const std::size_t end = std::min(runs.size(), (c + 1) * kChunkRuns);
    for (std::size_t r = c * kChunkRuns; r < end; ++r) {
      const ExecRun& run = runs[r];
      gaps += run.gap_total;
      std::size_t j = 0;
      while (kernels[j] != run.kernel) ++j;
      before[j].runs += 1;
      before[j].executions += run.count;
    }
    chunk.last_kernel = runs[end - 1].kernel;
  }

  // The last chunk holds the instance's last run, which is its kernel's
  // last, so every chunk has an endpoint chunk at or after it.
  std::vector<bool> endpoint(num_chunks, false);
  for (std::size_t j = 0; j < width; ++j) {
    endpoint[first_run[j] / kChunkRuns] = true;
    endpoint[last_run[j] / kChunkRuns] = true;
  }
  auto next = static_cast<std::uint32_t>(num_chunks - 1);
  for (std::size_t c = num_chunks; c-- > 0;) {
    if (endpoint[c]) next = static_cast<std::uint32_t>(c);
    chunks.chunks[c].next_endpoint = next;
  }
}

}  // namespace

void decode_runs(const std::vector<ExecEvent>& events,
                 std::vector<ExecRun>& runs) {
  // Count the runs first, so an instance's runs (kept for the trace's
  // lifetime) take no more memory than they hold.
  std::size_t num_runs = events.empty() ? 0 : 1;
  for (std::size_t i = 1; i < events.size(); ++i) {
    num_runs += events[i].kernel != events[i - 1].kernel ? 1 : 0;
  }
  runs.clear();
  runs.reserve(num_runs);
  for (std::size_t i = 0; i < events.size();) {
    ExecRun run;
    run.kernel = events[i].kernel;
    run.first_event = static_cast<std::uint32_t>(i);
    run.first_gap = events[i].gap_before;
    do {
      run.gap_total += events[i].gap_before;
      ++i;
    } while (i < events.size() && events[i].kernel == run.kernel);
    run.count = static_cast<std::uint32_t>(i) - run.first_event;
    runs.push_back(run);
  }
}

void finalize_instance_runs(FunctionalBlockInstance& instance) {
  decode_runs(instance.events, instance.runs);
  summarize_chunks(instance.runs, instance.chunks);
}

const std::vector<ExecRun>& instance_runs(
    const FunctionalBlockInstance& instance, std::vector<ExecRun>& scratch) {
  const std::vector<ExecRun>& runs = instance.runs;
  if (!runs.empty() && static_cast<std::size_t>(runs.back().first_event) +
                               runs.back().count ==
                           instance.events.size()) {
    return runs;
  }
  decode_runs(instance.events, scratch);
  return scratch;
}

TriggerInstruction derive_trigger(
    const FunctionalBlockInstance& instance,
    const std::vector<Cycles>& risc_latency_by_kernel) {
  struct Acc {
    double executions = 0.0;
    Cycles first_start = 0;
    Cycles last_end = 0;
    Cycles gap_sum = 0;  // idle cycles between consecutive executions
    bool seen = false;
  };
  std::vector<Acc> acc(risc_latency_by_kernel.size());  // by raw kernel id
  std::vector<ExecRun> scratch;

  Cycles cursor = 0;
  for (const ExecRun& run : instance_runs(instance, scratch)) {
    const auto kid = raw(run.kernel);
    if (kid >= acc.size()) {
      throw std::invalid_argument("derive_trigger: kernel without latency");
    }
    Acc& a = acc[kid];
    cursor += run.first_gap;
    if (!a.seen) {
      a.first_start = cursor;
      a.seen = true;
    } else {
      a.gap_sum += cursor - a.last_end;
    }
    const Cycles inner_gaps = run.gap_total - run.first_gap;
    a.gap_sum += inner_gaps;
    a.executions += static_cast<double>(run.count);
    cursor += inner_gaps + run.count * risc_latency_by_kernel[kid];
    a.last_end = cursor;
  }

  TriggerInstruction ti;
  ti.functional_block = instance.functional_block;
  for (std::uint32_t kid = 0; kid < acc.size(); ++kid) {
    const Acc& a = acc[kid];
    if (!a.seen) continue;
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

}  // namespace mrts
