#include "sim/schedule.h"

#include <algorithm>
#include <stdexcept>

namespace mrts {

namespace {

/// Summarizes \p runs (maximal, as decode_runs makes them) into \p chunks
/// (cleared first), in one pass over the runs.
void summarize_chunks(const std::vector<ExecRun>& runs, RunChunks& chunks) {
  chunks.chunks.clear();
  chunks.kernels.clear();
  chunks.chunks.reserve((runs.size() + kChunkRuns - 1) / kChunkRuns);
  // The instance's distinct kernels with the last chunk each appears in. A
  // block interleaves few kernels, so linear scans (once per new chunk
  // entry, and over the chunk's own entries per run) beat any map.
  struct Span {
    KernelId kernel;
    std::size_t last_chunk;
  };
  std::vector<Span> spans;
  for (std::size_t begin = 0; begin < runs.size(); begin += kChunkRuns) {
    const std::size_t end = std::min(runs.size(), begin + kChunkRuns);
    const std::size_t c = chunks.chunks.size();
    RunChunk chunk;
    chunk.first_kernel = static_cast<std::uint32_t>(chunks.kernels.size());
    for (std::size_t r = begin; r < end; ++r) {
      const ExecRun& run = runs[r];
      chunk.gap_total += run.gap_total;
      std::size_t e = chunk.first_kernel;
      while (e < chunks.kernels.size() &&
             chunks.kernels[e].kernel != run.kernel) {
        ++e;
      }
      if (e == chunks.kernels.size()) {
        chunks.kernels.push_back({run.kernel, 0, 0});
        auto span = std::find_if(
            spans.begin(), spans.end(),
            [&](const Span& s) { return s.kernel == run.kernel; });
        if (span == spans.end()) {
          spans.push_back({run.kernel, c});
          chunk.holds_endpoint = true;  // the kernel's first run
        } else {
          span->last_chunk = c;
        }
      }
      chunks.kernels[e].runs += 1;
      chunks.kernels[e].executions += run.count;
    }
    chunk.num_kernels =
        static_cast<std::uint32_t>(chunks.kernels.size()) - chunk.first_kernel;
    chunk.last_kernel = runs[end - 1].kernel;
    chunks.chunks.push_back(chunk);
  }
  for (const Span& span : spans) {
    chunks.chunks[span.last_chunk].holds_endpoint = true;  // its last run
  }
}

}  // namespace

void decode_runs(const std::vector<ExecEvent>& events,
                 std::vector<ExecRun>& runs) {
  runs.clear();
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
