#include "sim/schedule.h"

#include <algorithm>
#include <stdexcept>

namespace mrts {

RunWriter::RunWriter(std::vector<ExecRun>& runs, RunChunks* chunks,
                     RunShape& shape)
    : runs_(runs) {
  runs.clear();
  runs.reserve(shape.runs());  // kept for the trace's lifetime: exact size
  if (chunks == nullptr) return;
  chunks->kernels.clear();
  chunks->chunks.clear();
  chunks->counts.clear();
  if (shape.runs() <= kChunkRuns) return;
  chunks_ = chunks;
  chunks->kernels = std::move(shape.kernels());
  const std::size_t num_chunks = (shape.runs() + kChunkRuns - 1) / kChunkRuns;
  chunks->chunks.reserve(num_chunks);
  chunks->counts.reserve(num_chunks * chunks->kernels.size());
  tally_.resize(chunks->kernels.size());
}

void RunWriter::close_run() {
  if (run_.count == 0) return;
  const auto r = static_cast<std::uint32_t>(runs_.size());
  runs_.push_back(run_);
  if (chunks_ == nullptr) return;
  if (r % kChunkRuns == 0) {  // a chunk starts: the boundary's prefix sums
    chunks_->chunks.push_back({gaps_, kInvalidKernel, 0});
    for (const KernelTally& t : tally_) chunks_->counts.push_back(t.closed);
  }
  chunks_->chunks.back().last_kernel = run_.kernel;
  gaps_ += run_.gap_total;
  std::size_t j = 0;
  while (chunks_->kernels[j] != run_.kernel) ++j;
  KernelTally& t = tally_[j];
  if (t.closed.runs == 0) t.first_run = r;
  t.last_run = r;
  t.closed.runs += 1;
  t.closed.executions += run_.count;
}

void RunWriter::finish() {
  close_run();
  if (chunks_ == nullptr) return;
  // The last chunk holds the instance's last run, which is its kernel's
  // last, so every chunk has an endpoint chunk at or after it.
  std::vector<RunChunk>& rows = chunks_->chunks;
  std::vector<bool> endpoint(rows.size(), false);
  for (const KernelTally& t : tally_) {
    endpoint[t.first_run / kChunkRuns] = true;
    endpoint[t.last_run / kChunkRuns] = true;
  }
  auto next = static_cast<std::uint32_t>(rows.size() - 1);
  for (std::size_t c = rows.size(); c-- > 0;) {
    if (endpoint[c]) next = static_cast<std::uint32_t>(c);
    rows[c].next_endpoint = next;
  }
}

namespace {

/// Writes the runs of \p events, and their chunk rows unless \p chunks is
/// null: a scan for the shape, then every event as a stretch of one.
void write_runs(const std::vector<ExecEvent>& events,
                std::vector<ExecRun>& runs, RunChunks* chunks) {
  RunShape shape;
  for (const ExecEvent& e : events) shape.add(e.kernel);
  RunWriter writer(runs, chunks, shape);
  for (const ExecEvent& e : events) {
    writer.append(e.kernel, 1, e.gap_before, e.gap_before);
  }
  writer.finish();
}

}  // namespace

void decode_runs(const std::vector<ExecEvent>& events,
                 std::vector<ExecRun>& runs) {
  write_runs(events, runs, nullptr);
}

void finalize_instance_runs(FunctionalBlockInstance& instance) {
  write_runs(instance.events, instance.runs, &instance.chunks);
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
