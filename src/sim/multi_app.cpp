#include "sim/multi_app.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/arbiter.h"
#include "sim/fb_simulator.h"
#include "util/trace.h"

namespace mrts {
namespace {

constexpr Cycles kNoDeadline = std::numeric_limits<Cycles>::max();

/// Scheduling key: higher priority first, then earlier deadline (none =
/// latest). The cyclic-order tiebreak lives in the scan order of the caller.
bool strictly_better(const Task& a, const Task& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  const Cycles da = a.deadline == 0 ? kNoDeadline : a.deadline;
  const Cycles db = b.deadline == 0 ? kNoDeadline : b.deadline;
  return da < db;
}

}  // namespace

TaskStream::TaskStream(const std::vector<Task>& tasks, FabricArbiter* arbiter,
                       Cycles start, const char* who)
    : tasks_(&tasks), start_(start), cursor_(start), last_(tasks.size() - 1) {
  const std::string prefix = std::string(who) + ": ";
  for (const Task& t : tasks) {
    if (t.rts == nullptr || t.trace == nullptr) {
      throw std::invalid_argument(prefix + "null task member");
    }
    if (t.slice_blocks == 0) {
      throw std::invalid_argument(prefix + "zero slice weight");
    }
    if (t.tenant != kUnownedTenant) {
      if (arbiter == nullptr) {
        throw std::invalid_argument(prefix + "task '" + t.name +
                                    "' names a tenant but no arbiter was "
                                    "given");
      }
      if (!arbiter->known(t.tenant)) {
        throw std::invalid_argument(prefix + "task '" + t.name +
                                    "' names an unknown tenant id");
      }
    }
  }

  result_.tasks.resize(tasks.size());
  next_block_.assign(tasks.size(), 0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    MultiTenantTaskResult& tr = result_.tasks[i];
    tr.run.name = tasks[i].name;
    tr.tenant = tasks[i].tenant;
    tr.admitted_at = std::max(start, tasks[i].release);
    // Admission control: a tenant whose reservation no longer fits the
    // usable (post-quarantine) capacity is bounced before running anything.
    if (tasks[i].tenant != kUnownedTenant &&
        !arbiter->admitted(tasks[i].tenant)) {
      tr.admitted = false;
      tr.admission_reason = arbiter->admission_reason(tasks[i].tenant);
      next_block_[i] = tasks[i].trace->blocks.size();  // nothing to run
    }
    if (tasks[i].recorder != nullptr) {
      // Bounce decisions are made up front at `start`; an admitted task's
      // decision point is when it becomes eligible (release-gated).
      tasks[i].recorder->record(
          {TraceEventKind::kTenantAdmission, kTrackApp,
           tr.admitted ? tr.admitted_at : start, 0,
           static_cast<std::uint32_t>(i), tr.admitted ? 1u : 0u, 0.0, 0.0,
           tasks[i].tenant});
    }
  }
  if (tasks.empty()) done_ = true;
}

TaskStream::Turn TaskStream::step(Cycles extra_per_block) {
  Turn turn;
  if (done_) return turn;
  const std::vector<Task>& tasks = *tasks_;

  // Earliest release among unfinished-but-unreleased tasks, in case the
  // core has to idle.
  Cycles next_release = kNoDeadline;
  std::size_t pick = tasks.size();
  for (std::size_t step = 1; step <= tasks.size(); ++step) {
    const std::size_t i = (last_ + step) % tasks.size();
    if (next_block_[i] >= tasks[i].trace->blocks.size()) continue;
    if (tasks[i].release > cursor_) {
      if (tasks[i].release < next_release) next_release = tasks[i].release;
      continue;
    }
    if (pick == tasks.size() || strictly_better(tasks[i], tasks[pick])) {
      pick = i;
    }
  }
  if (pick == tasks.size()) {
    if (next_release == kNoDeadline) {
      done_ = true;  // all tasks finished
    } else {
      cursor_ = next_release;  // idle until the next task is released
    }
    return turn;
  }

  turn.ran = true;
  turn.task = pick;
  turn.begin = cursor_;
  for (unsigned slice = 0; slice < tasks[pick].slice_blocks; ++slice) {
    if (next_block_[pick] >= tasks[pick].trace->blocks.size()) break;
    const FunctionalBlockInstance& block =
        tasks[pick].trace->blocks[next_block_[pick]++];
    const FbRunResult r =
        run_block(*tasks[pick].rts, block, cursor_, tasks[pick].recorder);
    cursor_ += r.cycles + extra_per_block;
    TaskRunResult& task_result = result_.tasks[pick].run;
    task_result.active_cycles += r.cycles + extra_per_block;
    task_result.finished_at = cursor_;
    task_result.block_cycles.push_back(r.cycles + extra_per_block);
    for (std::size_t k = 0; k < kNumImplKinds; ++k) {
      task_result.impl_executions[k] += r.impl_executions[k];
    }
    ++turn.blocks;
    turn.extra += extra_per_block;
  }
  last_ = pick;
  turn.end = cursor_;
  return turn;
}

void TaskStream::charge(std::size_t task, Cycles cycles) {
  if (cycles == 0) return;
  cursor_ += cycles;
  TaskRunResult& task_result = result_.tasks[task].run;
  task_result.active_cycles += cycles;
  task_result.finished_at = cursor_;
  if (!task_result.block_cycles.empty()) {
    task_result.block_cycles.back() += cycles;
  }
}

MultiTenantResult TaskStream::take_result() {
  const std::vector<Task>& tasks = *tasks_;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    MultiTenantTaskResult& tr = result_.tasks[i];
    if (tr.admitted && tasks[i].deadline != 0) {
      tr.deadline_met = tr.run.finished_at <= tasks[i].deadline;
    }
    // Admission-to-completion span, the raw material for trace-analyze's
    // per-tenant latency percentiles. Only tasks that actually ran blocks
    // have a completion point.
    if (tasks[i].recorder != nullptr && tr.admitted &&
        !tr.run.block_cycles.empty()) {
      tasks[i].recorder->record(
          {TraceEventKind::kTenantCompletion, kTrackApp, tr.admitted_at,
           tr.run.finished_at - tr.admitted_at, static_cast<std::uint32_t>(i),
           0, static_cast<double>(tr.run.block_cycles.size()), 0.0,
           tasks[i].tenant});
    }
  }
  result_.total_cycles = cursor_ - start_;
  return std::move(result_);
}

MultiTenantResult run_multi_tenant(const std::vector<Task>& tasks,
                                   FabricArbiter* arbiter, Cycles start) {
  TaskStream stream(tasks, arbiter, start, "run_multi_tenant");
  while (!stream.done()) stream.step();
  return stream.take_result();
}

}  // namespace mrts
