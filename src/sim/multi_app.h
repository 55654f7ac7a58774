#pragma once
/// \file multi_app.h
/// Multi-task simulation: several applications time-share the core processor
/// while their run-time systems share one reconfigurable fabric. This is the
/// "available fabric shared among various tasks" scenario of Section 1: one
/// task's installation may evict another task's data paths, and each task's
/// RTS must re-select under whatever it finds when its turn comes.
///
/// run_multi_tenant is an event-driven weighted round-robin: priorities,
/// releases, per-task deadlines and (optionally) a FabricArbiter doing
/// admission control and tenant-aware placement. With default task fields
/// and no arbiter it is the unmanaged free-for-all (MRts's shared-fabric
/// constructor). TaskStream is its resumable form, which the CMP scheduler
/// (sim/cmp.h) drives one turn per core.

#include <array>
#include <string>
#include <vector>

#include "arch/tenant.h"
#include "rts/rts_interface.h"
#include "sim/schedule.h"
#include "util/types.h"

namespace mrts {

class TraceRecorder;
class FabricArbiter;

/// One task: a run-time system instance plus its application trace.
struct Task {
  std::string name;
  RuntimeSystem* rts = nullptr;           ///< not owned
  const ApplicationTrace* trace = nullptr;  ///< not owned
  /// Scheduling weight: number of consecutive functional blocks the task
  /// executes per turn (>= 1). Higher weight = larger share of the core and
  /// fewer fabric-eviction boundaries.
  unsigned slice_blocks = 1;
  /// Optional flight recorder for this task's block begin/end events (not
  /// owned). Typically the same recorder attached to the task's RTS.
  TraceRecorder* recorder = nullptr;
  /// Scheduling priority: higher runs first among released tasks. 0 (the
  /// default) keeps plain round-robin order.
  unsigned priority = 0;
  /// Absolute cycle before which the task may not run (0 = released at
  /// start).
  Cycles release = 0;
  /// Absolute completion deadline, reported (not enforced) in the result;
  /// 0 = none. Among equal priorities the earliest deadline runs first.
  Cycles deadline = 0;
  /// Tenant this task's RTS acts as on the shared fabric. Non-default values
  /// require an arbiter that knows the id (run_multi_tenant validates).
  TenantId tenant = kUnownedTenant;
};

struct TaskRunResult {
  std::string name;
  /// Core cycles spent executing this task's blocks (its share of the
  /// timeline).
  Cycles active_cycles = 0;
  /// Absolute cycle at which the task's last block finished.
  Cycles finished_at = 0;
  std::vector<Cycles> block_cycles;
  std::array<std::uint64_t, kNumImplKinds> impl_executions{};
};

/// Per-task outcome of run_multi_tenant.
struct MultiTenantTaskResult {
  TaskRunResult run;
  TenantId tenant = kUnownedTenant;
  /// False when the arbiter bounced the task's tenant (reservation no longer
  /// fits the usable post-quarantine capacity): the task ran zero blocks.
  bool admitted = true;
  std::string admission_reason;  ///< why admission failed ("" when admitted)
  /// Absolute cycle the task became eligible to run (max of the run start
  /// and the task's release). finished_at - admitted_at is the
  /// admission-to-completion latency reported per tenant by trace-analyze.
  Cycles admitted_at = 0;
  /// finished_at <= deadline; vacuously true without a deadline or when the
  /// task was bounced before running.
  bool deadline_met = true;
};

struct MultiTenantResult {
  Cycles total_cycles = 0;  ///< end of the last block of any admitted task
  std::vector<MultiTenantTaskResult> tasks;
};

/// Resumable form of the run_multi_tenant scheduling loop: construction does
/// the validation and the up-front admission pass, each step() runs exactly
/// one scheduling turn (one slice of the picked task, or one idle jump to the
/// earliest release), and take_result() finalizes deadlines/completion events
/// and hands the result out. run_multi_tenant() is implemented as
/// "step until done" over one stream, so driving a stream turn-by-turn — as
/// the CMP scheduler (sim/cmp.h) does with one stream per core — produces the
/// identical block/event sequence by construction.
class TaskStream {
 public:
  /// Validates the tasks (throws std::invalid_argument with messages
  /// prefixed "<who>: ") and performs the admission pass at \p start.
  TaskStream(const std::vector<Task>& tasks, FabricArbiter* arbiter,
             Cycles start, const char* who = "run_multi_tenant");

  /// Outcome of one scheduling turn.
  struct Turn {
    bool ran = false;     ///< false: idle jump (or the stream just finished)
    std::size_t task = 0;  ///< picked task index (valid when ran)
    Cycles begin = 0;      ///< slice start (valid when ran)
    Cycles end = 0;        ///< slice end == cursor() after the turn
    unsigned blocks = 0;   ///< functional blocks executed this turn
    Cycles extra = 0;      ///< interconnect cycles charged within the slice
  };

  /// Runs one turn. \p extra_per_block is charged after every executed block
  /// (the CMP scheduler's per-core interconnect transfer cost; 0 — the
  /// single-core / zero-extra-hop case — leaves the legacy timeline
  /// untouched). No-op once done().
  Turn step(Cycles extra_per_block = 0);

  /// Charges \p cycles of wait at the current cursor to task \p task (the CMP
  /// scheduler's reconfiguration-port contention): advances the cursor and
  /// attributes the cycles to the task's active time and its latest block.
  void charge(std::size_t task, Cycles cycles);

  bool done() const { return done_; }
  Cycles cursor() const { return cursor_; }
  const Task& task(std::size_t i) const { return (*tasks_)[i]; }
  std::size_t num_tasks() const { return tasks_->size(); }

  /// Finalizes deadline_met / completion events and returns the result.
  /// Call exactly once, after done().
  MultiTenantResult take_result();

 private:
  const std::vector<Task>* tasks_;
  Cycles start_;
  Cycles cursor_;
  std::size_t last_;
  std::vector<std::size_t> next_block_;
  MultiTenantResult result_;
  bool done_ = false;
};

/// Runs all tasks to completion on the single core. Each turn, among the
/// unfinished tasks whose release has passed, it picks the highest priority,
/// breaking ties by earliest deadline (none = latest) and then by cyclic
/// order after the previously scheduled task — which, with all-default
/// fields, is plain weighted round-robin (slice_blocks functional blocks per
/// turn). When no unfinished task is released the clock jumps to the
/// earliest release. Tasks are NOT reset (callers decide whether learned
/// state carries over); a shared fabric keeps whatever the interleaved
/// installations left behind. With an \p arbiter, tasks whose tenant is not
/// (or no longer) admitted are bounced up front: they run zero blocks and
/// carry the arbiter's admission_reason.
///
/// Throws std::invalid_argument on null task members, zero slice weights, a
/// non-default tenant id without an arbiter, or a tenant id the arbiter does
/// not know.
MultiTenantResult run_multi_tenant(const std::vector<Task>& tasks,
                                   FabricArbiter* arbiter = nullptr,
                                   Cycles start = 0);

}  // namespace mrts
