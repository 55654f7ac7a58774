#pragma once
/// \file reconfig_controller.h
/// Reconfiguration scheduling. The FG fabric has a single reconfiguration
/// port: partial bitstreams are streamed one at a time (this serialization is
/// what makes FG reconfiguration the dominant latency, ~1.2 ms per data
/// path). CG context programs are streamed through a separate, much faster
/// port (~0.15 us per context).
///
/// The controller models each port as a FIFO queue of jobs. Jobs that have
/// not started yet may be cancelled (e.g. when a new functional-block
/// selection evicts a data path that was still waiting to be loaded); the
/// queue is then re-timed.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/types.h"

namespace mrts {

class SnapshotWriter;
class SnapshotReader;

/// Identifier of a queued reconfiguration job.
using ReconfigJobId = std::uint64_t;

/// One queued (or completed) reconfiguration.
struct ReconfigJob {
  ReconfigJobId id = 0;
  DataPathId dp = kInvalidDataPath;
  /// Container index: PRC index for FG jobs, CG fabric index for CG jobs.
  unsigned container = 0;
  Cycles enqueued_at = 0;
  Cycles duration = 0;
  Cycles starts_at = 0;
  Cycles completes_at = 0;

  /// True when the job has begun streaming strictly before \p now. A started
  /// job cannot be cancelled and keeps blocking the port until it completes;
  /// a job with starts_at == now has *not* started by now (it would begin on
  /// this very cycle) and is still cancellable. This single predicate is the
  /// authoritative started/not-started boundary for both cancel_pending()
  /// and the queue re-timing.
  bool started_before(Cycles now) const { return starts_at < now; }
};

/// FIFO port that processes reconfiguration jobs back to back.
class ReconfigPort {
 public:
  /// Enqueues a job; returns its completion time given the current backlog.
  const ReconfigJob& enqueue(DataPathId dp, unsigned container,
                             Cycles duration, Cycles now);

  /// Cancels all jobs that have not started by \p now and match \p predicate,
  /// then re-times the remaining not-yet-started jobs. "Not started by now"
  /// includes the boundary case starts_at == now — the immediate successor of
  /// a job completing exactly at \p now is still cancellable (see
  /// ReconfigJob::started_before). Returns the number of cancelled jobs.
  std::size_t cancel_pending(Cycles now,
                             const std::function<bool(const ReconfigJob&)>&
                                 predicate);

  /// Cycle until which the port is busy with jobs enqueued so far (>= now).
  Cycles busy_until(Cycles now) const;

  /// Completion time of job \p id; nullopt if unknown (e.g. cancelled).
  std::optional<Cycles> completion(ReconfigJobId id) const;

  /// Jobs still queued or running at \p now.
  std::vector<ReconfigJob> pending(Cycles now) const;

  /// Drops bookkeeping for jobs completed before \p now (memory hygiene).
  void compact(Cycles now);

  std::uint64_t total_jobs() const { return next_id_; }
  Cycles total_busy_cycles() const { return total_busy_; }

  /// Queue-exact capture/restore (rts/snapshot.h): the FIFO backlog, the
  /// job-id counter and the busy-cycle tally all resume where they were.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  template <typename Io, typename Self>
  static void walk(Io& io, Self& self);

  void retime(Cycles now);

  std::vector<ReconfigJob> jobs_;  // FIFO order
  ReconfigJobId next_id_ = 0;
  Cycles total_busy_ = 0;
};

/// Both ports of the reconfigurable processor.
class ReconfigController {
 public:
  ReconfigPort& fg_port() { return fg_; }
  const ReconfigPort& fg_port() const { return fg_; }
  ReconfigPort& cg_port() { return cg_; }
  const ReconfigPort& cg_port() const { return cg_; }

  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  template <typename Io, typename Self>
  static void walk(Io& io, Self& self);

  ReconfigPort fg_;
  ReconfigPort cg_;
};

}  // namespace mrts
