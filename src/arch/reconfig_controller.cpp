#include "arch/reconfig_controller.h"

#include <algorithm>

#include "util/snapshot_io.h"

namespace mrts {

const ReconfigJob& ReconfigPort::enqueue(DataPathId dp, unsigned container,
                                         Cycles duration, Cycles now) {
  ReconfigJob job;
  job.id = next_id_++;
  job.dp = dp;
  job.container = container;
  job.enqueued_at = now;
  job.duration = duration;
  job.starts_at = std::max(now, busy_until(now));
  job.completes_at = job.starts_at + duration;
  total_busy_ += duration;
  jobs_.push_back(job);
  return jobs_.back();
}

std::size_t ReconfigPort::cancel_pending(
    Cycles now, const std::function<bool(const ReconfigJob&)>& predicate) {
  std::size_t cancelled = 0;
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    if (!it->started_before(now) && predicate(*it)) {
      total_busy_ -= it->duration;
      it = jobs_.erase(it);
      ++cancelled;
    } else {
      ++it;
    }
  }
  if (cancelled) retime(now);
  return cancelled;
}

void ReconfigPort::retime(Cycles now) {
  Cycles cursor = now;
  for (auto& job : jobs_) {
    if (job.started_before(now)) {
      // Already started (or finished): keep its timing, it blocks the port
      // until it completes.
      cursor = std::max(cursor, job.completes_at);
      continue;
    }
    job.starts_at = cursor;
    job.completes_at = cursor + job.duration;
    cursor = job.completes_at;
  }
}

Cycles ReconfigPort::busy_until(Cycles now) const {
  Cycles busy = now;
  for (const auto& job : jobs_) busy = std::max(busy, job.completes_at);
  return busy;
}

std::optional<Cycles> ReconfigPort::completion(ReconfigJobId id) const {
  for (const auto& job : jobs_) {
    if (job.id == id) return job.completes_at;
  }
  return std::nullopt;
}

std::vector<ReconfigJob> ReconfigPort::pending(Cycles now) const {
  std::vector<ReconfigJob> out;
  for (const auto& job : jobs_) {
    if (job.completes_at > now) out.push_back(job);
  }
  return out;
}

void ReconfigPort::compact(Cycles now) {
  jobs_.erase(std::remove_if(jobs_.begin(), jobs_.end(),
                             [now](const ReconfigJob& j) {
                               return j.completes_at <= now;
                             }),
              jobs_.end());
}

template <typename Io, typename Self>
void ReconfigPort::walk(Io& io, Self& self) {
  io.seq(self.jobs_, 1u << 24, "reconfig job queue", [](auto& io, auto& job) {
    io.u64(job.id);
    io.id(job.dp);
    io.u32(job.container);
    io.u64(job.enqueued_at);
    io.u64(job.duration);
    io.u64(job.starts_at);
    io.u64(job.completes_at);
  });
  io.u64(self.next_id_);
  io.u64(self.total_busy_);
}

void ReconfigPort::save_state(SnapshotWriter& w) const { walk(w, *this); }
void ReconfigPort::load_state(SnapshotReader& r) { walk(r, *this); }

template <typename Io, typename Self>
void ReconfigController::walk(Io& io, Self& self) {
  io.state(self.fg_);
  io.state(self.cg_);
}

void ReconfigController::save_state(SnapshotWriter& w) const {
  walk(w, *this);
}
void ReconfigController::load_state(SnapshotReader& r) { walk(r, *this); }

}  // namespace mrts
