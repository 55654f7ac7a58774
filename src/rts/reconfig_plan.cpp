#include "rts/reconfig_plan.h"

#include <algorithm>
#include <stdexcept>

namespace mrts {
namespace {

/// Occurrences of dps[i] in dps[0..i). The data-path lists of an ISE are a
/// handful of entries, so the quadratic scan beats any hash map — and it
/// keeps plan() allocation-free.
unsigned earlier_occurrences(const std::vector<DataPathId>& dps,
                             std::size_t i) {
  unsigned count = 0;
  for (std::size_t j = 0; j < i; ++j) {
    if (dps[j] == dps[i]) ++count;
  }
  return count;
}

}  // namespace

ReconfigPlanner::ReconfigPlanner(const DataPathTable& table,
                                 const FabricManager& fabric, Cycles now)
    : table_(&table),
      now_(now),
      fg_cursor_(fabric.fg_port_free_at(now)),
      cg_cursor_(fabric.reconfig().cg_port().busy_until(now)),
      free_prcs_(fabric.usable(Grain::kFine)),
      free_cg_(fabric.usable(Grain::kCoarse)),
      fabric_epoch_(fabric.state_epoch()),
      existing_(table.size()),
      claimed_(table.size(), 0),
      committed_(table.size(), 0) {
  // Snapshot all placed instances (including ones still loading). Note: the
  // whole *usable* fabric counts as free budget because old contents may be
  // evicted — quarantined containers are gone for good, so the selector
  // re-plans with the reduced capacity; reuse only affects the predicted
  // ready times.
  fabric.snapshot_instance_ready_times(existing_);
}

ReconfigPlanner::ReconfigPlanner(const DataPathTable& table,
                                 unsigned total_prcs, unsigned total_cg,
                                 Cycles now)
    : table_(&table),
      now_(now),
      fg_cursor_(now),
      cg_cursor_(now),
      free_prcs_(total_prcs),
      free_cg_(total_cg),
      existing_(table.size()),
      claimed_(table.size(), 0),
      committed_(table.size(), 0) {}

template <typename Emit>
void ReconfigPlanner::plan_each(const std::vector<DataPathId>& dps,
                                Emit&& emit) const {
  Cycles fg = fg_cursor_;
  Cycles cg = cg_cursor_;
  for (std::size_t i = 0; i < dps.size(); ++i) {
    const DataPathId dp = dps[i];
    // Try to reuse an existing, unclaimed instance. Reuses form a prefix of
    // a data path's occurrences (once the existing instances run out no
    // later occurrence can reuse), so "claims so far" within this
    // hypothetical plan equals the number of earlier occurrences in dps.
    const std::vector<Cycles>& ex = existing_[raw(dp)];
    if (!ex.empty()) {
      const unsigned used = claimed_count(dp) + earlier_occurrences(dps, i);
      if (used < ex.size()) {
        emit(i, ex[used]);
        continue;
      }
    }
    // Schedule a fresh load.
    const DataPathDesc& desc = table_->unchecked(dp);
    const Cycles duration = uniform_reconfig_ != 0
                                ? uniform_reconfig_ * desc.units
                                : table_->reconfig_cycles(dp);
    if (desc.grain == Grain::kFine) {
      fg = std::max(fg, now_) + duration;
      emit(i, fg);
    } else {
      cg = std::max(cg, now_) + duration;
      emit(i, cg);
    }
  }
}

void ReconfigPlanner::check_ids(const std::vector<DataPathId>& dps) const {
  for (DataPathId dp : dps) {
    if (!table_->contains(dp)) {
      throw std::out_of_range("ReconfigPlanner: invalid data path id");
    }
  }
}

std::vector<Cycles> ReconfigPlanner::plan(
    const std::vector<DataPathId>& dps) const {
  check_ids(dps);
  std::vector<Cycles> ready(dps.size());
  plan_each(dps, [&ready](std::size_t i, Cycles t) { ready[i] = t; });
  return ready;
}

void ReconfigPlanner::plan_relative(const std::vector<DataPathId>& dps,
                                    Cycles* ready_rel) const {
  const Cycles now = now_;
  plan_each(dps, [ready_rel, now](std::size_t i, Cycles t) {
    ready_rel[i] = t > now ? t - now : 0;
  });
}

void ReconfigPlanner::commit_into(const std::vector<DataPathId>& dps,
                                  std::vector<Cycles>& ready) {
  check_ids(dps);
  ready.clear();
  ready.reserve(dps.size());
  undo_log_.reserve(undo_log_.size() + dps.size());
  for (DataPathId dp : dps) {
    const DataPathDesc& desc = table_->unchecked(dp);
    const std::vector<Cycles>& ex = existing_[raw(dp)];
    bool reused = false;
    if (!ex.empty()) {
      unsigned& used = claimed_[raw(dp)];
      if (used < ex.size()) {
        ready.push_back(ex[used]);
        ++used;
        reused = true;
      }
    }
    if (!reused) {
      const Cycles duration = uniform_reconfig_ != 0
                                  ? uniform_reconfig_ * desc.units
                                  : table_->reconfig_cycles(dp);
      if (desc.grain == Grain::kFine) {
        fg_cursor_ = std::max(fg_cursor_, now_) + duration;
        ready.push_back(fg_cursor_);
      } else {
        cg_cursor_ = std::max(cg_cursor_, now_) + duration;
        ready.push_back(cg_cursor_);
      }
    }
    ++committed_[raw(dp)];
    undo_log_.push_back({raw(dp), reused});
    if (desc.grain == Grain::kFine) {
      free_prcs_ = free_prcs_ >= desc.units ? free_prcs_ - desc.units : 0;
    } else {
      free_cg_ = free_cg_ >= desc.units ? free_cg_ - desc.units : 0;
    }
  }
}

std::vector<Cycles> ReconfigPlanner::commit(
    const std::vector<DataPathId>& dps) {
  std::vector<Cycles> ready;
  commit_into(dps, ready);
  return ready;
}

void ReconfigPlanner::rollback(const Checkpoint& cp) {
  // The cursors/budgets are restored from the snapshot (budget deduction
  // saturates at 0, so it is not invertible from the log alone); the claim
  // and committed multisets are replayed backwards from the undo log.
  while (undo_log_.size() > cp.undo_mark) {
    const UndoEntry entry = undo_log_.back();
    undo_log_.pop_back();
    --committed_[entry.dp];
    if (entry.reused) --claimed_[entry.dp];
  }
  fg_cursor_ = cp.fg_cursor;
  cg_cursor_ = cp.cg_cursor;
  free_prcs_ = cp.free_prcs;
  free_cg_ = cp.free_cg;
}

bool ReconfigPlanner::covered_by_committed(
    const std::vector<DataPathId>& dps) const {
  for (std::size_t i = 0; i < dps.size(); ++i) {
    if (earlier_occurrences(dps, i) != 0) continue;  // counted at first one
    unsigned need = 1;
    for (std::size_t j = i + 1; j < dps.size(); ++j) {
      if (dps[j] == dps[i]) ++need;
    }
    if (committed_[raw(dps[i])] < need) return false;
  }
  return true;
}

}  // namespace mrts
