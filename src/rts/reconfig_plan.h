#pragma once
/// \file reconfig_plan.h
/// Predicts *when* the data paths of a candidate ISE would become usable if
/// it were selected now. Both the ISE selector (hypothetical evaluation of
/// candidates) and the profit function consume these predictions; the
/// FabricManager later performs the real installation with the same rules:
///
///  * data-path instances already placed on the fabric (possibly still
///    loading) are reused — their ready time is whatever it already is;
///  * new FG loads are serialized behind the FG reconfiguration port's
///    backlog; new CG loads stream through the (fast) CG port;
///  * instances claimed by previously committed ISEs of the same selection
///    round cannot be reused again.
///
/// The planner is a value type (copyable), but the branch-and-bound selector
/// no longer copies it per search node: commit() records an undo log, and
/// mark()/rollback() restore any earlier state in O(#commits undone) without
/// touching the (potentially large) existing-instance snapshot.
///
/// New loads are priced with the reconfiguration time DataPathTable::add
/// cached per data path. plan_relative() is the selectors' fused profit
/// pass: one loop, no range check, no heap, straight into the buffer that
/// profit_impl reads.

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "arch/data_path.h"
#include "arch/fabric_manager.h"
#include "util/types.h"

namespace mrts {

class ReconfigPlanner {
 public:
  /// Snapshots the fabric state at cycle \p now.
  ReconfigPlanner(const DataPathTable& table, const FabricManager& fabric,
                  Cycles now);

  /// Planner with an empty fabric and idle ports (used for optimistic upper
  /// bounds and for compile-time/offline selection).
  ReconfigPlanner(const DataPathTable& table, unsigned total_prcs,
                  unsigned total_cg, Cycles now);

  /// Predicted absolute ready time of each data-path instance of \p dps if
  /// the ISE were committed now, without changing the planner state.
  std::vector<Cycles> plan(const std::vector<DataPathId>& dps) const;

  /// plan() relative to now() (an instance ready before now() reads 0),
  /// written to \p ready_rel[0 .. dps.size()). Unchecked: \p dps must hold
  /// ids of the planner's table, as an ISE's data paths do.
  void plan_relative(const std::vector<DataPathId>& dps,
                     Cycles* ready_rel) const;

  /// Like plan() but consumes reused instances, advances the port cursors
  /// and deducts the fabric budget.
  std::vector<Cycles> commit(const std::vector<DataPathId>& dps);

  /// commit() into a caller-owned buffer (\p ready is cleared first), so a
  /// search can reuse one buffer across nodes.
  void commit_into(const std::vector<DataPathId>& dps,
                   std::vector<Cycles>& ready);

  /// Snapshot of the mutable planner state, O(1) to take. Checkpoints nest:
  /// roll back in LIFO order (rolling back an outer checkpoint discards any
  /// inner ones taken after it).
  struct Checkpoint {
    Cycles fg_cursor = 0;
    Cycles cg_cursor = 0;
    unsigned free_prcs = 0;
    unsigned free_cg = 0;
    std::size_t undo_mark = 0;  ///< undo-log length at mark() time
  };

  Checkpoint mark() const {
    return {fg_cursor_, cg_cursor_, free_prcs_, free_cg_, undo_log_.size()};
  }

  /// Undoes every commit() made since \p cp was taken. The branch-and-bound
  /// selector uses mark()/commit_into()/rollback() instead of copying the
  /// whole planner per search node.
  void rollback(const Checkpoint& cp);

  /// Remaining fabric budget (total minus units of committed ISEs).
  unsigned free_prcs() const { return free_prcs_; }
  unsigned free_cg() const { return free_cg_; }

  /// Restricts the budget to what a fabric tenant may actually place into
  /// (FabricArbitration::visible). Call right after
  /// construction, before any commit(): the tenant-bound selector then
  /// never plans a selection its arbiter would make install() degrade.
  /// plan()'s *output* does not depend on the budget.
  void clamp_budget(unsigned max_prcs, unsigned max_cg) {
    free_prcs_ = std::min(free_prcs_, max_prcs);
    free_cg_ = std::min(free_cg_, max_cg);
  }

  /// Does an ISE with the given demand still fit?
  bool fits(unsigned fg_units, unsigned cg_units) const {
    return fg_units <= free_prcs_ && cg_units <= free_cg_;
  }

  /// Multiset of data paths committed so far (for the selector's step-2b
  /// coverage pruning), as dense per-data-path counts indexed by raw id.
  const std::vector<unsigned>& committed_paths() const { return committed_; }

  /// True if every instance of \p dps is covered by the committed multiset.
  bool covered_by_committed(const std::vector<DataPathId>& dps) const;

  Cycles now() const { return now_; }

  /// Plan-relevant state: plan()'s output for a data-path list is a pure
  /// function of (the fabric snapshot = fabric_epoch+now, the port cursors,
  /// the per-dp claim counts, the uniform-reconfig override and the
  /// immutable table).
  Cycles fg_cursor() const { return fg_cursor_; }
  Cycles cg_cursor() const { return cg_cursor_; }
  Cycles uniform_reconfig_cycles() const { return uniform_reconfig_; }
  unsigned claimed_count(DataPathId dp) const { return claimed_[raw(dp)]; }
  /// FabricManager::state_epoch() at snapshot time; kIdleEpoch for the
  /// empty-fabric constructor (whose existing-instance set is always empty,
  /// so the sentinel is exact, not approximate).
  static constexpr std::uint64_t kIdleEpoch = ~std::uint64_t{0};
  std::uint64_t fabric_epoch() const { return fabric_epoch_; }

  /// Override the per-FG-data-path reconfiguration time used for *new* loads
  /// (0 = use the real per-data-path value). The RISPP-like baseline uses
  /// this to model a cost function tuned for ms-scale reconfiguration: it
  /// prices every data path, CG included, at this FG-scale cost.
  void set_uniform_reconfig_cycles(Cycles cycles) { uniform_reconfig_ = cycles; }

 private:
  /// The shared loop of plan() and plan_relative(): calls \p emit(i, t)
  /// with the absolute ready time t of dps[i], in order.
  template <typename Emit>
  void plan_each(const std::vector<DataPathId>& dps, Emit&& emit) const;
  /// Throws std::out_of_range unless every id of \p dps is in the table.
  void check_ids(const std::vector<DataPathId>& dps) const;

  const DataPathTable* table_;
  Cycles now_;
  Cycles fg_cursor_;  ///< FG port free-at cycle (absolute)
  Cycles cg_cursor_;
  unsigned free_prcs_;
  unsigned free_cg_;
  Cycles uniform_reconfig_ = 0;
  std::uint64_t fabric_epoch_ = kIdleEpoch;

  /// Ready times of instances currently on the fabric, per data path —
  /// dense vectors indexed by raw DataPathId (ids are 0..table.size()-1 by
  /// construction of the table), so the per-node lookups in the selector's
  /// search are indexed loads instead of hash probes. existing_ is
  /// immutable after construction — mark()/rollback() never touch it, which
  /// is what makes checkpoints O(1).
  std::vector<std::vector<Cycles>> existing_;
  /// Instances of existing_ already consumed by committed ISEs.
  std::vector<unsigned> claimed_;
  /// Multiset of committed data paths.
  std::vector<unsigned> committed_;

  /// One entry per data-path instance committed since construction, in
  /// commit order: rollback() replays it backwards.
  struct UndoEntry {
    std::uint32_t dp = 0;
    bool reused = false;  ///< claimed_ was incremented (not a fresh load)
  };
  std::vector<UndoEntry> undo_log_;
};

}  // namespace mrts
