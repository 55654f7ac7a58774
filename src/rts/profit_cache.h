#pragma once
/// \file profit_cache.h
/// Memoized Eq. 1-4 profit evaluations for the heuristic selector.
///
/// The greedy re-scores untouched candidates after rounds that only reused
/// instances, so the same (ISE, forecast, fabric-state) point can come up
/// more than once per trigger. The branch-and-bound selector does not use
/// the memo: its greedy-dive incumbent prunes most repeat visits, and
/// hashing each of its evaluations cost more time than recomputing it. A
/// profit value is a pure function of
///
///   (ISE, ProfitModel, e/tf/tb forecast, plan() output)
///
/// and plan()'s output is itself a pure function of the planner state the
/// key captures below — so a cache hit returns the *bit-identical* double a
/// recomputation would produce. That exactness is the whole contract: with
/// the cache on, every selection, every counter and every committed fig CSV
/// must stay byte-identical (pinned by tests/test_profit_cache.cpp).
///
/// The cache is per-MRts-instance (one fabric, one library), never shared
/// across threads — the same ownership rule as every other mutable
/// simulation object. Entries are cleared at the start of each select()
/// call: keys embed the trigger cycle, so cross-trigger hits are impossible
/// anyway, and clearing makes memory use per select bounded and
/// deterministic.

#include <cstdint>
#include <unordered_map>

#include "isa/ise.h"
#include "isa/trigger.h"
#include "rts/profit.h"
#include "rts/reconfig_plan.h"
#include "util/types.h"

namespace mrts {

class CounterRegistry;
class TraceRecorder;

/// Hot-path switches of the selectors. The defaults are the optimized
/// configuration; baseline() reproduces the pre-optimization implementation
/// (planner copied per branch-and-bound node, no memoization, per-candidate
/// allocations) so the wall-clock bench can measure an honest interleaved
/// A/B in one binary. Both settings are pure optimizations: selections,
/// counters and CSV outputs are identical either way. The memo is the
/// heuristic's only; the branch-and-bound selector reads just
/// incremental_planner.
struct SelectorTuning {
  bool memoize_profits = true;     ///< heuristic: consult the ProfitCache
  bool incremental_planner = true; ///< commit/rollback instead of copying
  static SelectorTuning baseline() { return {false, false}; }
};

class ProfitCache {
 public:
  /// Everything the profit double depends on, captured exactly (bit
  /// patterns, not rounded buckets — a lossy key would change selections).
  struct Key {
    std::uint64_t epoch = 0;   ///< FabricManager::state_epoch / kIdleEpoch
    Cycles now = 0;            ///< trigger cycle (ready_rel is relative)
    Cycles fg_cursor = 0;      ///< FG reconfiguration-port backlog
    Cycles cg_cursor = 0;
    Cycles uniform_reconfig = 0;
    std::uint64_t claims = 0;  ///< packed per-data-path claim counts
    std::uint64_t e_bits = 0;  ///< bit pattern of expected_executions
    Cycles tf = 0;
    Cycles tb = 0;
    std::uint32_t ise = 0;
    std::uint8_t model_bits = 0;  ///< ProfitModel flags
    bool operator==(const Key&) const = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  /// Builds the key for evaluating \p ise under \p entry on \p planner.
  /// Returns false when the point is not cacheable (more than 8 distinct
  /// data paths or a claim count above 255 — neither occurs in the paper's
  /// libraries; the caller then just computes).
  static bool make_key(Key& key, IseId ise, const IseVariant& variant,
                       const TriggerEntry& entry,
                       const ReconfigPlanner& planner,
                       const ProfitModel& model);

  /// Starts a select() scope: drops all entries (bucket storage is kept) and
  /// zeroes the per-select hit/miss tallies.
  void begin_select();

  /// Cached profit for \p key, or nullptr. Tallies one hit or one miss.
  const double* lookup(const Key& key);

  /// Tallies a miss for an evaluation the cache could not serve because
  /// make_key declined the point.
  void note_uncacheable() { ++select_misses_; ++total_misses_; }

  void insert(const Key& key, double profit) { map_.emplace(key, profit); }

  /// Per-select tallies (since begin_select) and lifetime totals (never
  /// reset; the wall-clock bench derives its hit rate from these).
  std::uint64_t select_hits() const { return select_hits_; }
  std::uint64_t select_misses() const { return select_misses_; }
  std::uint64_t total_hits() const { return total_hits_; }
  std::uint64_t total_misses() const { return total_misses_; }

  /// Ends a select() scope: publishes the per-select tallies as
  /// selector.cache.{hit,miss} counter deltas and one kSelectorCacheStats
  /// trace event (either sink may be null), then zeroes them. Flushing once
  /// per select — not once per evaluation — keeps the registry's map lookup
  /// out of the hot loop.
  void flush(CounterRegistry* counters, TraceRecorder* trace, Cycles now);

 private:
  std::unordered_map<Key, double, KeyHash> map_;
  std::uint64_t select_hits_ = 0;
  std::uint64_t select_misses_ = 0;
  std::uint64_t total_hits_ = 0;
  std::uint64_t total_misses_ = 0;
};

/// Scratch buffers for the allocation-free candidate evaluation; create one
/// per select() call and pass it through the inner loop.
struct EvalScratch {
  std::vector<Cycles> ready_abs;
  ProfitInputs inputs;
};

}  // namespace mrts
