#pragma once
/// \file migration.h
/// Migration-based FG defragmentation (Mestra direction, PAPERS.md).
/// Permanent faults quarantine PRCs at arbitrary positions, and failed
/// repairs punch holes into the middle of the fabric; both scatter the free
/// space that future selections must fit into. obs/occupancy measures the
/// damage post-hoc (fragmentation_index, compaction_opportunity); this
/// policy *repairs* it live: after a quarantine it migrates surviving
/// configurations into the low end of the PRC array (FabricManager::migrate
/// — real drain + copy streams on the reconfiguration port, same per-byte
/// cost and fault semantics as any load) until the remaining free space is
/// one contiguous run.
///
/// The policy is deliberately mechanism-free: it owns no fabric state and
/// every mutation goes through the public migration API, so a pass is
/// exactly as expensive — and exactly as fallible — as the loads it issues.

#include <cstdint>

#include "util/types.h"

namespace mrts {

class FabricManager;

/// Knobs of the defragmentation policy. Default-off: an MRts with the
/// default config never migrates, keeping existing runs bit-identical.
struct DefragConfig {
  /// Master switch: run a compaction pass after every scrub that
  /// quarantined at least one additional container.
  bool enabled = false;
  /// Skip the pass while the live fragmentation (fg_fragmentation) is below
  /// this threshold — a single solid free block needs no compaction.
  double min_fragmentation = 0.0;
  /// Upper bound on migrations per pass (port-pressure guard). 0 = no bound.
  unsigned max_migrations_per_pass = 0;
};

/// Outcome of one compaction pass.
struct DefragReport {
  unsigned attempted = 0;  ///< migrations issued (incl. failed copies)
  unsigned migrated = 0;   ///< migrations that completed
  double fragmentation_before = 0.0;
  double fragmentation_after = 0.0;
  /// Completion of the last successful copy stream (now when none ran).
  Cycles ready_at = 0;
};

/// Instantaneous FG fragmentation of the *live* placement — the same
/// 1 - r/f metric obs/occupancy integrates over the trace, evaluated on the
/// current fabric state: f free (empty, non-quarantined) PRCs whose largest
/// contiguous free run is r give 1 - r/f; 0.0 when f == 0. Quarantined
/// containers are not free and break runs.
double fg_fragmentation(const FabricManager& fabric);

/// Scattered free PRCs a compaction pass could fold into the largest run
/// (the live counterpart of OccupancyAnalysis::compaction_opportunity).
unsigned fg_compaction_opportunity(const FabricManager& fabric);

/// Lower bound a compaction pass can reach: the fragmentation of the same
/// fabric with every surviving configuration packed into the lowest
/// non-quarantined PRCs. Usually 0.0, but a quarantined container between
/// the top free slots splits the packed tail and no migration can merge it —
/// compaction is complete when fg_fragmentation == fg_fragmentation_floor.
double fg_fragmentation_floor(const FabricManager& fabric);

class DefragPolicy {
 public:
  explicit DefragPolicy(DefragConfig config = {}) : config_(config) {}

  const DefragConfig& config() const { return config_; }

  /// One greedy compaction pass at cycle \p now: repeatedly moves the
  /// occupant of the highest occupied PRC into the lowest free one below it
  /// until the free space is contiguous, the migration budget is exhausted
  /// or a copy fails twice in a row (the port keeps its backlog either way).
  /// Copy failures skip the target (it may just have been quarantined by
  /// the failed stream's diagnosis) and retry the source elsewhere.
  DefragReport compact(FabricManager& fabric, Cycles now) const;

  /// Fault-path entry: runs compact() only when enabled and the live
  /// fragmentation has reached the configured threshold. Called by MRts
  /// right after a scrub that grew the quarantine set.
  DefragReport recover(FabricManager& fabric, Cycles now) const;

 private:
  DefragConfig config_;
};

}  // namespace mrts
