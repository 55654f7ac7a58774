#include "rts/migration.h"

#include <algorithm>

#include "arch/fabric_manager.h"

namespace mrts {

namespace {

struct FreeSpace {
  unsigned free = 0;         ///< f: empty, non-quarantined PRCs
  unsigned largest_run = 0;  ///< r: longest contiguous run of them
};

FreeSpace scan_free_space(const FabricManager& fabric) {
  FreeSpace s;
  unsigned run = 0;
  for (unsigned i = 0; i < fabric.num_prcs(); ++i) {
    const bool free = !fabric.quarantined(Grain::kFine, i) &&
                      fabric.fg_fabric().prc(i).empty();
    if (free) {
      ++s.free;
      ++run;
      s.largest_run = std::max(s.largest_run, run);
    } else {
      run = 0;
    }
  }
  return s;
}

DefragReport finish(DefragReport rep, const FabricManager& fabric) {
  rep.fragmentation_after = fg_fragmentation(fabric);
  return rep;
}

}  // namespace

double fg_fragmentation(const FabricManager& fabric) {
  const FreeSpace s = scan_free_space(fabric);
  if (s.free == 0) return 0.0;
  return 1.0 - static_cast<double>(s.largest_run) / s.free;
}

unsigned fg_compaction_opportunity(const FabricManager& fabric) {
  const FreeSpace s = scan_free_space(fabric);
  return s.free - s.largest_run;
}

double fg_fragmentation_floor(const FabricManager& fabric) {
  // Count survivors, then replay the scan as if they were packed into the
  // lowest non-quarantined slots: the first `occupied` such slots read as
  // full, the rest as free. Quarantined slots still break runs.
  unsigned occupied = 0;
  for (unsigned i = 0; i < fabric.num_prcs(); ++i) {
    if (!fabric.quarantined(Grain::kFine, i) &&
        !fabric.fg_fabric().prc(i).empty()) {
      ++occupied;
    }
  }
  unsigned rank = 0;
  unsigned free = 0;
  unsigned run = 0;
  unsigned largest_run = 0;
  for (unsigned i = 0; i < fabric.num_prcs(); ++i) {
    if (fabric.quarantined(Grain::kFine, i) || rank++ < occupied) {
      run = 0;
      continue;
    }
    ++free;
    ++run;
    largest_run = std::max(largest_run, run);
  }
  if (free == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_run) / free;
}

DefragReport DefragPolicy::compact(FabricManager& fabric, Cycles now) const {
  DefragReport rep;
  rep.fragmentation_before = fg_fragmentation(fabric);
  rep.ready_at = now;

  const unsigned n = fabric.num_prcs();
  unsigned lo = 0;
  int hi = static_cast<int>(n) - 1;
  unsigned consecutive_copy_failures = 0;
  while (true) {
    if (config_.max_migrations_per_pass != 0 &&
        rep.attempted >= config_.max_migrations_per_pass) {
      break;
    }
    while (lo < n && !(fabric.fg_fabric().prc(lo).empty() &&
                       !fabric.quarantined(Grain::kFine, lo))) {
      ++lo;
    }
    while (hi >= 0 &&
           (fabric.fg_fabric().prc(static_cast<unsigned>(hi)).empty() ||
            fabric.quarantined(Grain::kFine, static_cast<unsigned>(hi)))) {
      --hi;
    }
    if (hi < 0 || lo >= static_cast<unsigned>(hi)) break;

    const MigrationResult res =
        fabric.migrate(Grain::kFine, static_cast<unsigned>(hi), lo, now);
    switch (res.status) {
      case MigrationStatus::kMigrated:
        ++rep.attempted;
        ++rep.migrated;
        rep.ready_at = std::max(rep.ready_at, res.ready_at);
        consecutive_copy_failures = 0;
        break;  // lo is now occupied, hi empty — the scans advance both
      case MigrationStatus::kCopyFailed:
        // The stream ran (and may have quarantined lo); retry the same
        // source against the next hole, but give up after two misses in a
        // row — the port already carries the failed streams' backlog.
        ++rep.attempted;
        if (++consecutive_copy_failures >= 2) return finish(rep, fabric);
        ++lo;
        break;
      case MigrationStatus::kTargetUnavailable:
        ++lo;  // e.g. arbitration refuses the slot; no stream was issued
        break;
      case MigrationStatus::kSourceQuarantined:
      case MigrationStatus::kNothingToMigrate:
        --hi;
        break;
    }
  }
  return finish(rep, fabric);
}

DefragReport DefragPolicy::recover(FabricManager& fabric, Cycles now) const {
  if (!config_.enabled ||
      fg_fragmentation(fabric) < config_.min_fragmentation) {
    DefragReport rep;
    rep.fragmentation_before = fg_fragmentation(fabric);
    rep.fragmentation_after = rep.fragmentation_before;
    rep.ready_at = now;
    return rep;
  }
  return compact(fabric, now);
}

}  // namespace mrts
