#include "arch/fabric_manager.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "arch/fault_model.h"
#include "util/counters.h"
#include "util/snapshot_io.h"
#include "util/trace.h"

namespace mrts {

FabricManager::FabricManager(unsigned num_cg_fabrics, unsigned num_prcs,
                             const DataPathTable* table,
                             CgFabricParams cg_params)
    : table_(table), fg_(num_prcs) {
  if (table_ == nullptr) {
    throw std::invalid_argument("FabricManager: null data path table");
  }
  cg_.reserve(num_cg_fabrics);
  for (unsigned i = 0; i < num_cg_fabrics; ++i) cg_.emplace_back(cg_params);
  prc_reserved_.assign(num_prcs, false);
  cg_reserved_.assign(num_cg_fabrics, false);
  cg_pinned_.assign(num_cg_fabrics, kInvalidDataPath);
  prc_quarantined_.assign(num_prcs, false);
  cg_quarantined_.assign(num_cg_fabrics, false);
  usable_prcs_ = num_prcs;
  usable_cg_ = num_cg_fabrics;
  prc_owner_.assign(num_prcs, kUnownedTenant);
  cg_owner_.assign(num_cg_fabrics, kUnownedTenant);
}

void FabricManager::attach_fault_model(FaultModel* model) {
  if (model != nullptr && fault_ != nullptr && model != fault_) {
    throw std::logic_error(
        "FabricManager::attach_fault_model: a different fault model is "
        "already attached to this fabric (detach it first)");
  }
  if (model == fault_) return;
  fault_ = model;
  next_scrub_ = 0;  // re-arm lazily from the model's scrub interval
  ++state_epoch_;   // fault semantics change future load outcomes
}

void FabricManager::attach_arbitration(FabricArbitration* arbitration) {
  if (arbitration != nullptr && arbitration_ != nullptr &&
      arbitration != arbitration_) {
    throw std::logic_error(
        "FabricManager::attach_arbitration: a different arbitration hook is "
        "already attached to this fabric (detach it first)");
  }
  if (arbitration == arbitration_) return;
  arbitration_ = arbitration;
  ++state_epoch_;  // accessibility masks change future placements
}

void FabricManager::attach_observability(TraceRecorder* trace,
                                         CounterRegistry* counters) {
  if (trace != nullptr && trace_ != nullptr && trace != trace_) {
    throw std::logic_error(
        "FabricManager::attach_observability: a different trace recorder is "
        "already attached to this fabric (detach it first)");
  }
  if (counters != nullptr && counters_ != nullptr && counters != counters_) {
    throw std::logic_error(
        "FabricManager::attach_observability: a different counter registry "
        "is already attached to this fabric (detach it first)");
  }
  trace_ = trace;
  counters_ = counters;
}

void FabricManager::trace_record(TraceEvent event) const {
  if (trace_ == nullptr) return;
  if (event.tenant == 0) event.tenant = active_tenant_;
  trace_->record(event);
}

void FabricManager::set_active_tenant(TenantId tenant) {
  if (tenant == active_tenant_) return;
  active_tenant_ = tenant;
  // Placement policy (accessibility/quota masks) observably changed; without
  // arbitration the tenant id only labels owners and planning is unaffected.
  if (arbitration_ != nullptr) ++state_epoch_;
}

TenantId FabricManager::prc_owner(unsigned index) const {
  return index < prc_owner_.size() ? prc_owner_[index] : kUnownedTenant;
}

TenantId FabricManager::cg_owner(unsigned index) const {
  return index < cg_owner_.size() ? cg_owner_[index] : kUnownedTenant;
}

unsigned FabricManager::owned_prcs(TenantId tenant) const {
  unsigned n = 0;
  for (unsigned i = 0; i < fg_.num_prcs(); ++i) {
    if (prc_owner_[i] == tenant && !fg_.prc(i).empty()) ++n;
  }
  return n;
}

unsigned FabricManager::owned_cg(TenantId tenant) const {
  unsigned n = 0;
  for (unsigned i = 0; i < cg_.size(); ++i) {
    if (cg_owner_[i] == tenant && cg_[i].resident_count() > 0) ++n;
  }
  return n;
}

bool FabricManager::placeable_prc(unsigned index) const {
  return arbitration_ == nullptr ||
         arbitration_->may_place(active_tenant_, Grain::kFine, index);
}

bool FabricManager::placeable_cg(unsigned index) const {
  return arbitration_ == nullptr ||
         arbitration_->may_place(active_tenant_, Grain::kCoarse, index);
}

unsigned FabricManager::accessible_prcs() const {
  unsigned n = 0;
  for (unsigned i = 0; i < fg_.num_prcs(); ++i) {
    if (!prc_quarantined_[i] && placeable_prc(i)) ++n;
  }
  return n;
}

unsigned FabricManager::accessible_cg_fabrics() const {
  unsigned n = 0;
  for (unsigned i = 0; i < cg_.size(); ++i) {
    if (!cg_quarantined_[i] && placeable_cg(i)) ++n;
  }
  return n;
}

void FabricManager::note_tenant_eviction(Grain grain, unsigned container,
                                         Cycles now) {
  const bool fine = grain == Grain::kFine;
  const TenantId owner =
      fine ? prc_owner_[container] : cg_owner_[container];
  // An FG placement always destroys the occupant; a CG load only evicts a
  // context when the fabric's context memory is full.
  const bool destroys =
      fine ? !fg_.prc(container).empty()
           : cg_[container].resident_count() >= cg_[container].capacity();
  if (!destroys || owner == kUnownedTenant || owner == active_tenant_) return;
  trace_record({TraceEventKind::kTenantEviction,
                (fine ? kTrackFgBase : kTrackCgBase) +
                    static_cast<std::int32_t>(container),
                now, 0, owner, static_cast<std::uint32_t>(grain),
                static_cast<double>(active_tenant_), 0.0});
  if (counters_ != nullptr) counters_->add("tenant.eviction");
  if (arbitration_ != nullptr) {
    arbitration_->note_eviction(active_tenant_, owner, grain, now);
  }
}

std::optional<unsigned> FabricManager::pick_fg_victim(
    std::vector<bool>& claimed, Cycles now) {
  const auto native = fg_.find_victim(claimed);
  if (arbitration_ == nullptr || !native) return native;
  const TenantId owner = prc_owner_[*native];
  if (fg_.prc(*native).empty() || owner == kUnownedTenant ||
      owner == active_tenant_ ||
      arbitration_->prefer_evict(active_tenant_, owner, Grain::kFine)) {
    return native;
  }
  // The native victim is a within-entitlement foreign tenant's live data
  // path; redirect onto the coldest preferred (over-quota / best-effort)
  // victim when one exists, else keep the native choice.
  std::vector<bool> restricted = claimed;
  bool any_preferred = false;
  for (unsigned i = 0; i < fg_.num_prcs(); ++i) {
    if (restricted[i]) continue;
    const TenantId candidate = prc_owner_[i];
    const bool preferred =
        !fg_.prc(i).empty() && candidate != kUnownedTenant &&
        candidate != active_tenant_ &&
        arbitration_->prefer_evict(active_tenant_, candidate, Grain::kFine);
    if (preferred) {
      any_preferred = true;
    } else {
      restricted[i] = true;
    }
  }
  if (!any_preferred) return native;
  const auto redirect = fg_.find_victim(restricted);
  if (!redirect) return native;
  const TenantId victim_owner = prc_owner_[*redirect];
  trace_record({TraceEventKind::kTenantQuotaHit,
                kTrackFgBase + static_cast<std::int32_t>(*redirect), now,
                0, victim_owner,
                static_cast<std::uint32_t>(Grain::kFine),
                static_cast<double>(active_tenant_), 0.0});
  if (counters_ != nullptr) counters_->add("tenant.quota_hit");
  arbitration_->note_quota_redirect(active_tenant_, victim_owner, Grain::kFine,
                                    now);
  return redirect;
}

std::optional<unsigned> FabricManager::pick_cg_victim(
    std::vector<bool>& claimed, Cycles now) {
  // Native CG choice: the first unclaimed fabric (stale contexts there are
  // evicted lazily by CgFabric::load when the context memory fills up).
  std::optional<unsigned> native;
  for (unsigned i = 0; i < cg_.size(); ++i) {
    if (!claimed[i]) {
      native = i;
      break;
    }
  }
  if (arbitration_ == nullptr || !native) return native;
  const TenantId owner = cg_owner_[*native];
  if (cg_[*native].resident_count() == 0 || owner == kUnownedTenant ||
      owner == active_tenant_ ||
      arbitration_->prefer_evict(active_tenant_, owner, Grain::kCoarse)) {
    return native;
  }
  for (unsigned i = 0; i < cg_.size(); ++i) {
    if (claimed[i] || cg_[i].resident_count() == 0) continue;
    const TenantId candidate = cg_owner_[i];
    if (candidate == kUnownedTenant || candidate == active_tenant_) continue;
    if (!arbitration_->prefer_evict(active_tenant_, candidate,
                                    Grain::kCoarse)) {
      continue;
    }
    trace_record({TraceEventKind::kTenantQuotaHit,
                  kTrackCgBase + static_cast<std::int32_t>(i), now, 0,
                  candidate, static_cast<std::uint32_t>(Grain::kCoarse),
                  static_cast<double>(active_tenant_), 0.0});
    if (counters_ != nullptr) counters_->add("tenant.quota_hit");
    arbitration_->note_quota_redirect(active_tenant_, candidate,
                                      Grain::kCoarse, now);
    return i;
  }
  return native;
}

unsigned FabricManager::usable_prcs() const {
  // O(1): quarantine is the only way a container leaves service and it is
  // permanent, so the counts are maintained incrementally (hot path — the
  // ECU consults the CG count on every RISC-mode execution decision).
  return usable_prcs_;
}

unsigned FabricManager::usable_cg_fabrics() const { return usable_cg_; }

bool FabricManager::prc_quarantined(unsigned index) const {
  return index < prc_quarantined_.size() && prc_quarantined_[index];
}

bool FabricManager::cg_quarantined(unsigned index) const {
  return index < cg_quarantined_.size() && cg_quarantined_[index];
}

void FabricManager::quarantine_prc(unsigned index, Cycles at) {
  if (index >= prc_quarantined_.size() || prc_quarantined_[index]) return;
  ++state_epoch_;
  const TenantId owner = prc_owner_[index];
  prc_quarantined_[index] = true;
  --usable_prcs_;
  fg_.evict(index);
  prc_reserved_[index] = false;
  prc_owner_[index] = kUnownedTenant;
  if (fault_ != nullptr) ++fault_->stats().quarantined_prcs;
  // v0 = the tenant that lost the container (0 = unowned/single-app).
  trace_record({TraceEventKind::kQuarantine,
                kTrackFgBase + static_cast<std::int32_t>(index), at, 0,
                index, static_cast<std::uint32_t>(Grain::kFine),
                static_cast<double>(owner), 0.0});
  if (counters_ != nullptr) counters_->add("prc.quarantined");
  if (arbitration_ != nullptr) {
    arbitration_->note_quarantine(owner, Grain::kFine, at);
  }
}

void FabricManager::quarantine_cg(unsigned index, Cycles at) {
  if (index >= cg_quarantined_.size() || cg_quarantined_[index]) return;
  ++state_epoch_;
  const TenantId owner = cg_owner_[index];
  cg_quarantined_[index] = true;
  --usable_cg_;
  cg_[index].clear();
  cg_reserved_[index] = false;
  cg_pinned_[index] = kInvalidDataPath;
  cg_owner_[index] = kUnownedTenant;
  if (fault_ != nullptr) ++fault_->stats().quarantined_cg;
  trace_record({TraceEventKind::kQuarantine,
                kTrackCgBase + static_cast<std::int32_t>(index), at, 0,
                index, static_cast<std::uint32_t>(Grain::kCoarse),
                static_cast<double>(owner), 0.0});
  if (counters_ != nullptr) counters_->add("cg.quarantined");
  if (arbitration_ != nullptr) {
    arbitration_->note_quarantine(owner, Grain::kCoarse, at);
  }
}

const CgFabric& FabricManager::cg_fabric(unsigned i) const {
  if (i >= cg_.size()) throw std::out_of_range("FabricManager::cg_fabric");
  return cg_[i];
}

void FabricManager::trace_load(const ReconfigJob& job, Grain grain) const {
  if (trace_ == nullptr) return;
  const std::int32_t track =
      (grain == Grain::kFine ? kTrackFgBase : kTrackCgBase) +
      static_cast<std::int32_t>(job.container);
  const auto grain_arg = static_cast<std::uint32_t>(grain);
  // Scheduled times at enqueue; a later install() may cancel pending loads
  // (recorded as kReconfigCancel) before they start.
  trace_record({TraceEventKind::kReconfigStart, track, job.starts_at,
                job.completes_at - job.starts_at, raw(job.dp), grain_arg,
                0.0, 0.0});
  trace_record({TraceEventKind::kReconfigComplete, track, job.completes_at,
                0, raw(job.dp), grain_arg, 0.0, 0.0});
}

FabricManager::StreamedLoad FabricManager::stream_load(
    DataPathId dp, unsigned container, Grain grain, Cycles now,
    const char* load_counter) {
  const auto& desc = (*table_)[dp];
  const Cycles duration = desc.reconfig_cycles();
  LoadFaultOutcome outcome;
  outcome.port_cycles = duration;
  if (fault_ != nullptr) outcome = fault_->plan_load(grain, duration);

  ReconfigPort& port =
      grain == Grain::kFine ? reconfig_.fg_port() : reconfig_.cg_port();
  const ReconfigJob job =
      port.enqueue(dp, container, outcome.port_cycles, now);
  // Every attempt streams the full image, so retries move real bytes.
  const std::uint64_t attempts = outcome.retries + 1;
  if (grain == Grain::kFine) {
    ++reconfig_stats_.fg_loads;
    reconfig_stats_.fg_bytes += desc.bitstream_bytes * desc.units * attempts;
  } else {
    ++reconfig_stats_.cg_loads;
    reconfig_stats_.cg_bytes +=
        static_cast<std::uint64_t>(desc.context_instructions) * 10 *
        desc.units * attempts;
  }
  trace_load(job, grain);
  if (counters_ != nullptr) counters_->add(load_counter);

  const unsigned failed_attempts =
      outcome.retries + (outcome.success ? 0u : 1u);
  if (failed_attempts > 0) {
    const std::int32_t track =
        (grain == Grain::kFine ? kTrackFgBase : kTrackCgBase) +
        static_cast<std::int32_t>(container);
    const auto grain_arg = static_cast<std::uint32_t>(grain);
    // Reconstruct the attempt timeline inside the enqueued job: attempt k
    // streams for `duration` cycles and fails its CRC check at the end;
    // retry k then waits out the exponential backoff before re-streaming.
    Cycles attempt_start = job.starts_at;
    for (unsigned k = 0; k < failed_attempts; ++k) {
      const Cycles detect = attempt_start + duration;
      trace_record({TraceEventKind::kFaultInject, track, detect, 0,
                    raw(dp), grain_arg, static_cast<double>(k), 0.0});
      if (counters_ != nullptr) counters_->add("fault.inject");
      if (k < outcome.retries) {
        const Cycles retry_start = detect + fault_->backoff(k);
        trace_record({TraceEventKind::kReconfigRetry, track, retry_start,
                      duration, raw(dp), k + 1, 0.0, 0.0});
        if (counters_ != nullptr) counters_->add("reconfig.retry");
        attempt_start = retry_start;
      }
    }
  }

  StreamedLoad result;
  result.success = outcome.success;
  if (outcome.success) {
    result.ready = job.completes_at;
  } else if (outcome.quarantine) {
    // Retry exhaustion diagnosed a permanent container fault at the final
    // CRC check.
    if (grain == Grain::kFine) {
      quarantine_prc(container, job.completes_at);
    } else {
      quarantine_cg(container, job.completes_at);
    }
  }
  return result;
}

void FabricManager::scrub(Cycles now) {
  if (fault_ == nullptr) return;
  const Cycles interval = fault_->config().scrub_interval_cycles;
  if (interval == 0) return;
  if (next_scrub_ == 0) next_scrub_ = interval;  // arm on first use
  while (next_scrub_ <= now) {
    const Cycles at = next_scrub_;
    next_scrub_ += interval;
    if (fault_->config().transient_upset_prob > 0.0) {
      // A scrub epoch consumes fault-RNG draws and may re-enqueue repair
      // loads, so the fabric state observably changed even when every trial
      // came back clean.
      ++state_epoch_;
      scrub_epoch(at);
    }
  }
}

void FabricManager::scrub_epoch(Cycles at) {
  for (unsigned i = 0; i < fg_.num_prcs(); ++i) {
    if (prc_quarantined_[i]) continue;
    const Prc prc = fg_.prc(i);  // copy: repair/quarantine mutates the slot
    if (prc.empty() || prc.ready_at > at) continue;
    if (!fault_->upset()) continue;
    if (fault_->permanent()) {
      quarantine_prc(i, at);
      continue;
    }
    // Transient upset: scrubbing found corrupted configuration bits and
    // re-streams the bitstream. Until the repair completes the data path is
    // not usable, so affected ISEs degrade to their best intermediate.
    const StreamedLoad repair =
        stream_load(prc.occupant, i, Grain::kFine, at, "fabric.fg_loads");
    ++fault_->stats().scrub_repairs;
    trace_record({TraceEventKind::kScrubRepair,
                  kTrackFgBase + static_cast<std::int32_t>(i), at, 0,
                  raw(prc.occupant),
                  static_cast<std::uint32_t>(Grain::kFine),
                  repair.success ? static_cast<double>(repair.ready) : 0.0,
                  0.0});
    if (counters_ != nullptr) counters_->add("scrub.repair");
    if (repair.success) {
      fg_.place(i, prc.occupant, repair.ready);
    } else if (!prc_quarantined_[i]) {
      fg_.evict(i);  // repair failed: the PRC stays empty for this round
      prc_owner_[i] = kUnownedTenant;
    }
  }
  for (unsigned f = 0; f < static_cast<unsigned>(cg_.size()); ++f) {
    for (unsigned slot = 0; slot < cg_[f].capacity(); ++slot) {
      if (cg_quarantined_[f]) break;
      const CgContext ctx = cg_[f].context(slot);
      if (ctx.empty() || ctx.ready_at > at) continue;
      if (!fault_->upset()) continue;
      if (fault_->permanent()) {
        quarantine_cg(f, at);
        break;
      }
      const StreamedLoad repair =
          stream_load(ctx.occupant, f, Grain::kCoarse, at, "fabric.cg_loads");
      ++fault_->stats().scrub_repairs;
      trace_record({TraceEventKind::kScrubRepair,
                    kTrackCgBase + static_cast<std::int32_t>(f), at, 0,
                    raw(ctx.occupant),
                    static_cast<std::uint32_t>(Grain::kCoarse),
                    repair.success ? static_cast<double>(repair.ready)
                                   : 0.0,
                    0.0});
      if (counters_ != nullptr) counters_->add("scrub.repair");
      if (cg_quarantined_[f]) break;  // the repair load itself went permanent
      cg_[f].evict(slot);
      if (repair.success) cg_[f].load(ctx.occupant, repair.ready);
    }
  }
}

std::optional<unsigned> FabricManager::claim_existing_fg(
    DataPathId dp, std::vector<bool>& claimed) const {
  for (unsigned i = 0; i < fg_.num_prcs(); ++i) {
    if (claimed[i]) continue;
    if (fg_.prc(i).occupant == dp) {
      claimed[i] = true;
      return i;
    }
  }
  return std::nullopt;
}

std::optional<unsigned> FabricManager::claim_existing_cg(
    DataPathId dp, std::vector<bool>& claimed) const {
  for (unsigned i = 0; i < cg_.size(); ++i) {
    if (claimed[i]) continue;
    if (cg_[i].slot_of(dp)) {
      claimed[i] = true;
      return i;
    }
  }
  return std::nullopt;
}

std::vector<IsePlacement> FabricManager::install(
    const std::vector<IsePlacementRequest>& selection, Cycles now) {
  ++state_epoch_;
  // Consume any scrub epochs the run-time system has not drained yet, so
  // upsets/quarantines are applied before placement decisions.
  scrub(now);

  // --- 1. Check capacity. -------------------------------------------------
  // Quarantined containers are not capacity. If a quarantine shrank the
  // fabric after the selector planned, degrade gracefully instead of
  // crashing: trailing ISEs of the selection are dropped (their kernels fall
  // down the ECU ladder to monoCG/RISC). Without a fault model the strict
  // contract stays: an oversized selection is a caller bug.
  std::vector<unsigned> req_prcs(selection.size(), 0);
  std::vector<unsigned> req_cg(selection.size(), 0);
  unsigned need_prcs = 0;
  unsigned need_cg = 0;
  for (std::size_t s = 0; s < selection.size(); ++s) {
    for (DataPathId dp : selection[s].data_paths) {
      const auto& desc = (*table_)[dp];
      if (desc.grain == Grain::kFine) {
        req_prcs[s] += desc.units;
      } else {
        req_cg[s] += desc.units;
      }
    }
    need_prcs += req_prcs[s];
    need_cg += req_cg[s];
  }
  // With arbitration attached the active tenant plans against the capacity
  // it may actually place into (pool + own partition), not the whole
  // machine; an arbitrated overflow degrades like a post-quarantine one
  // (the tenant-bound selector plans with visible capacity, so drops only
  // happen on races it could not see).
  const unsigned cap_prcs =
      arbitration_ != nullptr ? accessible_prcs() : usable_prcs();
  const unsigned cap_cg =
      arbitration_ != nullptr ? accessible_cg_fabrics() : usable_cg_fabrics();
  std::size_t accepted = selection.size();
  while (accepted > 0 && (need_prcs > cap_prcs || need_cg > cap_cg)) {
    --accepted;
    need_prcs -= req_prcs[accepted];
    need_cg -= req_cg[accepted];
  }
  if (accepted != selection.size()) {
    if (fault_ == nullptr && arbitration_ == nullptr) {
      throw std::invalid_argument(
          "FabricManager::install: selection exceeds fabric capacity");
    }
    if (counters_ != nullptr) {
      counters_->add("fabric.dropped_selections", selection.size() - accepted);
    }
  }

  // --- 2. Match needed instances against what is already placed. ----------
  // Quarantined containers start out claimed: they are never reused (their
  // contents were evicted at quarantine time) and never picked as victims.
  // With arbitration, containers the active tenant may not place into
  // (other tenants' partitions) are pre-claimed the same way.
  std::vector<bool>& prc_claimed = scratch_prc_claimed_;
  std::vector<bool>& cg_claimed = scratch_cg_claimed_;
  prc_claimed.assign(prc_quarantined_.begin(), prc_quarantined_.end());
  cg_claimed.assign(cg_quarantined_.begin(), cg_quarantined_.end());
  if (arbitration_ != nullptr) {
    for (unsigned i = 0; i < fg_.num_prcs(); ++i) {
      if (!placeable_prc(i)) prc_claimed[i] = true;
    }
    for (unsigned i = 0; i < cg_.size(); ++i) {
      if (!placeable_cg(i)) cg_claimed[i] = true;
    }
  }
  // Pre-claimed containers must not end up reserved by this selection.
  const std::vector<bool>& prc_blocked =
      (scratch_prc_blocked_ = prc_claimed);
  const std::vector<bool>& cg_blocked = (scratch_cg_blocked_ = cg_claimed);

  struct PendingLoad {
    std::size_t ise_index;
    std::size_t instance_index;
    DataPathId dp;
  };
  std::vector<PendingLoad> loads;
  std::vector<IsePlacement> result(selection.size());

  for (std::size_t s = 0; s < selection.size(); ++s) {
    const auto& req = selection[s];
    auto& placement = result[s];
    placement.ise = req.ise;
    placement.kernel = req.kernel;
    placement.instance_ready.assign(req.data_paths.size(), kNeverCycles);
    if (s >= accepted) continue;  // dropped: every instance stays kNever
    for (std::size_t k = 0; k < req.data_paths.size(); ++k) {
      const DataPathId dp = req.data_paths[k];
      const auto& desc = (*table_)[dp];
      if (desc.grain == Grain::kFine) {
        if (auto prc = claim_existing_fg(dp, prc_claimed)) {
          placement.instance_ready[k] = fg_.prc(*prc).ready_at;
          ++placement.reused_instances;
          // The claimer's live selection now depends on this container.
          prc_owner_[*prc] = active_tenant_;
          continue;
        }
      } else {
        if (auto fab = claim_existing_cg(dp, cg_claimed)) {
          placement.instance_ready[k] =
              cg_[*fab].context(*cg_[*fab].slot_of(dp)).ready_at;
          ++placement.reused_instances;
          cg_owner_[*fab] = active_tenant_;
          continue;
        }
      }
      loads.push_back({s, k, dp});
    }
  }

  // --- 3. Cancel pending loads of data paths the new selection evicts. ----
  // A queued FG job is kept only if its target PRC was claimed (its data path
  // is reused by this selection).
  const std::size_t fg_cancelled = reconfig_.fg_port().cancel_pending(
      now, [&prc_claimed](const ReconfigJob& job) {
        return job.container >= prc_claimed.size() ||
               !prc_claimed[job.container];
      });
  const std::size_t cg_cancelled = reconfig_.cg_port().cancel_pending(
      now, [&cg_claimed](const ReconfigJob& job) {
        return job.container >= cg_claimed.size() || !cg_claimed[job.container];
      });
  const std::size_t cancelled = fg_cancelled + cg_cancelled;
  reconfig_stats_.cancelled_loads += cancelled;
  // One cancel event per port so analysis can attribute evicted loads to a
  // reconfiguration unit (arg1 = grain) instead of one blended count.
  if (fg_cancelled > 0) {
    trace_record({TraceEventKind::kReconfigCancel, kTrackApp, now, 0, 0,
                  static_cast<std::uint32_t>(Grain::kFine),
                  static_cast<double>(fg_cancelled), 0.0});
  }
  if (cg_cancelled > 0) {
    trace_record({TraceEventKind::kReconfigCancel, kTrackApp, now, 0, 0,
                  static_cast<std::uint32_t>(Grain::kCoarse),
                  static_cast<double>(cg_cancelled), 0.0});
  }
  if (cancelled > 0 && counters_ != nullptr) {
    counters_->add("fabric.cancelled_loads", cancelled);
  }

  // --- 4. Schedule loads for the unmatched instances. ----------------------
  // A load whose CRC retries are exhausted leaves the instance at
  // kNeverCycles: the data path is unloadable for this selection round and
  // the ECU executes the best prefix/intermediate instead.
  for (const auto& load : loads) {
    const auto& desc = (*table_)[load.dp];
    auto& placement = result[load.ise_index];
    if (desc.grain == Grain::kFine) {
      auto victim = pick_fg_victim(prc_claimed, now);
      if (!victim) {
        throw std::logic_error("FabricManager::install: no PRC victim");
      }
      prc_claimed[*victim] = true;
      note_tenant_eviction(Grain::kFine, *victim, now);
      const StreamedLoad res =
          stream_load(load.dp, *victim, Grain::kFine, now, "fabric.fg_loads");
      if (res.success) {
        fg_.place(*victim, load.dp, res.ready);
        prc_owner_[*victim] = active_tenant_;
        placement.instance_ready[load.instance_index] = res.ready;
      } else if (!prc_quarantined_[*victim]) {
        fg_.evict(*victim);
        prc_owner_[*victim] = kUnownedTenant;
      }
    } else {
      auto victim = pick_cg_victim(cg_claimed, now);
      if (!victim) {
        throw std::logic_error("FabricManager::install: no CG victim");
      }
      cg_claimed[*victim] = true;
      note_tenant_eviction(Grain::kCoarse, *victim, now);
      const StreamedLoad res = stream_load(load.dp, *victim, Grain::kCoarse,
                                           now, "fabric.cg_loads");
      if (res.success) {
        cg_[*victim].load(load.dp, res.ready);
        cg_owner_[*victim] = active_tenant_;
        placement.instance_ready[load.instance_index] = res.ready;
      }
    }
  }

  // --- 5. Reservations + prefix ready times. -------------------------------
  // Containers quarantined while scheduling this round's loads must not end
  // up reserved.
  prc_reserved_ = prc_claimed;
  cg_reserved_ = cg_claimed;
  for (unsigned i = 0; i < fg_.num_prcs(); ++i) {
    // Containers that started out blocked (quarantined or another tenant's
    // partition) were only pre-claimed, never used by this selection.
    if (prc_quarantined_[i] || prc_blocked[i]) prc_reserved_[i] = false;
  }
  for (unsigned i = 0; i < cg_.size(); ++i) {
    if (cg_quarantined_[i] || cg_blocked[i]) cg_reserved_[i] = false;
  }
  cg_pinned_.assign(cg_.size(), kInvalidDataPath);
  for (unsigned i = 0; i < cg_.size(); ++i) {
    if (!cg_reserved_[i]) continue;
    // The claimed context of this fabric is the one the selection uses; it
    // must survive monoCG context churn.
    for (const auto& req : selection) {
      for (DataPathId dp : req.data_paths) {
        if ((*table_)[dp].grain == Grain::kCoarse && cg_[i].slot_of(dp)) {
          cg_pinned_[i] = dp;
        }
      }
    }
  }
  for (auto& placement : result) {
    placement.prefix_ready.resize(placement.instance_ready.size());
    Cycles prefix = 0;
    for (std::size_t i = 0; i < placement.instance_ready.size(); ++i) {
      prefix = std::max(prefix, placement.instance_ready[i]);
      placement.prefix_ready[i] = prefix;
    }
  }
  for (const auto& placement : result) {
    reconfig_stats_.reused_instances += placement.reused_instances;
  }
  if (trace_ != nullptr) {
    const FabricUsage u = usage();
    trace_record({TraceEventKind::kOccupancy, kTrackApp, now, 0,
                  u.total_prcs, u.total_cg,
                  static_cast<double>(u.reserved_prcs),
                  static_cast<double>(u.reserved_cg)});
  }
  if (counters_ != nullptr) {
    counters_->add("fabric.installs");
    std::uint64_t reused = 0;
    for (const auto& placement : result) reused += placement.reused_instances;
    counters_->add("fabric.reused_instances", reused);
  }
  reconfig_.fg_port().compact(now);
  reconfig_.cg_port().compact(now);
  return result;
}

std::size_t FabricManager::prefetch(
    const std::vector<IsePlacementRequest>& future, Cycles now) {
  ++state_epoch_;
  std::size_t started = 0;
  // Containers already claimed during this prefetch round (quarantined ones
  // count as claimed: speculation never targets broken silicon).
  std::vector<bool>& prc_claimed = (scratch_prc_claimed_ = prc_reserved_);
  std::vector<bool>& cg_claimed = (scratch_cg_claimed_ = cg_reserved_);
  for (unsigned i = 0; i < fg_.num_prcs(); ++i) {
    if (prc_quarantined_[i] || !placeable_prc(i)) prc_claimed[i] = true;
  }
  for (unsigned i = 0; i < cg_.size(); ++i) {
    if (cg_quarantined_[i] || !placeable_cg(i)) cg_claimed[i] = true;
  }

  for (const auto& req : future) {
    for (DataPathId dp : req.data_paths) {
      const auto& desc = (*table_)[dp];
      // Placed (or loading) anywhere already: nothing to do. Instance
      // multiplicity is intentionally ignored for speculation — the goal is
      // warming the fabric, not exactness.
      if (!instance_ready_times(dp).empty()) continue;
      if (desc.grain == Grain::kFine) {
        const auto victim = pick_fg_victim(prc_claimed, now);
        if (!victim) continue;  // no unreserved PRC left
        prc_claimed[*victim] = true;
        note_tenant_eviction(Grain::kFine, *victim, now);
        const StreamedLoad res = stream_load(dp, *victim, Grain::kFine, now,
                                             "fabric.prefetch_loads");
        if (res.success) {
          fg_.place(*victim, dp, res.ready);
          prc_owner_[*victim] = active_tenant_;
        }
        ++started;
      } else {
        // Use a free context slot of any fabric (the speculative context
        // must not evict live contexts).
        std::optional<unsigned> target;
        for (unsigned i = 0; i < cg_.size(); ++i) {
          if (cg_quarantined_[i] || !placeable_cg(i)) continue;
          if (!cg_claimed[i] || cg_[i].resident_count() < cg_[i].capacity()) {
            target = i;
            break;
          }
        }
        if (!target) continue;
        const StreamedLoad res = stream_load(dp, *target, Grain::kCoarse, now,
                                             "fabric.prefetch_loads");
        if (res.success) {
          const DataPathId keep = *target < cg_pinned_.size()
                                      ? cg_pinned_[*target]
                                      : kInvalidDataPath;
          cg_[*target].load(dp, res.ready, keep);
          cg_owner_[*target] = active_tenant_;
        }
        ++started;
      }
    }
  }
  return started;
}

const char* to_string(MigrationStatus status) {
  switch (status) {
    case MigrationStatus::kMigrated: return "migrated";
    case MigrationStatus::kNothingToMigrate: return "nothing-to-migrate";
    case MigrationStatus::kTargetUnavailable: return "target-unavailable";
    case MigrationStatus::kSourceQuarantined: return "source-quarantined";
    case MigrationStatus::kCopyFailed: return "copy-failed";
  }
  return "?";
}

MigrationResult FabricManager::migrate_prc(unsigned from, unsigned to,
                                           Cycles now) {
  MigrationResult res;
  if (from >= fg_.num_prcs() || to >= fg_.num_prcs()) {
    res.status = MigrationStatus::kTargetUnavailable;
    return res;
  }
  if (prc_quarantined_[from]) {
    // The source died before the drain completed: abort with nothing
    // mutated so the caller can pick another source.
    res.status = MigrationStatus::kSourceQuarantined;
    return res;
  }
  const Prc src = fg_.prc(from);
  if (src.empty()) {
    res.status = MigrationStatus::kNothingToMigrate;
    return res;
  }
  if (to == from || prc_quarantined_[to] || !fg_.prc(to).empty() ||
      !placeable_prc(to)) {
    res.status = MigrationStatus::kTargetUnavailable;
    return res;
  }

  ++state_epoch_;
  res.dp = src.occupant;
  // Drain: in-flight executions bind the source until its configuration is
  // fully streamed/usable; the context copy starts no earlier.
  const Cycles start = std::max(now, src.ready_at);
  res.drained_at = start;
  trace_record({TraceEventKind::kMigrationStart,
                kTrackFgBase + static_cast<std::int32_t>(from), start, 0,
                raw(src.occupant), static_cast<std::uint32_t>(Grain::kFine),
                static_cast<double>(from), static_cast<double>(to)});
  if (counters_ != nullptr) counters_->add("migration.started");

  const StreamedLoad copy =
      stream_load(src.occupant, to, Grain::kFine, start, "fabric.fg_loads");
  if (!copy.success) {
    // CRC retries exhausted (the stream may have quarantined the target);
    // the source keeps serving, the caller retries elsewhere.
    res.status = MigrationStatus::kCopyFailed;
    if (counters_ != nullptr) counters_->add("migration.failed");
    return res;
  }

  fg_.place(to, src.occupant, copy.ready);
  prc_owner_[to] = prc_owner_[from];
  fg_.evict(from);
  prc_owner_[from] = kUnownedTenant;
  if (prc_reserved_[from]) {
    prc_reserved_[from] = false;
    prc_reserved_[to] = true;
  }
  trace_record({TraceEventKind::kMigrationComplete,
                kTrackFgBase + static_cast<std::int32_t>(to), copy.ready,
                copy.ready - start, raw(src.occupant),
                static_cast<std::uint32_t>(Grain::kFine),
                static_cast<double>(from), static_cast<double>(to)});
  if (counters_ != nullptr) counters_->add("migration.completed");
  res.status = MigrationStatus::kMigrated;
  res.ready_at = copy.ready;
  return res;
}

MigrationResult FabricManager::migrate_cg(unsigned from, unsigned to,
                                          Cycles now) {
  MigrationResult res;
  if (from >= cg_.size() || to >= cg_.size()) {
    res.status = MigrationStatus::kTargetUnavailable;
    return res;
  }
  if (cg_quarantined_[from]) {
    res.status = MigrationStatus::kSourceQuarantined;
    return res;
  }
  // Oldest resident context (lowest ready_at; ties to the lowest slot).
  std::optional<unsigned> slot;
  for (unsigned s = 0; s < cg_[from].capacity(); ++s) {
    const CgContext& ctx = cg_[from].context(s);
    if (ctx.empty()) continue;
    if (!slot || ctx.ready_at < cg_[from].context(*slot).ready_at) slot = s;
  }
  if (!slot) {
    res.status = MigrationStatus::kNothingToMigrate;
    return res;
  }
  if (to == from || cg_quarantined_[to] || !placeable_cg(to) ||
      cg_[to].resident_count() >= cg_[to].capacity()) {
    // Migration never evicts live contexts on the target.
    res.status = MigrationStatus::kTargetUnavailable;
    return res;
  }

  ++state_epoch_;
  const CgContext ctx = cg_[from].context(*slot);
  res.dp = ctx.occupant;
  const Cycles start = std::max(now, ctx.ready_at);
  res.drained_at = start;
  trace_record({TraceEventKind::kMigrationStart,
                kTrackCgBase + static_cast<std::int32_t>(from), start, 0,
                raw(ctx.occupant), static_cast<std::uint32_t>(Grain::kCoarse),
                static_cast<double>(from), static_cast<double>(to)});
  if (counters_ != nullptr) counters_->add("migration.started");

  const StreamedLoad copy =
      stream_load(ctx.occupant, to, Grain::kCoarse, start, "fabric.cg_loads");
  if (!copy.success) {
    res.status = MigrationStatus::kCopyFailed;
    if (counters_ != nullptr) counters_->add("migration.failed");
    return res;
  }

  cg_[to].load(ctx.occupant, copy.ready);
  cg_owner_[to] = cg_owner_[from];
  cg_[from].evict(*slot);
  if (cg_pinned_[from] == ctx.occupant) {
    cg_pinned_[to] = ctx.occupant;
    cg_pinned_[from] = kInvalidDataPath;
  }
  if (cg_reserved_[from] && cg_[from].resident_count() == 0) {
    cg_reserved_[from] = false;
    cg_reserved_[to] = true;
  }
  if (cg_[from].resident_count() == 0) cg_owner_[from] = kUnownedTenant;
  trace_record({TraceEventKind::kMigrationComplete,
                kTrackCgBase + static_cast<std::int32_t>(to), copy.ready,
                copy.ready - start, raw(ctx.occupant),
                static_cast<std::uint32_t>(Grain::kCoarse),
                static_cast<double>(from), static_cast<double>(to)});
  if (counters_ != nullptr) counters_->add("migration.completed");
  res.status = MigrationStatus::kMigrated;
  res.ready_at = copy.ready;
  return res;
}

std::optional<Cycles> FabricManager::acquire_mono_cg(DataPathId mono_dp,
                                                     Cycles now) {
  ++state_epoch_;
  const auto& desc = (*table_)[mono_dp];
  if (desc.grain != Grain::kCoarse) {
    throw std::invalid_argument(
        "FabricManager::acquire_mono_cg: monoCG must be a CG data path");
  }
  // Already resident somewhere? Just (re-)activate it (2-cycle switch).
  for (unsigned i = 0; i < cg_.size(); ++i) {
    CgFabric& fabric = cg_[i];
    if (auto slot = fabric.slot_of(mono_dp)) {
      const Cycles ready = fabric.context(*slot).ready_at;
      const Cycles switch_cost = fabric.activate(*slot);
      if (switch_cost > 0) {
        trace_record({TraceEventKind::kCgContextSwitch,
                      kTrackCgBase + static_cast<std::int32_t>(i),
                      std::max(now, ready), switch_cost, raw(mono_dp), 0,
                      0.0, 0.0});
        if (counters_ != nullptr) counters_->add("fabric.cg_context_switches");
      }
      return std::max(now, ready) + switch_cost;
    }
  }
  // Pick a host. A CG fabric stores multiple contexts, so a "free" fabric
  // in the Fig. 7 sense is one that can take another context without
  // disturbing the current selection: prefer unreserved fabrics (stale
  // contexts there may be evicted), otherwise use a free context slot of a
  // reserved fabric — execution is serialized, only the 2-cycle context
  // switch is paid.
  std::optional<unsigned> target;
  for (unsigned i = 0; i < cg_.size(); ++i) {
    if (cg_reserved_[i] || cg_quarantined_[i] || !placeable_cg(i)) continue;
    if (!target) target = i;
    if (cg_[i].resident_count() < cg_[i].capacity()) {
      target = i;
      break;
    }
  }
  if (!target) {
    // Reserved fabrics host monoCG contexts too (the context memory stores
    // multiple contexts); the selection's own context is pinned. Prefer a
    // fabric with a free slot, else evict the oldest stale/mono context
    // (capacity permitting).
    for (unsigned i = 0; i < cg_.size(); ++i) {
      if (cg_quarantined_[i] || !placeable_cg(i)) continue;
      if (cg_[i].resident_count() < cg_[i].capacity()) {
        target = i;
        break;
      }
    }
    if (!target) {
      for (unsigned i = 0; i < cg_.size(); ++i) {
        if (!cg_quarantined_[i] && placeable_cg(i) && cg_[i].capacity() > 1) {
          target = i;
          break;
        }
      }
    }
  }
  if (!target) return std::nullopt;  // incl. the all-CG-quarantined machine
  note_tenant_eviction(Grain::kCoarse, *target, now);
  const StreamedLoad res =
      stream_load(mono_dp, *target, Grain::kCoarse, now,
                  "fabric.mono_cg_loads");
  if (!res.success) return std::nullopt;  // CRC retries exhausted
  const DataPathId keep = *target < cg_pinned_.size()
                              ? cg_pinned_[*target]
                              : kInvalidDataPath;
  const unsigned slot = cg_[*target].load(mono_dp, res.ready, keep);
  cg_owner_[*target] = active_tenant_;
  const Cycles switch_cost = cg_[*target].activate(slot);
  if (switch_cost > 0) {
    trace_record({TraceEventKind::kCgContextSwitch,
                  kTrackCgBase + static_cast<std::int32_t>(*target),
                  res.ready, switch_cost, raw(mono_dp), 0, 0.0, 0.0});
    if (counters_ != nullptr) counters_->add("fabric.cg_context_switches");
  }
  return res.ready + switch_cost;
}

unsigned FabricManager::available_instances(DataPathId dp, Cycles t) const {
  unsigned n = 0;
  for (unsigned i = 0; i < fg_.num_prcs(); ++i) {
    const auto& prc = fg_.prc(i);
    if (prc.occupant == dp && prc.ready_at <= t) ++n;
  }
  for (const auto& fabric : cg_) {
    if (fabric.holds(dp, t)) ++n;
  }
  return n;
}

std::vector<Cycles> FabricManager::instance_ready_times(DataPathId dp) const {
  std::vector<Cycles> out;
  append_instance_ready_times(dp, out);
  return out;
}

void FabricManager::append_instance_ready_times(DataPathId dp,
                                                std::vector<Cycles>& out) const {
  out.clear();
  for (unsigned i = 0; i < fg_.num_prcs(); ++i) {
    const auto& prc = fg_.prc(i);
    if (prc.occupant == dp) out.push_back(prc.ready_at);
  }
  for (const auto& fabric : cg_) fabric.append_instance_ready_times(dp, out);
  std::sort(out.begin(), out.end());
}

void FabricManager::snapshot_instance_ready_times(
    std::vector<std::vector<Cycles>>& out) const {
  for (auto& bucket : out) bucket.clear();
  for (unsigned i = 0; i < fg_.num_prcs(); ++i) {
    const auto& prc = fg_.prc(i);
    if (!prc.empty() && raw(prc.occupant) < out.size()) {
      out[raw(prc.occupant)].push_back(prc.ready_at);
    }
  }
  for (const auto& fabric : cg_) {
    for (unsigned s = 0; s < fabric.capacity(); ++s) {
      const CgContext& ctx = fabric.context(s);
      if (!ctx.empty() && raw(ctx.occupant) < out.size()) {
        out[raw(ctx.occupant)].push_back(ctx.ready_at);
      }
    }
  }
  for (auto& bucket : out) {
    if (bucket.size() > 1) std::sort(bucket.begin(), bucket.end());
  }
}

unsigned FabricManager::free_cg_fabrics() const {
  unsigned n = 0;
  for (unsigned i = 0; i < cg_reserved_.size(); ++i) {
    if (!cg_reserved_[i] && !cg_quarantined_[i]) ++n;
  }
  return n;
}

FabricUsage FabricManager::usage() const {
  FabricUsage u;
  u.total_prcs = fg_.num_prcs();
  u.total_cg = static_cast<unsigned>(cg_.size());
  u.reserved_prcs = static_cast<unsigned>(
      std::count(prc_reserved_.begin(), prc_reserved_.end(), true));
  u.reserved_cg = static_cast<unsigned>(
      std::count(cg_reserved_.begin(), cg_reserved_.end(), true));
  u.quarantined_prcs = fg_.num_prcs() - usable_prcs();
  u.quarantined_cg = static_cast<unsigned>(cg_.size()) - usable_cg_fabrics();
  return u;
}

Cycles FabricManager::fg_port_free_at(Cycles now) const {
  return reconfig_.fg_port().busy_until(now);
}

void FabricManager::reset() {
  ++state_epoch_;
  for (unsigned i = 0; i < fg_.num_prcs(); ++i) fg_.evict(i);
  for (auto& fabric : cg_) fabric.clear();
  prc_reserved_.assign(fg_.num_prcs(), false);
  cg_reserved_.assign(cg_.size(), false);
  cg_pinned_.assign(cg_.size(), kInvalidDataPath);
  prc_owner_.assign(fg_.num_prcs(), kUnownedTenant);
  cg_owner_.assign(cg_.size(), kUnownedTenant);
  reconfig_ = ReconfigController{};
  reconfig_stats_ = ReconfigStats{};
  // Quarantine bitmaps and the fault model's RNG deliberately survive:
  // permanent faults are physical damage, and the injector's stream is one
  // deterministic timeline per simulator instance.
  next_scrub_ = 0;
}

template <typename Io, typename Self>
void FabricManager::walk(Io& io, Self& self) {
  // Shape header first so a mismatched restore fails before any payload is
  // even parsed.
  std::uint32_t prcs = self.fg_.num_prcs();
  auto cgs = static_cast<std::uint32_t>(self.cg_.size());
  io.u32(prcs);
  io.u32(cgs);
  if (prcs != self.fg_.num_prcs() || cgs != self.cg_.size()) {
    throw SnapshotError("snapshot fabric shape does not match this fabric",
                        io.pos());
  }
  const auto bit = [](auto& io, auto&& b) { io.boolean(b); };
  const auto tenant = [](auto& io, auto& t) { io.u32(t); };
  io.state(self.fg_);
  for (auto& fabric : self.cg_) io.state(fabric);
  io.state(self.reconfig_);
  io.fixed(self.prc_reserved_, "PRC reservation set", bit);
  io.fixed(self.cg_reserved_, "CG reservation set", bit);
  io.fixed(self.cg_pinned_, "CG pin set",
           [](auto& io, auto& dp) { io.id(dp); });
  auto& stats = self.reconfig_stats_;
  io.u64(stats.fg_loads);
  io.u64(stats.cg_loads);
  io.u64(stats.fg_bytes);
  io.u64(stats.cg_bytes);
  io.u64(stats.cancelled_loads);
  io.u64(stats.reused_instances);
  io.u32(self.active_tenant_);
  io.fixed(self.prc_owner_, "PRC owner table", tenant);
  io.fixed(self.cg_owner_, "CG owner table", tenant);
  io.fixed(self.prc_quarantined_, "PRC quarantine set", bit);
  io.fixed(self.cg_quarantined_, "CG quarantine set", bit);
  io.u32(self.usable_prcs_);
  io.u32(self.usable_cg_);
  if constexpr (Io::kLoading) {
    // Quarantine is the only way out of the usable pools; install relies on
    // the counts to find a victim.
    const auto usable = [](const std::vector<bool>& quarantined) {
      return static_cast<unsigned>(
          std::count(quarantined.begin(), quarantined.end(), false));
    };
    if (self.usable_prcs_ != usable(self.prc_quarantined_) ||
        self.usable_cg_ != usable(self.cg_quarantined_)) {
      throw SnapshotError(
          "snapshot usable container counts do not match the quarantine sets",
          io.pos());
    }
  }
  io.u64(self.next_scrub_);
  io.u64(self.state_epoch_);
}

void FabricManager::save_state(SnapshotWriter& w) const { walk(w, *this); }
void FabricManager::load_state(SnapshotReader& r) { walk(r, *this); }

}  // namespace mrts
