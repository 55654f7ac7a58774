#include "arch/fabric_manager.h"

#include <algorithm>
#include <stdexcept>

#include "arch/fault_model.h"
#include "util/counters.h"
#include "util/snapshot_io.h"
#include "util/trace.h"

namespace mrts {

namespace {

static_assert(static_cast<unsigned>(Grain::kCoarse) == 0 &&
                  static_cast<unsigned>(Grain::kFine) == 1,
              "FabricManager::grains_ is indexed by Grain");

std::int32_t track(Grain grain, unsigned container) {
  return (grain == Grain::kFine ? kTrackFgBase : kTrackCgBase) +
         static_cast<std::int32_t>(container);
}

std::uint32_t grain_arg(Grain grain) {
  return static_cast<std::uint32_t>(grain);
}

const char* load_counter(Grain grain) {
  return grain == Grain::kFine ? "fabric.fg_loads" : "fabric.cg_loads";
}

}  // namespace

FabricManager::FabricManager(unsigned num_cg_fabrics, unsigned num_prcs,
                             const DataPathTable* table,
                             CgFabricParams cg_params)
    : table_(table),
      fg_(num_prcs),
      grains_{Containers(num_cg_fabrics), Containers(num_prcs)},
      cg_pinned_(num_cg_fabrics, kInvalidDataPath) {
  if (table_ == nullptr) {
    throw std::invalid_argument("FabricManager: null data path table");
  }
  cg_.reserve(num_cg_fabrics);
  for (unsigned i = 0; i < num_cg_fabrics; ++i) cg_.emplace_back(cg_params);
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

// --- Per-grain primitives ---------------------------------------------------

unsigned FabricManager::slots(Grain grain, unsigned index) const {
  return grain == Grain::kFine ? 1 : cg_[index].capacity();
}

FabricManager::Config FabricManager::config(Grain grain, unsigned index,
                                            unsigned slot) const {
  if (grain == Grain::kFine) {
    const Prc& prc = fg_.prc(index);
    return {prc.occupant, prc.ready_at};
  }
  const CgContext& ctx = cg_[index].context(slot);
  return {ctx.occupant, ctx.ready_at};
}

bool FabricManager::occupied(Grain grain, unsigned index) const {
  return grain == Grain::kFine ? !fg_.prc(index).empty()
                               : cg_[index].resident_count() > 0;
}

bool FabricManager::load_destroys(Grain grain, unsigned index) const {
  return grain == Grain::kFine
             ? !fg_.prc(index).empty()
             : cg_[index].resident_count() >= cg_[index].capacity();
}

std::optional<Cycles> FabricManager::holds_since(Grain grain, unsigned index,
                                                 DataPathId dp) const {
  if (grain == Grain::kFine) {
    const Prc& prc = fg_.prc(index);
    if (prc.occupant != dp) return std::nullopt;
    return prc.ready_at;
  }
  const auto slot = cg_[index].slot_of(dp);
  if (!slot) return std::nullopt;
  return cg_[index].context(*slot).ready_at;
}

void FabricManager::place(Grain grain, unsigned index, DataPathId dp,
                          Cycles ready) {
  if (grain == Grain::kFine) {
    fg_.place(index, dp, ready);
  } else {
    cg_[index].load(dp, ready, cg_pinned_[index]);
  }
}

void FabricManager::pin(Grain grain, unsigned index, DataPathId dp) {
  if (grain == Grain::kCoarse) cg_pinned_[index] = dp;
}

void FabricManager::evict(Grain grain, unsigned index, unsigned slot) {
  if (grain == Grain::kFine) {
    fg_.evict(index);
  } else {
    cg_[index].evict(slot);
  }
}

void FabricManager::clear(Grain grain, unsigned index) {
  if (grain == Grain::kFine) {
    fg_.evict(index);
  } else {
    cg_[index].clear();
    cg_pinned_[index] = kInvalidDataPath;
  }
}

void FabricManager::drop_failed_load(Grain grain, unsigned index) {
  Containers& c = of(grain);
  if (grain == Grain::kCoarse || c.quarantined[index]) return;
  fg_.evict(index);
  c.owner[index] = kUnownedTenant;
}

std::optional<unsigned> FabricManager::native_victim(
    Grain grain, const std::vector<bool>& claimed) const {
  if (grain == Grain::kFine) return fg_.find_victim(claimed);
  for (unsigned i = 0; i < cg_.size(); ++i) {
    if (!claimed[i]) return i;
  }
  return std::nullopt;
}

// --- Ownership, arbitration and quarantine ----------------------------------

TenantId FabricManager::owner(Grain grain, unsigned index) const {
  const Containers& c = of(grain);
  return index < c.size() ? c.owner[index] : kUnownedTenant;
}

unsigned FabricManager::owned(Grain grain, TenantId tenant) const {
  const Containers& c = of(grain);
  unsigned n = 0;
  for (unsigned i = 0; i < c.size(); ++i) {
    if (c.owner[i] == tenant && occupied(grain, i)) ++n;
  }
  return n;
}

TenantId FabricManager::foreign_owner(Grain grain, unsigned index) const {
  const TenantId owner = of(grain).owner[index];
  return occupied(grain, index) && owner != active_tenant_ ? owner
                                                           : kUnownedTenant;
}

bool FabricManager::placeable(Grain grain, unsigned index) const {
  return arbitration_ == nullptr ||
         arbitration_->may_place(active_tenant_, grain, index);
}

unsigned FabricManager::accessible(Grain grain) const {
  const Containers& c = of(grain);
  unsigned n = 0;
  for (unsigned i = 0; i < c.size(); ++i) {
    if (!c.quarantined[i] && placeable(grain, i)) ++n;
  }
  return n;
}

void FabricManager::note_tenant_eviction(Grain grain, unsigned container,
                                         Cycles now) {
  const TenantId owner = of(grain).owner[container];
  if (!load_destroys(grain, container) || owner == kUnownedTenant ||
      owner == active_tenant_) {
    return;
  }
  trace_record({TraceEventKind::kTenantEviction, track(grain, container), now,
                0, owner, grain_arg(grain), static_cast<double>(active_tenant_),
                0.0});
  if (counters_ != nullptr) counters_->add("tenant.eviction");
  if (arbitration_ != nullptr) {
    arbitration_->note_eviction(active_tenant_, owner, grain, now);
  }
}

std::optional<unsigned> FabricManager::pick_victim(Grain grain, Cycles now) {
  const std::vector<bool>& claimed = of(grain).claimed;
  const auto native = native_victim(grain, claimed);
  if (arbitration_ == nullptr || !native) return native;
  const TenantId owner = foreign_owner(grain, *native);
  if (owner == kUnownedTenant ||
      arbitration_->prefer_evict(active_tenant_, owner, grain)) {
    return native;
  }
  // The native victim is a within-entitlement foreign tenant's live data
  // path; redirect onto the native choice among the preferred (over-quota /
  // best-effort) victims when one exists, else keep the native choice.
  std::vector<bool>& restricted = scratch_restricted_;
  restricted.assign(claimed.begin(), claimed.end());
  bool any_preferred = false;
  for (unsigned i = 0; i < restricted.size(); ++i) {
    if (restricted[i]) continue;
    const TenantId candidate = foreign_owner(grain, i);
    if (candidate != kUnownedTenant &&
        arbitration_->prefer_evict(active_tenant_, candidate, grain)) {
      any_preferred = true;
    } else {
      restricted[i] = true;
    }
  }
  if (!any_preferred) return native;
  const auto redirect = native_victim(grain, restricted);
  if (!redirect) return native;
  const TenantId victim_owner = of(grain).owner[*redirect];
  trace_record({TraceEventKind::kTenantQuotaHit, track(grain, *redirect), now,
                0, victim_owner, grain_arg(grain),
                static_cast<double>(active_tenant_), 0.0});
  if (counters_ != nullptr) counters_->add("tenant.quota_hit");
  arbitration_->note_quota_redirect(active_tenant_, victim_owner, grain, now);
  return redirect;
}

bool FabricManager::quarantined(Grain grain, unsigned index) const {
  const Containers& c = of(grain);
  return index < c.size() && c.quarantined[index];
}

void FabricManager::quarantine(Grain grain, unsigned index, Cycles at) {
  Containers& c = of(grain);
  if (index >= c.size() || c.quarantined[index]) return;
  ++state_epoch_;
  const TenantId owner = c.owner[index];
  c.quarantined[index] = true;
  --c.usable;
  clear(grain, index);
  c.reserved[index] = false;
  c.owner[index] = kUnownedTenant;
  const bool fine = grain == Grain::kFine;
  if (fault_ != nullptr) {
    FaultStats& stats = fault_->stats();
    ++(fine ? stats.quarantined_prcs : stats.quarantined_cg);
  }
  // v0 = the tenant that lost the container (0 = unowned/single-app).
  trace_record({TraceEventKind::kQuarantine, track(grain, index), at, 0,
                index, grain_arg(grain), static_cast<double>(owner), 0.0});
  if (counters_ != nullptr) {
    counters_->add(fine ? "prc.quarantined" : "cg.quarantined");
  }
  if (arbitration_ != nullptr) arbitration_->note_quarantine(owner, grain, at);
}

const CgFabric& FabricManager::cg_fabric(unsigned i) const {
  if (i >= cg_.size()) throw std::out_of_range("FabricManager::cg_fabric");
  return cg_[i];
}

// --- Load streams and scrubbing ---------------------------------------------

void FabricManager::trace_load(const ReconfigJob& job, Grain grain) const {
  if (trace_ == nullptr) return;
  // Scheduled times at enqueue; a later install() may cancel pending loads
  // (recorded as kReconfigCancel) before they start.
  trace_record({TraceEventKind::kReconfigStart, track(grain, job.container),
                job.starts_at, job.completes_at - job.starts_at, raw(job.dp),
                grain_arg(grain), 0.0, 0.0});
  trace_record({TraceEventKind::kReconfigComplete,
                track(grain, job.container), job.completes_at, 0, raw(job.dp),
                grain_arg(grain), 0.0, 0.0});
}

FabricManager::StreamedLoad FabricManager::stream_load(
    DataPathId dp, unsigned container, Grain grain, Cycles now,
    const char* counter) {
  const auto& desc = (*table_)[dp];
  const Cycles duration = desc.reconfig_cycles();
  LoadFaultOutcome outcome;
  outcome.port_cycles = duration;
  if (fault_ != nullptr) outcome = fault_->plan_load(grain, duration);

  const ReconfigJob job = reconfig_.port(grain).enqueue(
      dp, container, outcome.port_cycles, now);
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
  if (counters_ != nullptr) counters_->add(counter);

  const unsigned failed_attempts =
      outcome.retries + (outcome.success ? 0u : 1u);
  // Reconstruct the attempt timeline inside the enqueued job: attempt k
  // streams for `duration` cycles and fails its CRC check at the end; retry
  // k then waits out the exponential backoff before re-streaming.
  Cycles attempt_start = job.starts_at;
  for (unsigned k = 0; k < failed_attempts; ++k) {
    const Cycles detect = attempt_start + duration;
    trace_record({TraceEventKind::kFaultInject, track(grain, container),
                  detect, 0, raw(dp), grain_arg(grain), static_cast<double>(k),
                  0.0});
    if (counters_ != nullptr) counters_->add("fault.inject");
    if (k < outcome.retries) {
      const Cycles retry_start = detect + fault_->backoff(k);
      trace_record({TraceEventKind::kReconfigRetry, track(grain, container),
                    retry_start, duration, raw(dp), k + 1, 0.0, 0.0});
      if (counters_ != nullptr) counters_->add("reconfig.retry");
      attempt_start = retry_start;
    }
  }

  StreamedLoad result;
  result.success = outcome.success;
  if (outcome.success) {
    result.ready = job.completes_at;
  } else if (outcome.quarantine) {
    // Retry exhaustion diagnosed a permanent container fault at the final
    // CRC check.
    quarantine(grain, container, job.completes_at);
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
  for (Grain grain : kGrains) {
    Containers& c = of(grain);
    for (unsigned i = 0; i < c.size(); ++i) {
      // Every loaded configuration draws its own trial: a PRC's one, each
      // resident context of a CG fabric.
      for (unsigned slot = 0; slot < slots(grain, i) && !c.quarantined[i];
           ++slot) {
        const Config cfg = config(grain, i, slot);  // repair mutates it
        if (cfg.empty() || cfg.ready_at > at) continue;
        if (!fault_->upset()) continue;
        if (fault_->permanent()) {
          quarantine(grain, i, at);
          break;
        }
        // Transient upset: scrubbing found corrupted configuration bits and
        // re-streams them. Until the repair completes the data path is not
        // usable, so affected ISEs degrade to their best intermediate.
        const StreamedLoad repair =
            stream_load(cfg.dp, i, grain, at, load_counter(grain));
        ++fault_->stats().scrub_repairs;
        trace_record({TraceEventKind::kScrubRepair, track(grain, i), at, 0,
                      raw(cfg.dp), grain_arg(grain),
                      repair.success ? static_cast<double>(repair.ready) : 0.0,
                      0.0});
        if (counters_ != nullptr) counters_->add("scrub.repair");
        if (c.quarantined[i]) break;  // the repair load itself went permanent
        evict(grain, i, slot);
        if (repair.success) {
          place(grain, i, cfg.dp, repair.ready);
        } else {
          drop_failed_load(grain, i);
        }
      }
    }
  }
}

// --- Installation -----------------------------------------------------------

std::optional<unsigned> FabricManager::claim_existing(Grain grain,
                                                      DataPathId dp) {
  std::vector<bool>& claimed = of(grain).claimed;
  for (unsigned i = 0; i < claimed.size(); ++i) {
    if (!claimed[i] && holds_since(grain, i, dp)) {
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
  //
  // With arbitration attached the active tenant plans against the capacity
  // it may actually place into (pool + own partition), not the whole
  // machine; an arbitrated overflow degrades like a post-quarantine one
  // (the tenant-bound selector plans with visible capacity, so drops only
  // happen on races it could not see). Arrays below are indexed by Grain.
  std::vector<std::array<unsigned, 2>> units(selection.size());
  std::array<unsigned, 2> need{};
  std::array<unsigned, 2> capacity{};
  for (std::size_t s = 0; s < selection.size(); ++s) {
    for (DataPathId dp : selection[s].data_paths) {
      const auto& desc = (*table_)[dp];
      units[s][static_cast<unsigned>(desc.grain)] += desc.units;
    }
    for (unsigned g = 0; g < 2; ++g) need[g] += units[s][g];
  }
  for (Grain grain : kGrains) {
    capacity[static_cast<unsigned>(grain)] =
        arbitration_ != nullptr ? accessible(grain) : usable(grain);
  }
  std::size_t accepted = selection.size();
  while (accepted > 0 && (need[0] > capacity[0] || need[1] > capacity[1])) {
    --accepted;
    for (unsigned g = 0; g < 2; ++g) need[g] -= units[accepted][g];
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
  for (Grain grain : kGrains) {
    Containers& c = of(grain);
    c.claimed.assign(c.quarantined.begin(), c.quarantined.end());
    if (arbitration_ == nullptr) continue;
    for (unsigned i = 0; i < c.size(); ++i) {
      if (!placeable(grain, i)) c.claimed[i] = true;
    }
  }
  // The previous selection's pins go with it; this one's are set where it
  // claims or loads a container.
  cg_pinned_.assign(cg_.size(), kInvalidDataPath);

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
      const Grain grain = (*table_)[dp].grain;
      if (const auto reused = claim_existing(grain, dp)) {
        placement.instance_ready[k] = *holds_since(grain, *reused, dp);
        ++placement.reused_instances;
        // The claimer's live selection now depends on this container.
        of(grain).owner[*reused] = active_tenant_;
        pin(grain, *reused, dp);
        continue;
      }
      loads.push_back({s, k, dp});
    }
  }

  // --- 3. Cancel pending loads of data paths the new selection evicts. ----
  // A queued job is kept only if its target container was claimed (its data
  // path is reused by this selection).
  std::size_t cancelled = 0;
  for (Grain grain : kGrains) {
    const std::vector<bool>& claimed = of(grain).claimed;
    const std::size_t n = reconfig_.port(grain).cancel_pending(
        now, [&claimed](const ReconfigJob& job) {
          return job.container >= claimed.size() || !claimed[job.container];
        });
    // One cancel event per port so analysis can attribute evicted loads to
    // a reconfiguration unit (arg1 = grain) instead of one blended count.
    if (n > 0) {
      trace_record({TraceEventKind::kReconfigCancel, kTrackApp, now, 0, 0,
                    grain_arg(grain), static_cast<double>(n), 0.0});
    }
    cancelled += n;
  }
  reconfig_stats_.cancelled_loads += cancelled;
  if (cancelled > 0 && counters_ != nullptr) {
    counters_->add("fabric.cancelled_loads", cancelled);
  }

  // --- 4. Schedule loads for the unmatched instances. ----------------------
  // A load whose CRC retries are exhausted leaves the instance at
  // kNeverCycles: the data path is unloadable for this selection round and
  // the ECU executes the best prefix/intermediate instead.
  for (const auto& load : loads) {
    const Grain grain = (*table_)[load.dp].grain;
    Containers& c = of(grain);
    const auto victim = pick_victim(grain, now);
    if (!victim) {
      throw std::logic_error(grain == Grain::kFine
                                 ? "FabricManager::install: no PRC victim"
                                 : "FabricManager::install: no CG victim");
    }
    c.claimed[*victim] = true;
    note_tenant_eviction(grain, *victim, now);
    const StreamedLoad res =
        stream_load(load.dp, *victim, grain, now, load_counter(grain));
    if (res.success) {
      place(grain, *victim, load.dp, res.ready);
      pin(grain, *victim, load.dp);
      c.owner[*victim] = active_tenant_;
      result[load.ise_index].instance_ready[load.instance_index] = res.ready;
    } else {
      drop_failed_load(grain, *victim);
    }
  }

  // --- 5. Reservations + prefix ready times. -------------------------------
  // Containers quarantined while scheduling this round's loads, and those
  // only pre-claimed because the active tenant may not use them, were never
  // used by this selection: they must not end up reserved.
  for (Grain grain : kGrains) {
    Containers& c = of(grain);
    for (unsigned i = 0; i < c.size(); ++i) {
      c.reserved[i] = c.claimed[i] && !c.quarantined[i] && placeable(grain, i);
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
  std::uint64_t reused = 0;
  for (const auto& placement : result) reused += placement.reused_instances;
  reconfig_stats_.reused_instances += reused;
  if (trace_ != nullptr) {
    const FabricUsage u = usage();
    trace_record({TraceEventKind::kOccupancy, kTrackApp, now, 0,
                  u.total_prcs, u.total_cg,
                  static_cast<double>(u.reserved_prcs),
                  static_cast<double>(u.reserved_cg)});
  }
  if (counters_ != nullptr) {
    counters_->add("fabric.installs");
    counters_->add("fabric.reused_instances", reused);
  }
  for (Grain grain : kGrains) reconfig_.port(grain).compact(now);
  return result;
}

std::size_t FabricManager::prefetch(
    const std::vector<IsePlacementRequest>& future, Cycles now) {
  ++state_epoch_;
  std::size_t started = 0;
  // Containers already claimed during this prefetch round: the current
  // selection's, plus quarantined ones (speculation never targets broken
  // silicon) and ones the active tenant may not place into.
  for (Grain grain : kGrains) {
    Containers& c = of(grain);
    c.claimed.assign(c.reserved.begin(), c.reserved.end());
    for (unsigned i = 0; i < c.size(); ++i) {
      if (c.quarantined[i] || !placeable(grain, i)) c.claimed[i] = true;
    }
  }

  for (const auto& req : future) {
    for (DataPathId dp : req.data_paths) {
      // Placed (or loading) anywhere already: nothing to do. Instance
      // multiplicity is intentionally ignored for speculation — the goal is
      // warming the fabric, not exactness.
      if (available_instances(dp, kNeverCycles) > 0) continue;
      const Grain grain = (*table_)[dp].grain;
      Containers& c = of(grain);
      std::optional<unsigned> target;
      if (grain == Grain::kFine) {
        target = pick_victim(grain, now);
        if (!target) continue;  // no unreserved PRC left
        c.claimed[*target] = true;
        note_tenant_eviction(grain, *target, now);
      } else {
        // A free context slot of any fabric (the speculative context must
        // not evict live contexts), or any unreserved fabric.
        for (unsigned i = 0; i < c.size() && !target; ++i) {
          if (c.quarantined[i] || !placeable(grain, i)) continue;
          if (!c.claimed[i] || !load_destroys(grain, i)) target = i;
        }
        if (!target) continue;
      }
      const StreamedLoad res =
          stream_load(dp, *target, grain, now, "fabric.prefetch_loads");
      if (res.success) {
        place(grain, *target, dp, res.ready);
        c.owner[*target] = active_tenant_;
      }
      ++started;
    }
  }
  return started;
}

// --- Migration --------------------------------------------------------------

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

MigrationResult FabricManager::migrate(Grain grain, unsigned from, unsigned to,
                                       Cycles now) {
  MigrationResult res;
  Containers& c = of(grain);
  if (from >= c.size() || to >= c.size()) {
    res.status = MigrationStatus::kTargetUnavailable;
    return res;
  }
  if (c.quarantined[from]) {
    // The source died before the drain completed: abort with nothing
    // mutated so the caller can pick another source.
    res.status = MigrationStatus::kSourceQuarantined;
    return res;
  }
  // The source's oldest configuration (lowest ready_at; ties to the lowest
  // slot).
  std::optional<unsigned> slot;
  Config moved;
  for (unsigned s = 0; s < slots(grain, from); ++s) {
    const Config cfg = config(grain, from, s);
    if (!cfg.empty() && (!slot || cfg.ready_at < moved.ready_at)) {
      slot = s;
      moved = cfg;
    }
  }
  if (!slot) {
    res.status = MigrationStatus::kNothingToMigrate;
    return res;
  }
  if (to == from || c.quarantined[to] || !placeable(grain, to) ||
      load_destroys(grain, to)) {
    // Migration never destroys a configuration on the target.
    res.status = MigrationStatus::kTargetUnavailable;
    return res;
  }

  ++state_epoch_;
  res.dp = moved.dp;
  // Drain: in-flight executions bind the source until its configuration is
  // fully streamed/usable; the copy stream starts no earlier.
  const Cycles start = std::max(now, moved.ready_at);
  res.drained_at = start;
  trace_record({TraceEventKind::kMigrationStart, track(grain, from), start, 0,
                raw(moved.dp), grain_arg(grain), static_cast<double>(from),
                static_cast<double>(to)});
  if (counters_ != nullptr) counters_->add("migration.started");

  const StreamedLoad copy =
      stream_load(moved.dp, to, grain, start, load_counter(grain));
  if (!copy.success) {
    // CRC retries exhausted (the stream may have quarantined the target);
    // the source keeps serving, the caller retries elsewhere.
    res.status = MigrationStatus::kCopyFailed;
    if (counters_ != nullptr) counters_->add("migration.failed");
    return res;
  }

  place(grain, to, moved.dp, copy.ready);
  c.owner[to] = c.owner[from];
  evict(grain, from, *slot);
  if (grain == Grain::kCoarse && cg_pinned_[from] == moved.dp) {
    cg_pinned_[to] = moved.dp;
    cg_pinned_[from] = kInvalidDataPath;
  }
  // A source that still holds other contexts keeps its reservation/owner.
  if (!occupied(grain, from)) {
    if (c.reserved[from]) {
      c.reserved[from] = false;
      c.reserved[to] = true;
    }
    c.owner[from] = kUnownedTenant;
  }
  trace_record({TraceEventKind::kMigrationComplete, track(grain, to),
                copy.ready, copy.ready - start, raw(moved.dp), grain_arg(grain),
                static_cast<double>(from), static_cast<double>(to)});
  if (counters_ != nullptr) counters_->add("migration.completed");
  res.status = MigrationStatus::kMigrated;
  res.ready_at = copy.ready;
  return res;
}

// --- monoCG and availability ------------------------------------------------

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
  Containers& fabrics = of(Grain::kCoarse);
  const auto host = [this, &fabrics](unsigned i) {
    return !fabrics.quarantined[i] && placeable(Grain::kCoarse, i);
  };
  std::optional<unsigned> target;
  for (unsigned i = 0; i < cg_.size(); ++i) {
    if (fabrics.reserved[i] || !host(i)) continue;
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
      if (host(i) && cg_[i].resident_count() < cg_[i].capacity()) {
        target = i;
        break;
      }
    }
    if (!target) {
      for (unsigned i = 0; i < cg_.size(); ++i) {
        if (host(i) && cg_[i].capacity() > 1) {
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
  const unsigned slot =
      cg_[*target].load(mono_dp, res.ready, cg_pinned_[*target]);
  fabrics.owner[*target] = active_tenant_;
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

FabricUsage FabricManager::usage() const {
  const auto reserved = [this](Grain grain) {
    const std::vector<bool>& r = of(grain).reserved;
    return static_cast<unsigned>(std::count(r.begin(), r.end(), true));
  };
  const auto quarantined = [this](Grain grain) {
    return of(grain).size() - of(grain).usable;
  };
  FabricUsage u;
  u.total_prcs = num_prcs();
  u.total_cg = num_cg_fabrics();
  u.reserved_prcs = reserved(Grain::kFine);
  u.reserved_cg = reserved(Grain::kCoarse);
  u.quarantined_prcs = quarantined(Grain::kFine);
  u.quarantined_cg = quarantined(Grain::kCoarse);
  return u;
}

Cycles FabricManager::fg_port_free_at(Cycles now) const {
  return reconfig_.fg_port().busy_until(now);
}

void FabricManager::reset() {
  ++state_epoch_;
  for (Grain grain : kGrains) {
    Containers& c = of(grain);
    for (unsigned i = 0; i < c.size(); ++i) clear(grain, i);
    c.reserved.assign(c.size(), false);
    c.owner.assign(c.size(), kUnownedTenant);
  }
  reconfig_ = ReconfigController{};
  reconfig_stats_ = ReconfigStats{};
  // Quarantine sets and the fault model's RNG deliberately survive:
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
  auto& fine = self.of(Grain::kFine);
  auto& coarse = self.of(Grain::kCoarse);
  io.state(self.fg_);
  for (auto& fabric : self.cg_) io.state(fabric);
  io.state(self.reconfig_);
  io.fixed(fine.reserved, "PRC reservation set", bit);
  io.fixed(coarse.reserved, "CG reservation set", bit);
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
  io.fixed(fine.owner, "PRC owner table", tenant);
  io.fixed(coarse.owner, "CG owner table", tenant);
  io.fixed(fine.quarantined, "PRC quarantine set", bit);
  io.fixed(coarse.quarantined, "CG quarantine set", bit);
  io.u32(fine.usable);
  io.u32(coarse.usable);
  if constexpr (Io::kLoading) {
    // Quarantine is the only way out of the usable pools; install relies on
    // the counts to find a victim.
    const auto consistent = [](const Containers& c) {
      const std::vector<bool>& q = c.quarantined;
      return c.usable ==
             static_cast<unsigned>(std::count(q.begin(), q.end(), false));
    };
    if (!consistent(fine) || !consistent(coarse)) {
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
