#pragma once
/// \file fabric_manager.h
/// FabricManager owns the placement state of the whole reconfigurable
/// processor: one FG fabric (a pool of PRCs), an array of CG fabrics and the
/// reconfiguration controller. It installs functional-block selections
/// (evicting/reusing data paths), realizes monoCG-Extensions at run time and
/// answers availability queries for the Execution Control Unit.
///
/// PRCs and CG fabrics are both *containers*, placed, reused, evicted,
/// quarantined, owned and migrated under one set of rules; every such method
/// takes the Grain it acts on, and the bookkeeping (reservation, owner,
/// quarantine) is one table per grain. The two kinds differ only in what a
/// container holds: a PRC holds one data path, a CG fabric a context memory
/// of several. A few private per-grain primitives (is it occupied, would a
/// load destroy a configuration, what it holds since when, clear it, the
/// native victim choice) carry that difference. The selection's context on
/// each reserved CG fabric is pinned: monoCG context churn never evicts it.
///
/// With an attached FaultModel (arch/fault_model.h) the manager also applies
/// the machine's fault semantics: load streams may fail their CRC check and
/// are retried with backoff on the port, periodic scrubbing repairs
/// transient configuration upsets, and permanent faults quarantine a
/// container — it is removed from the usable capacity and never hosts a data
/// path again (quarantine survives reset(), like real broken silicon).

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "arch/cg_fabric.h"
#include "arch/data_path.h"
#include "arch/fg_fabric.h"
#include "arch/reconfig_controller.h"
#include "arch/tenant.h"
#include "util/types.h"

namespace mrts {

class TraceRecorder;
struct TraceEvent;
class CounterRegistry;
class FaultModel;
class SnapshotWriter;
class SnapshotReader;

/// A request to realize one ISE: its data-path instances in reconfiguration
/// order (repeats allowed — an ISE may use several instances of a data path).
struct IsePlacementRequest {
  IseId ise = kInvalidIse;
  KernelId kernel = kInvalidKernel;
  std::vector<DataPathId> data_paths;
};

/// Result of installing one ISE: when each data-path instance becomes usable.
/// prefix_ready[i] = cycle at which the first (i+1) instances are all usable,
/// i.e. when the (i+1)-th intermediate ISE becomes executable.
struct IsePlacement {
  IseId ise = kInvalidIse;
  KernelId kernel = kInvalidKernel;
  std::vector<Cycles> instance_ready;
  std::vector<Cycles> prefix_ready;
  /// Number of instances that were reused from the previous configuration
  /// (no reconfiguration needed).
  unsigned reused_instances = 0;
};

/// Aggregate capacity/occupancy snapshot. Reserved counts never include
/// quarantined containers, so usable - reserved is the free budget.
struct FabricUsage {
  unsigned total_prcs = 0;
  unsigned total_cg = 0;
  unsigned reserved_prcs = 0;  ///< claimed by the current selection
  unsigned reserved_cg = 0;
  unsigned quarantined_prcs = 0;  ///< permanently faulted containers
  unsigned quarantined_cg = 0;

  unsigned usable_prcs() const { return total_prcs - quarantined_prcs; }
  unsigned usable_cg() const { return total_cg - quarantined_cg; }
};

/// Cumulative reconfiguration-traffic counters since construction/reset.
struct ReconfigStats {
  std::uint64_t fg_loads = 0;         ///< partial bitstreams streamed
  std::uint64_t cg_loads = 0;         ///< context programs streamed
  std::uint64_t fg_bytes = 0;         ///< bitstream bytes moved
  std::uint64_t cg_bytes = 0;         ///< context bytes moved
  std::uint64_t cancelled_loads = 0;  ///< pending loads evicted before start
  std::uint64_t reused_instances = 0; ///< loads avoided by reuse
};

/// Outcome of one live-migration attempt (FabricManager::migrate).
enum class MigrationStatus : std::uint8_t {
  kMigrated = 0,         ///< context copied; source released, target loading
  kNothingToMigrate,     ///< the source container holds no configuration
  kTargetUnavailable,    ///< target occupied/quarantined/inaccessible/same
  kSourceQuarantined,    ///< source quarantined before the drain completed;
                         ///< nothing was mutated — retry from another source
  kCopyFailed,           ///< the copy stream exhausted its CRC retries; the
                         ///< source stays intact (the target may have been
                         ///< quarantined by the failed stream's diagnosis)
};

const char* to_string(MigrationStatus status);

struct MigrationResult {
  MigrationStatus status = MigrationStatus::kNothingToMigrate;
  DataPathId dp = kInvalidDataPath;  ///< data path that was (to be) moved
  Cycles drained_at = 0;    ///< drain point: when the copy stream could start
  Cycles ready_at = kNeverCycles;  ///< usable-on-target cycle (on success)

  bool migrated() const { return status == MigrationStatus::kMigrated; }
};

class FabricManager {
 public:
  /// \param table data-path registry (not owned; must outlive the manager).
  FabricManager(unsigned num_cg_fabrics, unsigned num_prcs,
                const DataPathTable* table, CgFabricParams cg_params = {});

  unsigned num_prcs() const { return fg_.num_prcs(); }
  unsigned num_cg_fabrics() const { return static_cast<unsigned>(cg_.size()); }

  /// Physical capacity of \p grain minus its quarantined containers — the
  /// budget the ISE selector may plan with. O(1): the ECU asks on every
  /// RISC-mode execution decision.
  unsigned usable(Grain grain) const { return of(grain).usable; }

  bool quarantined(Grain grain, unsigned index) const;

  /// Permanently removes a container from service at cycle \p at: its
  /// contents are evicted, its reservation is released and no data path is
  /// ever placed there again. Idempotent. Exposed for tests / scripted
  /// fault scenarios; the fault model calls it on permanent faults.
  void quarantine(Grain grain, unsigned index, Cycles at);

  const FgFabric& fg_fabric() const { return fg_; }
  const CgFabric& cg_fabric(unsigned i) const;
  const ReconfigController& reconfig() const { return reconfig_; }

  /// Installs a new functional-block selection at cycle \p now.
  /// Data paths already on the fabric (possibly still loading) are reused;
  /// everything else is loaded into evicted containers, FG loads serialized
  /// on the reconfiguration port. Pending loads of evicted data paths are
  /// cancelled. Throws std::invalid_argument if the selection does not fit.
  std::vector<IsePlacement> install(
      const std::vector<IsePlacementRequest>& selection, Cycles now);

  /// Speculatively loads data paths for a *future* selection into fabric the
  /// current selection does not reserve (cross-block reconfiguration
  /// lookahead). Data paths already placed anywhere are skipped; nothing
  /// reserved/pinned by the current selection is touched, and no
  /// reservations are taken for the speculative loads (the next install()
  /// will claim them via reuse). Returns the number of loads started.
  std::size_t prefetch(const std::vector<IsePlacementRequest>& future,
                       Cycles now);

  /// Live ISE migration (Mestra-style, PAPERS.md): moves one configuration
  /// of container \p from (a PRC's data path, or a CG fabric's oldest
  /// resident context) onto container \p to of the same grain, which must
  /// be non-quarantined and take it without destroying a configuration (an
  /// empty PRC, a CG fabric with a free context slot).
  /// The move first drains the source — the copy stream cannot start before
  /// the source's configuration is fully loaded (max(now, ready_at)) — then
  /// streams it through the grain's regular reconfiguration port (same
  /// per-byte cost model and fault semantics as any load, including CRC
  /// retries and permanent-fault quarantine of the *target*). On success the
  /// configuration leaves the source, its pin follows it, and once the
  /// source holds nothing its reservation/ownership transfer to the target;
  /// on a failed copy the source stays intact so the caller can retry onto
  /// another container. Bumps state_epoch() on any mutation.
  MigrationResult migrate(Grain grain, unsigned from, unsigned to,
                          Cycles now);

  /// Realizes (or re-activates) a monoCG-Extension \p mono_dp on a CG
  /// fabric, preferring one the current selection does not reserve; on a
  /// reserved fabric it takes a free context slot or evicts the oldest
  /// context other than the pinned one the selection uses. Returns the cycle
  /// at which it is executable (includes context load / switch penalty), or
  /// nullopt when no CG fabric can host it.
  std::optional<Cycles> acquire_mono_cg(DataPathId mono_dp, Cycles now);

  /// Number of instances of \p dp usable at \p t anywhere on the fabric.
  unsigned available_instances(DataPathId dp, Cycles t) const;

  /// Clears \p out and fills it with the ready times (ascending) of all
  /// placed instances of \p dp, including instances still being loaded,
  /// reusing its capacity. The result is a pure function of the fabric
  /// state — callers may cache it keyed on state_epoch().
  void append_instance_ready_times(DataPathId dp,
                                   std::vector<Cycles>& out) const;

  /// Whole-fabric variant: one pass over every PRC and CG context slot,
  /// bucketing ready times into \p out[raw(dp)] (each bucket sorted
  /// ascending). Equivalent to calling append_instance_ready_times for
  /// every table entry, but O(fabric) instead of O(table x fabric) — the
  /// planner snapshots the full table on every selector trigger.
  /// \p out must be pre-sized to the data-path table size.
  void snapshot_instance_ready_times(
      std::vector<std::vector<Cycles>>& out) const;

  FabricUsage usage() const;
  const ReconfigStats& reconfig_stats() const { return reconfig_stats_; }

  /// Monotonic fabric-state epoch: incremented by every operation that can
  /// change placement state, port backlogs or usable capacity (install,
  /// prefetch, monoCG acquisition, context switches, scrubbing that did
  /// work, quarantines, reset, fault-model attachment). Two planner
  /// snapshots taken at the same epoch *and* the same cycle observe an
  /// identical fabric, which is what makes the ECU's per-kernel decision
  /// memo (rts/ecu.h) exact. Over-counting is harmless (only costs memo
  /// hits); under-counting would be a correctness bug, so every mutator
  /// bumps unconditionally.
  std::uint64_t state_epoch() const { return state_epoch_; }

  /// Earliest cycle >= now at which the FG reconfiguration port is idle.
  Cycles fg_port_free_at(Cycles now) const;

  /// Runs all configuration-scrubbing epochs due by \p now: every loaded
  /// container draws a transient-upset trial per epoch; upsets are either
  /// repaired (a re-load on the reconfiguration port, during which the ISE
  /// degrades to its best intermediate implementation) or — when diagnosed
  /// permanent — quarantine the container. The run-time system calls this at
  /// every trigger *before* planning, so the selector always sees the
  /// post-fault capacity. No-op without an attached fault model.
  void scrub(Cycles now);

  /// Attaches the deterministic fault injector (nullptr = fault-free
  /// machine, the default). The model must outlive this object.
  ///
  /// Attachment contract (explicit, replacing the old "last attachment
  /// wins"): a fabric has at most one fault model. Attaching a *different*
  /// non-null model while one is attached throws std::logic_error — on a
  /// shared fabric two tasks silently fighting over the injector would make
  /// the fault timeline depend on construction order. Re-attaching the same
  /// model is a no-op; nullptr detaches.
  void attach_fault_model(FaultModel* model);
  const FaultModel* fault_model() const { return fault_; }

  /// Attaches the arbitration policy hook (sim/arbiter.h implements it) and
  /// enables tenant-aware placement: accessibility masks, quota-preferred
  /// eviction, and the tenant.eviction / tenant.quota_hit observability.
  /// Same single-owner contract as attach_fault_model: attaching a
  /// different non-null hook over an existing one throws std::logic_error;
  /// nullptr detaches. With no hook attached (the default) every tenant
  /// query short-circuits and behavior is bit-identical to the
  /// pre-arbitration fabric.
  void attach_arbitration(FabricArbitration* arbitration);
  const FabricArbitration* arbitration() const { return arbitration_; }

  /// Sets the tenant on whose behalf subsequent install/prefetch/monoCG
  /// calls act. Tenant-bound run-time systems call this on entry to every
  /// fabric-touching operation; kUnownedTenant (the default) is the
  /// single-app / unmanaged mode. Bumps the state epoch only when the
  /// active tenant actually changes while arbitration is attached (the
  /// placement policy observably changed).
  void set_active_tenant(TenantId tenant);
  TenantId active_tenant() const { return active_tenant_; }

  /// Owner of a container: the tenant whose placement last targeted it
  /// (kUnownedTenant for empty containers or unmanaged placements).
  TenantId owner(Grain grain, unsigned index) const;

  /// Occupied containers of \p grain owned by \p tenant (used by the
  /// arbiter's soft-quota accounting).
  unsigned owned(Grain grain, TenantId tenant) const;

  /// Clears all placement state (power-on reset). Quarantined containers
  /// stay quarantined — permanent faults are broken silicon, not state.
  void reset();

  /// Attaches the flight recorder / counter registry (either may be null).
  /// Records reconfiguration start/completion per data path (one track per
  /// PRC and per CG fabric), CG context switches, load cancellations and an
  /// occupancy sample per install. With a shared fabric, one attachment
  /// observes the installations of every task using it.
  ///
  /// Attachment contract: one observer per fabric. Replacing an attached
  /// non-null recorder/registry with a *different* non-null one throws
  /// std::logic_error (on a shared fabric that would silently drop another
  /// task's events); re-attaching the same pointers is a no-op and nullptr
  /// detaches that stream. MRts arbitrates this per tenant: the first
  /// tenant to attach claims the shared fabric's stream.
  void attach_observability(TraceRecorder* trace, CounterRegistry* counters);
  bool observability_attached() const {
    return trace_ != nullptr || counters_ != nullptr;
  }

  /// Whole-fabric capture/restore (rts/snapshot.h): placement, port
  /// backlogs, reservations/pins, owners, quarantine set, reconfig stats,
  /// scrub schedule and the state epoch. The attached fault model, the
  /// arbitration hook and the observability streams are *not* part of the
  /// fabric's state — the restoring process reconstructs and re-attaches
  /// them before calling load_state. load_state validates the stored shape
  /// against this fabric and throws SnapshotError before mutating anything
  /// on mismatch.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  template <typename Io, typename Self>
  static void walk(Io& io, Self& self);

  /// Bookkeeping of one grain's containers (PRCs or CG fabrics), one entry
  /// per container.
  struct Containers {
    explicit Containers(unsigned n)
        : reserved(n, false),
          owner(n, kUnownedTenant),
          quarantined(n, false),
          usable(n) {}
    unsigned size() const { return static_cast<unsigned>(owner.size()); }

    /// Claimed by the currently installed selection.
    std::vector<bool> reserved;
    /// See FabricManager::owner(). Tracked even without arbitration so
    /// tests can inspect unmanaged sharing.
    std::vector<TenantId> owner;
    /// Permanently faulted (inert while no fault model is attached).
    std::vector<bool> quarantined;
    /// size() minus quarantined containers, maintained incrementally.
    unsigned usable;
    /// Claim scratch of install()/prefetch(), reused across calls (one
    /// install per trigger makes per-call allocations measurable). Only
    /// valid within a single call; install and prefetch never nest.
    std::vector<bool> claimed;
  };

  /// One configuration: a PRC's data path or one CG context slot's.
  struct Config {
    DataPathId dp = kInvalidDataPath;
    Cycles ready_at = kNeverCycles;
    bool empty() const { return dp == kInvalidDataPath; }
  };

  Containers& of(Grain grain) { return grains_[static_cast<unsigned>(grain)]; }
  const Containers& of(Grain grain) const {
    return grains_[static_cast<unsigned>(grain)];
  }

  // --- Per-grain primitives: the only place a PRC and a CG fabric differ.
  /// Configuration slots of a container: 1 for a PRC, the context memory's
  /// capacity for a CG fabric.
  unsigned slots(Grain grain, unsigned index) const;
  Config config(Grain grain, unsigned index, unsigned slot) const;
  /// Does the container hold any configuration?
  bool occupied(Grain grain, unsigned index) const;
  /// Would a load into the container destroy a configuration (a PRC's
  /// occupant; a CG fabric's oldest context once its memory is full)?
  bool load_destroys(Grain grain, unsigned index) const;
  /// Since when the container holds \p dp (nullopt when it does not).
  std::optional<Cycles> holds_since(Grain grain, unsigned index,
                                    DataPathId dp) const;
  /// Places \p dp, usable at \p ready: a PRC is overwritten, a CG fabric
  /// takes a free context slot or evicts its oldest unpinned context.
  void place(Grain grain, unsigned index, DataPathId dp, Cycles ready);
  /// Protects the selection's configuration \p dp in the container from
  /// monoCG context churn: a CG fabric pins it, a PRC holds nothing else.
  void pin(Grain grain, unsigned index, DataPathId dp);
  /// Removes the configuration in \p slot (see slots()).
  void evict(Grain grain, unsigned index, unsigned slot);
  /// Empties the container (and drops a CG fabric's pin).
  void clear(Grain grain, unsigned index);
  /// A load stream into the container exhausted its CRC retries: it had
  /// already overwritten a PRC's region, which is left empty and unowned; a
  /// CG context commits only when its stream completes, so a CG fabric keeps
  /// its contents.
  void drop_failed_load(Grain grain, unsigned index);
  /// The fabric's own victim choice among unclaimed containers: FG takes an
  /// empty PRC first, then the oldest ready_at; CG takes the first
  /// unclaimed fabric (its stale contexts are evicted lazily by
  /// CgFabric::load when the context memory fills up).
  std::optional<unsigned> native_victim(Grain grain,
                                        const std::vector<bool>& claimed) const;

  /// Forwards one event to the attached recorder, stamping the currently
  /// active tenant onto it (unless the site already stamped one). Keeps
  /// shared-fabric traces per-tenant attributable without threading a
  /// TenantId through every instrumented call site.
  void trace_record(TraceEvent event) const;

  /// Records one scheduled load (start span + completion instant).
  void trace_load(const ReconfigJob& job, Grain grain) const;

  /// Result of one (possibly retried) load stream on a port.
  struct StreamedLoad {
    Cycles ready = kNeverCycles;  ///< completion of the successful stream
    bool success = false;
  };

  /// Enqueues one load of \p dp into \p container, consulting the fault
  /// model for CRC failures/retries, and emits the load + fault
  /// observability events. On retry exhaustion the load fails; a permanent
  /// diagnosis additionally quarantines the container.
  StreamedLoad stream_load(DataPathId dp, unsigned container, Grain grain,
                           Cycles now, const char* counter);

  /// One scrubbing pass over every loaded container at epoch time \p at.
  void scrub_epoch(Cycles at);

  /// Claims (in of(grain).claimed) an unclaimed container already holding
  /// \p dp, possibly still loading.
  std::optional<unsigned> claim_existing(Grain grain, DataPathId dp);

  /// Victim selection with arbitration among the containers not yet claimed
  /// in of(grain).claimed. Starts from native_victim() and redirects only
  /// when that choice would evict a live foreign data path whose owner is
  /// *not* a preferred victim while a preferred victim (an over-quota or
  /// best-effort tenant's container) exists: the redirect is the native
  /// choice among the preferred containers (FG: the coldest; CG: the
  /// first). With no arbitration attached — or when the policy reports no
  /// preference, e.g. all-equal weights — the native choice is returned
  /// untouched, which is what keeps the legacy scheduler bit-exact as the
  /// degenerate case.
  std::optional<unsigned> pick_victim(Grain grain, Cycles now);

  /// Owner of the container when it holds another tenant's configuration,
  /// else kUnownedTenant.
  TenantId foreign_owner(Grain grain, unsigned index) const;

  /// True when the active tenant may place into the container (no hook =
  /// may).
  bool placeable(Grain grain, unsigned index) const;
  /// Usable capacity restricted to containers the active tenant may use.
  unsigned accessible(Grain grain) const;

  /// Records a cross-tenant eviction about to happen in \p container (trace
  /// event + counter + arbiter stats). No-op for empty/own/unowned victims.
  void note_tenant_eviction(Grain grain, unsigned container, Cycles now);

  const DataPathTable* table_;
  FgFabric fg_;
  std::vector<CgFabric> cg_;
  ReconfigController reconfig_;

  /// Container bookkeeping, indexed by Grain.
  std::array<Containers, 2> grains_;
  /// Scratch of pick_victim's redirect (valid within one call).
  std::vector<bool> scratch_restricted_;
  /// Data path the selection pinned on each reserved CG fabric (protected
  /// from monoCG context eviction).
  std::vector<DataPathId> cg_pinned_;
  ReconfigStats reconfig_stats_;
  TraceRecorder* trace_ = nullptr;
  CounterRegistry* counters_ = nullptr;

  /// Multi-tenant state (inert while arbitration_ == nullptr).
  FabricArbitration* arbitration_ = nullptr;
  TenantId active_tenant_ = kUnownedTenant;

  /// Fault state (inert while fault_ == nullptr).
  FaultModel* fault_ = nullptr;
  Cycles next_scrub_ = 0;  ///< next scrub epoch; 0 = not armed yet

  /// See state_epoch().
  std::uint64_t state_epoch_ = 0;
};

}  // namespace mrts
