#pragma once
/// \file ecu.h
/// Execution Control Unit (Section 4.2, Fig. 7). For every kernel execution
/// the ECU picks the implementation, in priority order:
///
///   a) the selected ISE, if all of its data paths are reconfigured;
///   b) the best available intermediate ISE — either a configured prefix of
///      the selected ISE, or another ISE of the kernel whose data paths
///      happen to be configured (shared data paths of other selections);
///   c) a monoCG-Extension: the whole kernel on one *free* CG fabric. Its
///      reconfiguration takes only microseconds, so it bridges the long
///      delay until the first FG data path arrives;
///   d) plain RISC-mode execution on the core processor.
///
/// The same ladder is the machine's graceful-degradation path under faults
/// (arch/fault_model.h): an unloadable data path (CRC retries exhausted) or
/// a container under scrub repair simply never reaches its timeline step, so
/// execution falls to the best intermediate / monoCG / RISC — and with every
/// container quarantined, everything runs in RISC mode.
///
/// Implementation note: within one functional block the set of configured
/// data paths only grows (installs happen at block boundaries), so each
/// kernel's decision is a monotone timeline of (time, latency) improvements.
/// begin_block() precomputes that timeline once; execute() is then O(1)
/// amortized, and execute_events() commits steady stretches of a block in
/// O(1) per run or O(kernels) per stretch of whole chunks (perfbench's
/// fig_grid `kexec_per_s` in BENCH_perfbench.json says how fast). The one
/// approximation: a monoCG context load that evicts a stale leftover context
/// mid-block is not reflected in already-built timelines of *other* kernels
/// (the stale context would almost never be their best option anyway).

#include <array>
#include <vector>

#include "arch/fabric_manager.h"
#include "isa/ise_library.h"
#include "rts/rts_interface.h"
#include "util/types.h"

namespace mrts {

class TraceRecorder;
class CounterRegistry;
struct ExecEvent;       // sim/schedule.h
class ObservationSink;  // sim/obs_accum.h
class SnapshotWriter;
class SnapshotReader;

/// Per-implementation execution counters.
struct EcuStats {
  std::array<std::uint64_t, kNumImplKinds> executions{};
  std::array<Cycles, kNumImplKinds> cycles{};
  Cycles saved_vs_risc = 0;  ///< total cycles saved compared to RISC mode
  Cycles context_switch_cycles = 0;

  std::uint64_t total_executions() const {
    std::uint64_t n = 0;
    for (auto e : executions) n += e;
    return n;
  }
};

class Ecu {
 public:
  struct Config {
    bool use_intermediates = true;   ///< step (b), prefix part
    bool use_cross_coverage = true;  ///< step (b), shared-data-path part
    bool use_mono_cg = true;         ///< step (c)
  };

  Ecu(const IseLibrary& lib, FabricManager& fabric)
      : Ecu(lib, fabric, Config{}) {}
  Ecu(const IseLibrary& lib, FabricManager& fabric, Config config);

  /// Installs the per-kernel assignments of a new functional block and
  /// precomputes each kernel's implementation timeline.
  /// \p placements comes from FabricManager::install (real ready times).
  void begin_block(const std::vector<IsePlacement>& placements, Cycles now);

  /// Decides and accounts one execution of kernel \p k at cycle \p now.
  /// \p now must be non-decreasing across calls within one block.
  ExecOutcome execute(KernelId k, Cycles now);

  /// Batched execution of a run of \p n back-to-back executions of \p k
  /// (contract of RuntimeSystem::execute_run). Executes events through the
  /// full execute() path until the kernel's decision is *steady* — its
  /// timeline holds no option arriving before the run's last execution and
  /// no monoCG transition is pending — then commits the remaining events in
  /// O(1): within one run no fabric mutation can occur (block execution is
  /// single threaded) and instance availability is monotone in time at a
  /// fixed fabric state, so the decided (kind, latency) provably repeats.
  /// Stats, ECU state, the returned cursor and any attached observability
  /// are bit-identical to n execute() calls: the committed executions add
  /// their counts and latencies to the counters and the latency histogram
  /// (Histogram::observe(value, n)), and record no trace event, as none of
  /// those n calls would (the decided kind is the one last traced and no
  /// timeline point is crossed).
  Cycles execute_run(KernelId k, Cycles cursor, const ExecEvent* events,
                     std::size_t n, Cycles gap_total,
                     std::uint64_t* impl_executions, Cycles* impl_cycles,
                     Cycles* first_exec_start);

  /// Whole-block batched execution (contract of
  /// RuntimeSystem::execute_events): one non-virtual loop over the block's
  /// runs. Every execution on the exact path (execute_run) derives a
  /// *steady-decision memo* ((kind, latency, uses_cg) plus the cycle horizon
  /// it provably holds to and the fabric state epoch it was taken at), also
  /// the last one of a run; later runs that fit the horizon at an unchanged
  /// epoch commit in O(1) — including the context-switch penalty of their
  /// first execution — without touching the timeline or the fabric. When
  /// \p obs carries chunk summaries (sim/schedule.h RunChunks), each chunk
  /// boundary commits the longest stretch of whole chunks, up to the next
  /// chunk that holds some kernel's first or last run of the block, in which
  /// every kernel has a memo at the current epoch and the cursor after the
  /// stretch is within the smallest of their horizons: O(kernels in the
  /// block) per binary-search step. Any epoch bump or horizon crossing falls
  /// back to the exact per-event path. Observed runs commit the same way
  /// (see execute_run).
  Cycles execute_events(const ExecEvent* events, const ExecRun* runs,
                        std::size_t num_runs, Cycles cursor,
                        std::uint64_t* impl_executions, Cycles* impl_cycles,
                        ObservationSink& obs);

  const EcuStats& stats() const { return stats_; }
  void reset();

  /// Block-boundary state capture/restore (rts/snapshot.h). Checkpoints are
  /// taken between blocks, where the only ECU state that can influence the
  /// remainder of the run is: the cumulative stats, each kernel's monoCG
  /// knowledge (mono_ready survives blocks — a loaded context may still be
  /// resident), the last ImplKind reported to the flight recorder (gates
  /// kEcuDecision emission, so the resumed trace suffix stays identical)
  /// and the last-executed kernel. Timelines/steady memos are *not* stored:
  /// restore marks every kernel needs-rebuild, and rebuilds are pure
  /// functions of (library, fabric state, now) — exactly how begin_block
  /// re-derives them in the uninterrupted run.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

  /// Attaches the flight recorder / counter registry (either may be null).
  /// Detached (the default) the per-execution instrumentation of execute()
  /// is a single test of the cached observing_ flag.
  void attach_observability(TraceRecorder* trace, CounterRegistry* counters) {
    trace_ = trace;
    counters_ = counters;
    observing_ = trace != nullptr || counters != nullptr;
  }

 private:
  template <typename Io, typename Self>
  static void walk(Io& io, Self& self);

  /// One point where a (possibly better) implementation becomes available.
  struct Option {
    Cycles at = 0;
    Cycles latency = 0;
    ImplKind kind = ImplKind::kRisc;
    bool uses_cg = false;
  };

  struct KernelState {
    std::vector<Option> timeline;  ///< sorted by `at`
    std::size_t next = 0;
    Cycles current_latency = 0;
    ImplKind current_kind = ImplKind::kRisc;
    bool current_uses_cg = false;
    bool mono_attempted = false;
    /// A full rebuild has run at least once (states live in a dense vector,
    /// so a default-constructed entry is not yet meaningful).
    bool built = false;
    Cycles mono_ready = kNeverCycles;
    /// Last ImplKind reported to the flight recorder (0xff = none yet);
    /// execute() emits a decision event only when the kind changes.
    std::uint8_t traced_impl = 0xff;
  };

  /// Steady-decision memo of one kernel (see execute_events): every
  /// execution of the kernel starting at or before \p until takes
  /// (kind, latency) while the fabric's state epoch is stamp - 1 (stamp 0 =
  /// no memo). The other fields are precomputed for the commit loops.
  struct SteadyMemo {
    std::uint64_t stamp = 0;
    Cycles until = 0;
    Cycles latency = 0;
    Cycles switch_cost = 0;     ///< paid by a run's first execution (on CG)
    Cycles saved = 0;           ///< saved_vs_risc of one execution
    Cycles saved_switched = 0;  ///< saved_vs_risc of one paying switch_cost
    ImplKind kind = ImplKind::kRisc;
  };

  /// Appends the availability steps of \p ise (levels reachable from the
  /// fabric's instance-ready times) to \p timeline.
  void append_ise_options(const IseVariant& ise, bool is_selected,
                          const std::vector<Cycles>* installed_prefix,
                          std::vector<Option>& timeline) const;

  KernelState& state_for(KernelId k, Cycles now);
  void rebuild_kernel(KernelId k, KernelState& st, const IsePlacement* placed,
                      Cycles now) const;
  /// Tries to derive kernel \p k's steady-decision memo (memo_) right after
  /// a full execution at cycle \p now. Returns false while the decision is
  /// still in flux (a monoCG acquisition attempt is due or a reservation is
  /// pending beyond \p now with no usable horizon).
  bool derive_steady(KernelId k, const Kernel& kernel, const KernelState& st,
                     Cycles now);
  /// Commits runs from \p r on through the steady memos — the longest
  /// stretch of whole chunks that fits at each chunk boundary, else run by
  /// run — until a run needs the exact path, and returns that run's index
  /// (\p num_runs when none does). Advances \p cursor. \p kCounting is
  /// counters_ != nullptr, fixed per call so the loop without counters
  /// carries no counter code.
  template <bool kCounting>
  std::size_t commit_steady(const ExecRun* runs, std::size_t num_runs,
                            std::size_t r, Cycles& cursor,
                            std::uint64_t* impl_executions, Cycles* impl_cycles,
                            ObservationSink& obs);
  /// Cold tail of execute(): records the decision event / counters. Kept out
  /// of the hot path so the untraced run pays one branch, not code bloat.
  void note_execution(KernelState& st, KernelId k, ImplKind kind,
                      Cycles latency, Cycles now);

  const IseLibrary* lib_;
  FabricManager* fabric_;
  Config config_;
  /// Per-data-path ready-time cache for timeline rebuilds, keyed on the
  /// fabric's state epoch (stamp stores epoch + 1; 0 = never filled). The
  /// epoch is monotone for the fabric's lifetime and an Ecu is bound to one
  /// fabric, so a stamp hit proves the cached times are current. Mutable:
  /// filled lazily from the const rebuild path.
  mutable std::vector<std::vector<Cycles>> ready_cache_;
  mutable std::vector<std::uint64_t> ready_stamp_;
  /// Per-call occurrence counters of append_ise_options (how many times a
  /// data path repeats within one ISE prefix), stamped per invocation so
  /// they never need clearing.
  mutable std::vector<unsigned> occurrence_;
  mutable std::vector<std::uint64_t> occurrence_stamp_;
  mutable std::uint64_t occurrence_call_ = 0;
  /// Dense per-kernel state, indexed by raw KernelId (kernel ids are dense
  /// 0..num_kernels-1 by construction of the ISE library). A vector keeps
  /// the per-execution lookup a single indexed load instead of a hash probe.
  std::vector<KernelState> state_;
  /// Steady memos, dense by raw KernelId like state_ but kept apart from it
  /// so the commit loops walk a compact table.
  std::vector<SteadyMemo> memo_;
  KernelId last_executed_ = kInvalidKernel;
  EcuStats stats_;
  TraceRecorder* trace_ = nullptr;
  CounterRegistry* counters_ = nullptr;
  bool observing_ = false;  ///< trace_ != nullptr || counters_ != nullptr
};

}  // namespace mrts
