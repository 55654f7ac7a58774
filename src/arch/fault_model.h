#pragma once
/// \file fault_model.h
/// Deterministic fault injection for the reconfigurable fabric. Real FG/CG
/// fabrics fail in three characteristic ways, and each maps to one axis of
/// this model:
///
///  (a) bitstream/context *load failures*: a streamed partial bitstream is
///      corrupted in flight and the CRC check at completion rejects it. The
///      reconfiguration controller retries the stream (bounded attempts,
///      exponential cycle backoff on the port); when the retry budget is
///      exhausted the data path stays unloadable for that selection round.
///  (b) *transient configuration upsets* (SEU-style bit flips) in loaded
///      PRCs / resident CG contexts: a periodic scrubbing pass detects them
///      and re-enqueues a repair load, during which the affected ISE
///      degrades to its best intermediate implementation (ECU ladder).
///  (c) *permanent container faults* that quarantine a PRC or CG fabric:
///      its capacity disappears, the selector re-plans with the reduced
///      budget and the FabricManager never places data paths there again.
///
/// Everything is driven by one util/rng generator seeded from the config, so
/// a given (seed, rate) pair reproduces the identical fault timeline — the
/// same determinism contract as the workload models. The model is consumed
/// in simulator call order by exactly one FabricManager; like every other
/// mutable simulation object it is per sweep point, and the library is
/// single-threaded (docs/ARCHITECTURE.md, "Threading").

#include <cstdint>

#include "util/rng.h"
#include "util/types.h"

namespace mrts {

class SnapshotWriter;
class SnapshotReader;

/// Probabilities and policy knobs of the injector. All probabilities are
/// per-event Bernoulli parameters in [0, 1]; the default config injects
/// nothing (any_faults() == false), which is the zero-overhead fast path.
struct FaultModelConfig {
  std::uint64_t seed = 0x5eedull;
  /// P(one FG bitstream streaming attempt fails its CRC check).
  double fg_load_failure_prob = 0.0;
  /// P(one CG context streaming attempt fails its CRC check).
  double cg_load_failure_prob = 0.0;
  /// P(a loaded container suffers a configuration upset during one scrub
  /// epoch) — evaluated per occupied PRC / resident CG context per epoch.
  double transient_upset_prob = 0.0;
  /// P(an injected fault is permanent), evaluated at each detection point:
  /// a permanent fault quarantines the container instead of being repaired.
  double permanent_fault_prob = 0.0;
  /// Failed loads are retried at most this many times before the data path
  /// is declared unloadable for the selection round.
  unsigned max_retries = 3;
  /// Port backoff before the first retry; doubles with every further retry
  /// (10 us at the 400 MHz core clock).
  Cycles retry_backoff_cycles = 4000;
  /// Period of the configuration scrubbing pass (5 ms at 400 MHz). 0
  /// disables scrubbing (upsets are then never injected).
  Cycles scrub_interval_cycles = 2'000'000;

  /// True when any probability axis can fire. A FabricManager without an
  /// attached model — or with an all-zero config — behaves exactly like the
  /// fault-free machine.
  bool any_faults() const {
    return fg_load_failure_prob > 0.0 || cg_load_failure_prob > 0.0 ||
           transient_upset_prob > 0.0;
  }

  /// One-knob config for sweeps: \p rate drives every probability axis
  /// (load failures on both ports, upsets, permanence). At rate 1.0 every
  /// load fails and every detection quarantines — the machine degrades to
  /// pure RISC execution.
  static FaultModelConfig uniform(double rate, std::uint64_t seed,
                                  unsigned max_retries = 3);
};

/// Outcome of planning one (possibly retried) load stream.
struct LoadFaultOutcome {
  bool success = true;     ///< the final attempt passed its CRC check
  unsigned retries = 0;    ///< failed attempts that were retried
  Cycles port_cycles = 0;  ///< total port occupancy incl. retries + backoff
  /// The exhausted load was diagnosed as a permanent container fault; the
  /// caller must quarantine the target container.
  bool quarantine = false;
};

/// Cumulative injection statistics since construction.
struct FaultStats {
  std::uint64_t injected = 0;         ///< faults of any kind injected
  std::uint64_t load_failures = 0;    ///< CRC-rejected streaming attempts
  std::uint64_t retries = 0;          ///< retry streams scheduled
  std::uint64_t failed_loads = 0;     ///< loads abandoned after max_retries
  std::uint64_t transient_upsets = 0; ///< upsets caught by scrubbing
  std::uint64_t scrub_repairs = 0;    ///< repair loads enqueued by scrubbing
  std::uint64_t quarantined_prcs = 0;
  std::uint64_t quarantined_cg = 0;
};

/// The seeded injector. Pure decision logic: it owns no fabric state — the
/// FabricManager asks it what happens and applies the consequences (retry
/// timing, eviction, quarantine) itself.
class FaultModel {
 public:
  explicit FaultModel(const FaultModelConfig& config);

  const FaultModelConfig& config() const { return config_; }

  /// Plans one load stream of nominal \p duration cycles for a container of
  /// grain \p grain: draws per-attempt CRC failures until an attempt
  /// succeeds or max_retries is exhausted, and accounts the total port time
  /// (every attempt streams the full bitstream; retries pay backoff first).
  LoadFaultOutcome plan_load(Grain grain, Cycles duration);

  /// One Bernoulli upset draw for a loaded container during one scrub epoch.
  bool upset();

  /// Whether a just-detected fault is permanent (container quarantine).
  bool permanent();

  /// Port backoff before retry number \p retry (0-based): exponential,
  /// shift-clamped so it never overflows.
  Cycles backoff(unsigned retry) const;

  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

  /// Captures/restores the RNG stream position and the cumulative stats so
  /// a restored run draws exactly the faults the uninterrupted one would
  /// have, and its final fault table resumes from the checkpointed values
  /// (rts/snapshot.h). The config itself travels in the snapshot meta
  /// header — the restoring process reconstructs the model from it first.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  FaultModelConfig config_;
  Rng rng_;
  FaultStats stats_;
};

}  // namespace mrts
