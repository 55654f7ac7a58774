#pragma once
/// \file snapshot.h
/// Whole-runtime checkpoint/restore for crash-resilient runs (format
/// `mrts.snapshot.v2`). A snapshot captures everything that determines the
/// remainder of an mRTS application run: the run's identity (workload,
/// fabric shape, fault config — the meta header), the application progress
/// (next block, cycle cursor, partial aggregates), the complete MRts state
/// (fabric placement + port backlogs + quarantine set, fault RNG/stats, MPU
/// forecasts, ECU state, run stats, lookahead predictor) and — when the run
/// is observed — the flight-recorder events and counter values accumulated
/// so far. Restoring into a fresh process resumes the run *bit-identically*:
/// cycles, counters, fault tables and the trace suffix all match the
/// uninterrupted run (tests/test_snapshot.cpp pins this).
///
/// File layout (all little-endian):
///   [0..8)   magic "MRTSSNAP"
///   [8..12)  u32 format version (2; version 1 images, written before the
///            selector.cache trace kind was removed, are rejected)
///   [12..20) u64 payload size in bytes
///   [20..24) u32 CRC-32 (IEEE) of the payload
///   [24.. )  payload: meta, progress, MRts state, observability streams
///
/// Integrity contract: the CRC is validated over the *whole* payload before
/// any runtime object is touched, so truncated/corrupt bytes can never
/// partially mutate a live runtime — they fail in read_snapshot_meta /
/// apply_snapshot with a SnapshotError naming the offending byte offset
/// (util/snapshot_io.h), which the CLI maps to exit code 2.

#include <cstdint>
#include <string>
#include <vector>

#include "arch/fault_model.h"
#include "sim/app_simulator.h"
#include "util/types.h"

namespace mrts {

class MRts;
class TraceRecorder;
class CounterRegistry;

/// Everything needed to rebuild the run before state can be applied: the
/// restoring process constructs the workload, the MRts (same fabric shape
/// and fault config) and the observability streams from this header, then
/// calls apply_snapshot. Decodable without any runtime via
/// read_snapshot_meta — cheap enough for `mrts_cli restore` to bootstrap
/// from the file alone.
struct CheckpointMeta {
  std::string app;            ///< workload builder ("h264" | "sdr")
  std::uint32_t prcs = 0;     ///< FG fabric shape
  std::uint32_t cg = 0;       ///< number of CG fabrics
  std::uint32_t frames = 0;   ///< frames/bursts of the workload builder
  FaultModelConfig fault;     ///< reconstructs the injector (seed included)
  std::string trace_path;     ///< --trace of the original run ("" = none)
  std::string report_path;    ///< --report of the original run ("" = none)
  /// Periodic-checkpoint cadence of the original run in cycles (0 = the
  /// snapshot came from a one-shot `checkpoint` invocation). A restored run
  /// keeps checkpointing on the same absolute-cycle grid, so a run that is
  /// killed and restored repeatedly still converges to the same end state.
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_path;  ///< file the periodic snapshots overwrite
  std::uint64_t sequence = 0;   ///< ordinal of this snapshot within the run
};

/// Serializes the complete runtime into an `mrts.snapshot.v2` byte image.
/// \p recorder / \p counters may be null for unobserved runs (their absence
/// is recorded; apply_snapshot then requires null streams too).
std::vector<std::uint8_t> build_snapshot(const CheckpointMeta& meta,
                                         const MRts& rts,
                                         const AppRunProgress& progress,
                                         const TraceRecorder* recorder,
                                         const CounterRegistry* counters);

/// Validates magic/version/size/CRC and decodes the meta header only.
/// Throws SnapshotError (with the failing offset) on any malformation.
CheckpointMeta read_snapshot_meta(const std::vector<std::uint8_t>& bytes);

/// Full restore: validates the image exactly like read_snapshot_meta, then
/// loads progress, MRts state and the observability streams. \p rts must
/// have been constructed to the meta's shape (fabric size, fault config) —
/// mismatches throw SnapshotError. \p marker (optional, normally null)
/// receives one kSnapshotRestore event; the *resumed* recorder deliberately
/// gets no marker, so a restored run's trace stays byte-identical to the
/// uninterrupted one.
void apply_snapshot(const std::vector<std::uint8_t>& bytes, MRts& rts,
                    AppRunProgress& progress, TraceRecorder* recorder,
                    CounterRegistry* counters,
                    TraceRecorder* marker = nullptr);

/// Atomically writes \p bytes to \p path (temp file + rename), so a crash
/// mid-checkpoint can never leave a half-written snapshot behind.
bool write_snapshot_file(const std::string& path,
                         const std::vector<std::uint8_t>& bytes);

/// Reads a snapshot file whole. Returns false (with \p error set) when the
/// file cannot be opened/read; content validation happens in
/// read_snapshot_meta / apply_snapshot.
bool read_snapshot_file(const std::string& path,
                        std::vector<std::uint8_t>* bytes, std::string* error);

}  // namespace mrts
