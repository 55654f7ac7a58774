#pragma once
/// \file trace.h
/// Flight recorder for the run-time system: typed, sim-cycle-timestamped
/// events collected per simulator instance and exported after the run
/// (Chrome trace-event JSON for Perfetto/chrome://tracing, JSONL for
/// scripts). The paper's evaluation narrative (Figs. 1, 2, 7) is about
/// *when* things happen — reconfiguration completions, intermediate-ISE
/// upgrade points, monoCG bridging windows, MPU forecast drift — and this
/// layer makes those timelines inspectable instead of only end-of-run
/// aggregates.
///
/// Overhead contract: tracing is opt-in per component via a raw
/// `TraceRecorder*` that defaults to nullptr. Every instrumented site is
/// guarded by a single `if (trace_ != nullptr)` branch on that pointer, so a
/// simulation without an attached recorder pays one predicted-not-taken
/// branch per site and allocates nothing. Recorders are per simulator
/// instance (one per sweep point), never shared across threads — the same
/// sharing rule as every other mutable simulation object
/// (docs/ARCHITECTURE.md, "Parallel sweep engine").

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/counters.h"
#include "util/types.h"

namespace mrts {

class IseLibrary;

/// What happened. Kinds are stable identifiers: exporters write their
/// to_string() form, and trace-summary groups by it.
enum class TraceEventKind : std::uint8_t {
  kBlockBegin = 0,   ///< functional-block instance entered (arg0 = fb)
  kBlockEnd,         ///< block finished (arg0 = fb, duration = block cycles)
  kEcuDecision,      ///< ECU switched implementation for a kernel
                     ///< (arg0 = kernel, arg1 = ImplKind, v0 = latency)
  kEcuUpgrade,       ///< a better timeline option became available
                     ///< (arg0 = kernel, arg1 = ImplKind, v0 = latency)
  kMonoCgAttempt,    ///< ECU tried to realize a monoCG-Extension
                     ///< (arg0 = kernel, arg1 = 1 on success, v0 = ready)
  kSelectorEval,     ///< one profit evaluation (arg0 = kernel, arg1 = ise,
                     ///< v0 = profit)
  kSelectorPick,     ///< greedy round winner (arg0 = kernel, arg1 = ise,
                     ///< v0 = profit, v1 = round)
  kMpuError,         ///< forecast vs. observed executions per block instance
                     ///< (arg0 = fb, arg1 = kernel, v0 = predicted,
                     ///< v1 = observed)
  kReconfigStart,    ///< load scheduled on a port (arg0 = dp, arg1 = grain,
                     ///< duration = load cycles, track = container)
  kReconfigComplete, ///< load completion point (arg0 = dp, arg1 = grain)
  kReconfigCancel,   ///< pending loads evicted before start on one port
                     ///< (arg1 = grain of the port, v0 = count)
  kCgContextSwitch,  ///< CG context switch penalty paid (arg0 = dp,
                     ///< duration = switch cycles)
  kOccupancy,        ///< fabric occupancy sample after install
                     ///< (v0 = reserved PRCs, v1 = reserved CG fabrics)
  kFaultInject,      ///< injected fault detected (arg0 = dp, arg1 = grain,
                     ///< v0 = retry attempt for load faults, track = container)
  kReconfigRetry,    ///< failed load re-streamed after backoff (arg0 = dp,
                     ///< arg1 = retry number, duration = stream cycles)
  kQuarantine,       ///< container permanently disabled (arg0 = container
                     ///< index, arg1 = grain, track = container)
  kScrubRepair,      ///< scrubbing re-enqueued a repair load (arg0 = dp,
                     ///< arg1 = grain, v0 = repaired ready cycle)
  kTenantEviction,     ///< a placement destroyed another tenant's data path
                       ///< (arg0 = victim owner, arg1 = grain, v0 = evicting
                       ///< tenant, track = container)
  kTenantQuotaHit,     ///< eviction redirected onto an over-quota /
                       ///< best-effort tenant's coldest container (arg0 =
                       ///< redirected-to owner, arg1 = grain, v0 = requester)
  kTenantAdmission,    ///< scheduler admission decision for one task
                       ///< (arg0 = task index, arg1 = 1 admitted / 0 bounced,
                       ///< tenant = the tenant acting)
  kTenantCompletion,   ///< one task's admission-to-completion span
                       ///< (arg0 = task index, at = admission cycle,
                       ///< duration = latency, v0 = blocks completed)
  kMigrationStart,     ///< live migration drained the source and began the
                       ///< context copy (arg0 = dp, arg1 = grain,
                       ///< v0 = source container, v1 = destination,
                       ///< track = source container)
  kMigrationComplete,  ///< migrated context ready on the destination
                       ///< (arg0 = dp, arg1 = grain, duration = copy span,
                       ///< v0 = source, v1 = destination, track = dest)
  kSnapshotSave,       ///< whole-runtime checkpoint serialized
                       ///< (arg0 = snapshot sequence number; recorded before
                       ///< the image is built, so the snapshot contains its
                       ///< own marker and a restored run's trace matches the
                       ///< uninterrupted one byte for byte)
  kSnapshotRestore,    ///< runtime state restored from a snapshot
                       ///< (arg0 = snapshot sequence number, v0 = bytes;
                       ///< diagnostic only — never recorded into the resumed
                       ///< run's own trace, see rts/snapshot.h)
  kCoreSlice,          ///< one CMP scheduling turn of a core (sim/cmp.h):
                       ///< track = kTrackCoreBase + core, at/duration = slice
                       ///< span, arg0 = core, arg1 = blocks executed,
                       ///< v0 = interconnect transfer cycles inside the
                       ///< slice, v1 = reconfig-port wait charged after it
  kCoreTransfer,       ///< per-slice operand traffic between a core and the
                       ///< shared fabric (arg0 = core, arg1 = transfers,
                       ///< duration = total transfer cycles, v0 = hop
                       ///< distance). Only emitted when the core sits more
                       ///< than one hop out, so single-core / zero-extra-hop
                       ///< traces stay byte-identical to run_multi_tenant.
};
inline constexpr std::size_t kNumTraceEventKinds = 27;

const char* to_string(TraceEventKind kind);
std::optional<TraceEventKind> trace_kind_from_string(std::string_view name);

/// Rendering track of an event (maps to a Chrome trace `tid`). One track per
/// RTS unit plus one per PRC and per CG fabric.
inline constexpr std::int32_t kTrackApp = 0;       ///< block begin/end
inline constexpr std::int32_t kTrackEcu = 1;       ///< ECU decisions
inline constexpr std::int32_t kTrackSelector = 2;  ///< selector rounds
inline constexpr std::int32_t kTrackMpu = 3;       ///< forecast errors
inline constexpr std::int32_t kTrackFgBase = 100;  ///< + PRC index
inline constexpr std::int32_t kTrackCgBase = 200;  ///< + CG fabric index
inline constexpr std::int32_t kTrackCoreBase = 300;  ///< + CMP core index

std::string track_name(std::int32_t track);

/// One recorded event. Fixed-size POD — recording is a vector push_back,
/// no strings or allocations per event; ids resolve to names at export time.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kBlockBegin;
  std::int32_t track = kTrackApp;
  Cycles at = 0;        ///< start timestamp in core cycles
  Cycles duration = 0;  ///< span length in cycles; 0 = instant event
  std::uint32_t arg0 = 0;
  std::uint32_t arg1 = 0;
  double v0 = 0.0;
  double v1 = 0.0;
  /// Tenant on whose behalf the event happened (a raw TenantId; 0 =
  /// unowned/single-app). Sites that know the acting tenant stamp it
  /// explicitly; everything else inherits the recorder's default tenant,
  /// so per-task recorders in multi-tenant runs attribute every event.
  std::uint32_t tenant = 0;
};

/// Per-simulator event sink. Not thread-safe by design: one recorder per
/// sweep point / simulator instance (see file header).
class TraceRecorder {
 public:
  /// Appends one event. Deliberately out of line: instrumented hot loops
  /// stay small (a pointer test + call on the traced path, just the test
  /// when detached) instead of inlining vector growth machinery per site.
  /// Events arriving with tenant == 0 are stamped with the default tenant.
  void record(const TraceEvent& event);

  /// Tenant attributed to events that are recorded without an explicit
  /// tenant stamp (tenant-bound MRts instances set this on attach).
  void set_default_tenant(std::uint32_t tenant) { default_tenant_ = tenant; }
  std::uint32_t default_tenant() const { return default_tenant_; }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }

  /// Number of events of one kind (convenience for tests/summaries).
  std::size_t count(TraceEventKind kind) const;

 private:
  std::vector<TraceEvent> events_;
  std::uint32_t default_tenant_ = 0;
};

/// Sim-cycle timestamp -> microseconds for the Chrome `ts`/`dur` fields
/// (core clock 400 MHz: 1 cycle = 0.0025 us).
double trace_cycles_to_us(Cycles c);

/// Writes the events as Chrome trace-event JSON (the "JSON Object Format":
/// {"traceEvents":[...]}). Loads directly in Perfetto and chrome://tracing.
/// Spans become "X" complete events, instants "i", occupancy samples "C"
/// counter events; metadata events name the process and every track. \p lib
/// (optional) resolves kernel/ISE/data-path ids to their library names.
void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events,
                        const IseLibrary* lib = nullptr);

/// Writes one flat JSON object per line ("kind", "at", "dur", "track",
/// "arg0", "arg1", "v0", "v1", optional "label") for scripted analysis.
void write_trace_jsonl(std::ostream& os, const std::vector<TraceEvent>& events,
                       const IseLibrary* lib = nullptr);

/// File convenience wrappers; return false when the file cannot be opened.
bool write_chrome_trace_file(const std::string& path,
                             const std::vector<TraceEvent>& events,
                             const IseLibrary* lib = nullptr);
bool write_trace_jsonl_file(const std::string& path,
                            const std::vector<TraceEvent>& events,
                            const IseLibrary* lib = nullptr);

/// Parses one JSONL line produced by write_trace_jsonl (labels are ignored;
/// they are derived data). nullopt on malformed input: a line that is not
/// one brace-closed object, an unknown or unquoted kind, a missing "at", a
/// numeric field that holds no plain decimal number (or, for v0/v1, no
/// finite one), a minus sign on an unsigned field, a value wider than its
/// field, or an event whose at + dur overflows 64 bits. Fields other than
/// kind and at may be absent ("tenant" is, in traces written before it).
std::optional<TraceEvent> parse_trace_jsonl_line(const std::string& line);

/// A whole JSONL trace read into memory — the reusable event stream behind
/// `mrts_cli trace-analyze` and the obs/ analysis engine. Reading stops at
/// the first malformed non-empty line (`bad_line`, 1-based, names it; 0 =
/// none). An empty stream, blank lines and a trailing newline are all fine
/// and yield zero events with ok() == true; a truncated last line (e.g. a
/// crash mid-write) is a parse error, never a crash.
struct ParsedTrace {
  std::vector<TraceEvent> events;
  std::size_t lines = 0;     ///< lines consumed, including blank ones
  std::size_t bad_line = 0;  ///< 1-based first malformed line; 0 = none
  bool ok() const { return bad_line == 0; }
};

ParsedTrace parse_trace_jsonl(std::istream& in);

/// Aggregate of a JSONL trace stream (the `mrts_cli trace-summary` verb).
struct TraceSummary {
  std::size_t total_events = 0;
  std::size_t parse_errors = 0;  ///< non-empty lines that failed to parse
  std::size_t first_bad_line = 0;  ///< 1-based; 0 = no parse errors
  std::size_t per_kind[kNumTraceEventKinds] = {};
  Cycles first_cycle = kNeverCycles;  ///< kNeverCycles when no events
  Cycles last_cycle = 0;              ///< end of the latest span
  /// Durations of all span events (duration > 0), for the p50/p90/p99 line
  /// of `trace-summary`.
  Histogram span_durations;
};

TraceSummary summarize_trace_jsonl(std::istream& in);

}  // namespace mrts
