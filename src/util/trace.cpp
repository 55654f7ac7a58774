#include "util/trace.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "isa/ise_library.h"
#include "util/number_text.h"

namespace mrts {
namespace {

constexpr std::array<const char*, kNumTraceEventKinds> kKindNames = {
    "block_begin",     "block_end",         "ecu_decision",
    "ecu_upgrade",     "mono_cg_attempt",   "selector_eval",
    "selector_pick",   "mpu_error",         "reconfig_start",
    "reconfig_complete", "reconfig_cancel", "cg_context_switch",
    "occupancy",
    // Fault-injection kinds use the dotted counter-style names so the
    // trace-summary table matches the counter names one-to-one.
    "fault.inject",    "reconfig.retry",    "prc.quarantined",
    "scrub.repair",
    // Multi-tenant arbitration kinds (dotted, matching their counters).
    "tenant.eviction", "tenant.quota_hit",
    // Scheduler admission/completion timestamps (dotted, matching their
    // counters) — the raw material of the per-tenant latency percentiles in
    // obs/run_report.h.
    "tenant.admitted", "tenant.completed",
    // Migration + checkpoint/restore kinds (dotted, matching their
    // counters): the robustness timeline of defragmentation passes and
    // crash-resilient runs.
    "migration.start", "migration.complete",
    "snapshot.save",   "snapshot.restore",
    // CMP scheduler kinds (sim/cmp.h): per-core slices and operand traffic
    // to the shared fabric over the interconnect.
    "core.slice",      "core.transfer",
};

/// Must match ImplKind in rts/rts_interface.h (util cannot include rts
/// headers without inverting the layering); tests/test_trace.cpp pins the
/// correspondence against to_string(ImplKind).
constexpr std::array<const char*, 5> kImplKindNames = {
    "RISC", "monoCG", "intermediate", "full-ISE", "covered-ISE"};

const char* impl_kind_name(std::uint32_t kind) {
  return kind < kImplKindNames.size() ? kImplKindNames[kind] : "?";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Doubles print by util/number_text.h's rule; JSON has no inf/nan
/// literals, so those print as 0.
NumberText format_double(double v) {
  return NumberText(std::isfinite(v) ? v : 0.0);
}

std::string kernel_name(const IseLibrary* lib, std::uint32_t k) {
  if (lib != nullptr && k < lib->num_kernels()) {
    return lib->kernel(KernelId{k}).name;
  }
  return "kernel" + std::to_string(k);
}

std::string ise_name(const IseLibrary* lib, std::uint32_t id) {
  if (lib != nullptr && id < lib->num_ises()) return lib->ise(IseId{id}).name;
  return "ise" + std::to_string(id);
}

std::string dp_name(const IseLibrary* lib, std::uint32_t id) {
  if (lib != nullptr && id < lib->data_paths().size()) {
    return lib->data_paths()[DataPathId{id}].name;
  }
  return "dp" + std::to_string(id);
}

/// Human-readable event label for both exporters.
std::string event_label(const TraceEvent& e, const IseLibrary* lib) {
  switch (e.kind) {
    case TraceEventKind::kBlockBegin:
    case TraceEventKind::kBlockEnd:
      return "FB" + std::to_string(e.arg0);
    case TraceEventKind::kEcuDecision:
    case TraceEventKind::kEcuUpgrade:
      return kernel_name(lib, e.arg0) + ": " + impl_kind_name(e.arg1);
    case TraceEventKind::kMonoCgAttempt:
      return kernel_name(lib, e.arg0) +
             (e.arg1 != 0 ? ": monoCG acquired" : ": monoCG unavailable");
    case TraceEventKind::kSelectorEval:
    case TraceEventKind::kSelectorPick:
      return kernel_name(lib, e.arg0) + "/" + ise_name(lib, e.arg1);
    case TraceEventKind::kMpuError:
      return kernel_name(lib, e.arg1);
    case TraceEventKind::kReconfigStart:
    case TraceEventKind::kReconfigComplete:
    case TraceEventKind::kCgContextSwitch:
      return dp_name(lib, e.arg0);
    case TraceEventKind::kReconfigCancel:
      return "cancelled loads";
    case TraceEventKind::kOccupancy:
      return "fabric occupancy";
    case TraceEventKind::kFaultInject:
      return dp_name(lib, e.arg0) + ": fault injected";
    case TraceEventKind::kReconfigRetry:
      return dp_name(lib, e.arg0) + ": retry " + std::to_string(e.arg1);
    case TraceEventKind::kQuarantine:
      return (e.arg1 == static_cast<std::uint32_t>(Grain::kFine)
                  ? "PRC "
                  : "CG fabric ") +
             std::to_string(e.arg0) + " quarantined";
    case TraceEventKind::kScrubRepair:
      return dp_name(lib, e.arg0) + ": scrub repair";
    case TraceEventKind::kTenantEviction:
      return "tenant " + std::to_string(static_cast<std::uint64_t>(e.v0)) +
             " evicted tenant " + std::to_string(e.arg0);
    case TraceEventKind::kTenantQuotaHit:
      return "eviction redirected onto over-quota tenant " +
             std::to_string(e.arg0);
    case TraceEventKind::kTenantAdmission:
      return "task " + std::to_string(e.arg0) +
             (e.arg1 != 0 ? " admitted" : " bounced");
    case TraceEventKind::kTenantCompletion:
      return "task " + std::to_string(e.arg0) + " completed";
    case TraceEventKind::kMigrationStart:
    case TraceEventKind::kMigrationComplete: {
      const char* unit =
          e.arg1 == static_cast<std::uint32_t>(Grain::kFine) ? "PRC"
                                                             : "CG fabric";
      return dp_name(lib, e.arg0) + ": " + unit + " " +
             std::to_string(static_cast<std::uint64_t>(e.v0)) + " -> " +
             std::to_string(static_cast<std::uint64_t>(e.v1));
    }
    case TraceEventKind::kSnapshotSave:
      return "checkpoint #" + std::to_string(e.arg0) + " saved";
    case TraceEventKind::kSnapshotRestore:
      return "checkpoint #" + std::to_string(e.arg0) + " restored";
    case TraceEventKind::kCoreSlice:
      return "core " + std::to_string(e.arg0) + ": " +
             std::to_string(e.arg1) + " block(s)";
    case TraceEventKind::kCoreTransfer:
      return "core " + std::to_string(e.arg0) + ": " +
             std::to_string(e.arg1) + " transfer(s)";
  }
  return "?";
}

}  // namespace

const char* to_string(TraceEventKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kKindNames.size() ? kKindNames[i] : "?";
}

std::optional<TraceEventKind> trace_kind_from_string(std::string_view name) {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (name == kKindNames[i]) return static_cast<TraceEventKind>(i);
  }
  return std::nullopt;
}

std::string track_name(std::int32_t track) {
  switch (track) {
    case kTrackApp: return "application";
    case kTrackEcu: return "ECU decisions";
    case kTrackSelector: return "ISE selector";
    case kTrackMpu: return "MPU forecasts";
    default: break;
  }
  if (track >= kTrackCoreBase) {
    return "core " + std::to_string(track - kTrackCoreBase);
  }
  if (track >= kTrackCgBase) {
    return "CG fabric " + std::to_string(track - kTrackCgBase);
  }
  if (track >= kTrackFgBase) {
    return "PRC " + std::to_string(track - kTrackFgBase);
  }
  return "track " + std::to_string(track);
}

void TraceRecorder::record(const TraceEvent& event) {
  events_.push_back(event);
  if (event.tenant == 0 && default_tenant_ != 0) {
    events_.back().tenant = default_tenant_;
  }
}

std::size_t TraceRecorder::count(TraceEventKind kind) const {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

double trace_cycles_to_us(Cycles c) {
  return static_cast<double>(c) / kCoreClockHz * 1.0e6;
}

void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events,
                        const IseLibrary* lib) {
  os << "{\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"mRTS simulation\"}}";

  // Name every track that appears; sort index keeps the RTS tracks on top
  // and the fabric tracks grouped below.
  std::set<std::int32_t> tracks;
  for (const auto& e : events) tracks.insert(e.track);
  for (std::int32_t t : tracks) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t
       << ",\"args\":{\"name\":\"" << json_escape(track_name(t)) << "\"}}";
    os << ",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << t << ",\"args\":{\"sort_index\":" << t << "}}";
  }

  for (const auto& e : events) {
    const std::string label = json_escape(event_label(e, lib));
    const NumberText ts = format_double(trace_cycles_to_us(e.at));
    os << ",\n";
    if (e.kind == TraceEventKind::kOccupancy) {
      // Counter track: Perfetto renders it as a stacked area chart.
      os << "{\"name\":\"" << label << "\",\"cat\":\"" << to_string(e.kind)
         << "\",\"ph\":\"C\",\"pid\":1,\"ts\":" << ts
         << ",\"args\":{\"reserved_prcs\":" << format_double(e.v0)
         << ",\"reserved_cg\":" << format_double(e.v1) << "}}";
      continue;
    }
    os << "{\"name\":\"" << label << "\",\"cat\":\"" << to_string(e.kind)
       << "\",\"pid\":1,\"tid\":" << e.track << ",\"ts\":" << ts;
    if (e.duration > 0) {
      os << ",\"ph\":\"X\",\"dur\":" << format_double(trace_cycles_to_us(e.duration));
    } else {
      os << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    os << ",\"args\":{\"at_cycles\":" << e.at << ",\"arg0\":" << e.arg0
       << ",\"arg1\":" << e.arg1 << ",\"tenant\":" << e.tenant
       << ",\"v0\":" << format_double(e.v0)
       << ",\"v1\":" << format_double(e.v1) << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_trace_jsonl(std::ostream& os, const std::vector<TraceEvent>& events,
                       const IseLibrary* lib) {
  for (const auto& e : events) {
    os << "{\"kind\":\"" << to_string(e.kind) << "\",\"at\":" << e.at
       << ",\"dur\":" << e.duration << ",\"track\":" << e.track
       << ",\"arg0\":" << e.arg0 << ",\"arg1\":" << e.arg1
       << ",\"tenant\":" << e.tenant
       << ",\"v0\":" << format_double(e.v0) << ",\"v1\":" << format_double(e.v1)
       << ",\"label\":\"" << json_escape(event_label(e, lib)) << "\"}\n";
  }
}

bool write_chrome_trace_file(const std::string& path,
                             const std::vector<TraceEvent>& events,
                             const IseLibrary* lib) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os, events, lib);
  return static_cast<bool>(os);
}

bool write_trace_jsonl_file(const std::string& path,
                            const std::vector<TraceEvent>& events,
                            const IseLibrary* lib) {
  std::ofstream os(path);
  if (!os) return false;
  write_trace_jsonl(os, events, lib);
  return static_cast<bool>(os);
}

namespace {

/// The raw value after `"key":` in a flat one-line JSON object, blanks
/// around it trimmed: a string keeps its quotes (an unterminated one runs to
/// the end of the line), anything else runs to the next ',' or '}'.
/// nullopt when the key is absent.
std::optional<std::string_view> json_value(std::string_view line,
                                           std::string_view key) {
  for (std::size_t pos = line.find(key); pos != std::string_view::npos;
       pos = line.find(key, pos + 1)) {
    const std::size_t after = pos + key.size();
    if (pos == 0 || line[pos - 1] != '"' ||
        line.compare(after, 2, "\":") != 0) {
      continue;
    }
    const std::size_t begin = after + 2;
    std::size_t end = begin;
    if (begin < line.size() && line[begin] == '"') {
      for (++end; end < line.size() && line[end] != '"'; ++end) {
        if (line[end] == '\\') ++end;  // skip the escaped char
      }
      end = std::min(end + 1, line.size());  // past the closing quote
    } else {
      while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    }
    std::string_view value = line.substr(begin, end - begin);
    const std::size_t first = value.find_first_not_of(" \t");
    if (first == std::string_view::npos) return std::string_view();
    value = value.substr(first);
    return value.substr(0, value.find_last_not_of(" \t") + 1);
  }
  return std::nullopt;
}

/// Parses \p value into \p out: for an integer type, decimal digits (a
/// minus sign only when the type is signed) of a value the type holds; for
/// double, a finite number. Nothing may follow the number.
template <typename T>
bool parse_number(std::string_view value, T& out) {
  const char* const end = value.data() + value.size();
  T parsed{};
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(parsed)) return false;
  }
  out = parsed;
  return true;
}

/// Reads field \p key of \p line into \p out when present; false when it is
/// present but not a number that parse_number accepts.
template <typename T>
bool read_field(std::string_view line, std::string_view key, T& out) {
  const std::optional<std::string_view> value = json_value(line, key);
  return !value || parse_number(*value, out);
}

}  // namespace

std::optional<TraceEvent> parse_trace_jsonl_line(const std::string& line) {
  // A truncated write can leave a prefix whose kind/at tokens still parse;
  // requiring the object's braces catches lines cut off mid-token.
  const auto first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] != '{') return std::nullopt;
  const auto last = line.find_last_not_of(" \t\r");
  if (line[last] != '}') return std::nullopt;
  const std::optional<std::string_view> kind_value = json_value(line, "kind");
  if (!kind_value || kind_value->size() < 2 || kind_value->front() != '"' ||
      kind_value->back() != '"') {
    return std::nullopt;
  }
  const auto kind =
      trace_kind_from_string(kind_value->substr(1, kind_value->size() - 2));
  const std::optional<std::string_view> at_value = json_value(line, "at");
  if (!kind || !at_value) return std::nullopt;

  TraceEvent e;
  e.kind = *kind;
  // Every other field is optional ("tenant" so traces written before it
  // existed still parse), but one that is present must fit its type.
  if (!parse_number(*at_value, e.at) || !read_field(line, "dur", e.duration) ||
      !read_field(line, "track", e.track) ||
      !read_field(line, "arg0", e.arg0) || !read_field(line, "arg1", e.arg1) ||
      !read_field(line, "tenant", e.tenant) || !read_field(line, "v0", e.v0) ||
      !read_field(line, "v1", e.v1)) {
    return std::nullopt;
  }
  if (e.duration > std::numeric_limits<Cycles>::max() - e.at) {
    return std::nullopt;  // the event would end past the last cycle
  }
  return e;
}

ParsedTrace parse_trace_jsonl(std::istream& in) {
  ParsedTrace parsed;
  std::string line;
  while (std::getline(in, line)) {
    ++parsed.lines;
    if (line.empty()) continue;  // blank line / trailing newline
    auto event = parse_trace_jsonl_line(line);
    if (!event) {
      parsed.bad_line = parsed.lines;
      break;
    }
    parsed.events.push_back(*event);
  }
  return parsed;
}

TraceSummary summarize_trace_jsonl(std::istream& in) {
  TraceSummary summary;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto event = parse_trace_jsonl_line(line);
    if (!event) {
      ++summary.parse_errors;
      if (summary.first_bad_line == 0) summary.first_bad_line = line_number;
      continue;
    }
    ++summary.total_events;
    ++summary.per_kind[static_cast<std::size_t>(event->kind)];
    if (event->at < summary.first_cycle) summary.first_cycle = event->at;
    if (event->at + event->duration > summary.last_cycle) {
      summary.last_cycle = event->at + event->duration;
    }
    if (event->duration > 0) {
      summary.span_durations.observe(static_cast<double>(event->duration));
    }
  }
  return summary;
}

}  // namespace mrts
