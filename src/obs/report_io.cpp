#include "obs/report_io.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <string_view>
#include <type_traits>

#include "util/number_text.h"

namespace mrts::obs {
namespace {

/// Doubles print by util/number_text.h's rule, like the JSONL trace writer;
/// JSON has no inf/nan literals, so those print as 0.
NumberText fmt(double v) { return NumberText(std::isfinite(v) ? v : 0.0); }

/// Append-only text buffer with stream-style insertion: text verbatim,
/// integers through std::to_chars (the same digits an ostream prints),
/// doubles as fmt() printed them.
/// The JSON writer renders a whole report into one of these.
class TextOut {
 public:
  explicit TextOut(std::size_t capacity) { text_.reserve(capacity); }

  TextOut& operator<<(std::string_view text) {
    text_.append(text);
    return *this;
  }
  TextOut& operator<<(const NumberText& number) {
    text_.append(number.view());
    return *this;
  }
  template <typename T>
    requires std::is_integral_v<T> && (!std::is_same_v<T, char>) &&
             (!std::is_same_v<T, bool>)
  TextOut& operator<<(T value) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    text_.append(buf, res.ptr);
    return *this;
  }

  std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

void json_row(TextOut& os, const AccountingRow& row, const char* label,
              const char* indent) {
  os << indent << "{\"" << label << "\":\"" << row.key << "\"";
  for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
    os << ",\"" << to_string(static_cast<CycleBucket>(b))
       << "\":" << row.cycles[b];
  }
  os << ",\"total\":" << row.total() << "}";
}

void json_histogram(TextOut& os, const Histogram& h) {
  os << "{\"count\":" << h.count() << ",\"mean\":" << fmt(h.mean())
     << ",\"p50\":" << fmt(h.percentile(0.50))
     << ",\"p90\":" << fmt(h.percentile(0.90))
     << ",\"p99\":" << fmt(h.percentile(0.99)) << ",\"min\":" << fmt(h.min())
     << ",\"max\":" << fmt(h.max()) << "}";
}

}  // namespace

std::string report_json(const RunReport& r) {
  TextOut os(4096);  // a one-tenant report is about 2 KiB
  os << "{\n";
  os << "  \"schema\": \"mrts.run_report.v1\",\n";
  os << "  \"events\": " << r.total_events << ",\n";
  os << "  \"shape\": {\"num_prcs\": " << r.shape.num_prcs
     << ", \"num_cg\": " << r.shape.num_cg << "},\n";
  os << "  \"span\": {\"begin\": " << r.shape.span_begin
     << ", \"end\": " << r.shape.span_end
     << ", \"cycles\": " << r.shape.span() << "},\n";

  os << "  \"accounting\": {\n";
  os << "    \"core\": ";
  json_row(os, r.accounting.core, "row", "");
  os << ",\n    \"tenants\": [";
  for (std::size_t i = 0; i < r.accounting.tenants.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    json_row(os, r.accounting.tenants[i], "row", "      ");
  }
  os << (r.accounting.tenants.empty() ? "" : "\n    ") << "],\n";
  os << "    \"units\": [";
  for (std::size_t i = 0; i < r.accounting.units.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    json_row(os, r.accounting.units[i], "row", "      ");
  }
  os << (r.accounting.units.empty() ? "" : "\n    ") << "]";
  // CMP per-core rows exist only for run_cmp traces; the key is omitted
  // entirely otherwise so single-core reports stay byte-identical.
  if (!r.accounting.cores.empty()) {
    os << ",\n    \"cores\": [";
    for (std::size_t i = 0; i < r.accounting.cores.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n");
      json_row(os, r.accounting.cores[i], "row", "      ");
    }
    os << "\n    ]";
  }
  os << "\n  },\n";

  os << "  \"occupancy\": {\n";
  os << "    \"fg_utilization\": " << fmt(r.occupancy.fg_utilization) << ",\n";
  os << "    \"cg_utilization\": " << fmt(r.occupancy.cg_utilization) << ",\n";
  os << "    \"fragmentation_index\": " << fmt(r.occupancy.fragmentation_index)
     << ",\n";
  os << "    \"compaction_opportunity\": "
     << fmt(r.occupancy.compaction_opportunity) << ",\n";
  os << "    \"units\": [";
  for (std::size_t i = 0; i < r.occupancy.units.size(); ++i) {
    const UnitTimeline& tl = r.occupancy.units[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "      {\"unit\":\"" << tl.name
       << "\",\"utilization\":" << fmt(tl.utilization)
       << ",\"intervals\":" << tl.intervals.size();
    for (std::size_t s = 0; s < kNumUnitStates; ++s) {
      os << ",\"" << to_string(static_cast<UnitState>(s))
         << "\":" << tl.state_cycles[s];
    }
    os << "}";
  }
  os << (r.occupancy.units.empty() ? "" : "\n    ") << "]\n";
  os << "  },\n";

  const CriticalPathAnalysis& cp = r.critical_path;
  os << "  \"critical_path\": {\n";
  os << "    \"chains\": " << cp.chains.size() << ",\n";
  os << "    \"longest_chain_hops\": " << cp.longest_chain_hops << ",\n";
  os << "    \"longest_chain_cycles\": " << cp.longest_chain_cycles << ",\n";
  os << "    \"longest_chain_grain\": \"" << to_string(cp.longest_chain_grain)
     << "\",\n";
  os << "    \"reconfig_busy_cycles\": " << cp.reconfig_busy << ",\n";
  os << "    \"core_stall_cycles\": " << cp.core_stall << ",\n";
  os << "    \"hidden_fraction\": " << fmt(cp.hidden_fraction) << ",\n";
  os << "    \"hop_latency\": ";
  json_histogram(os, cp.hop_latency);
  os << "\n  },\n";

  os << "  \"tenant_latency\": [";
  for (std::size_t i = 0; i < r.tenant_latency.size(); ++i) {
    const TenantLatency& t = r.tenant_latency[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"tenant\":" << t.tenant << ",\"admitted\":" << t.admitted
       << ",\"bounced\":" << t.bounced << ",\"completed\":" << t.completed
       << ",\"min\":" << t.min << ",\"p50\":" << t.p50 << ",\"p99\":" << t.p99
       << ",\"max\":" << t.max << "}";
  }
  os << (r.tenant_latency.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
  return os.take();
}

void write_report_json(std::ostream& os, const RunReport& report) {
  const std::string text = report_json(report);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void write_report_csv(std::ostream& os, const RunReport& r) {
  os << "section,row,metric,value\n";
  os << "run,trace,events," << r.total_events << "\n";
  os << "run,trace,span_begin," << r.shape.span_begin << "\n";
  os << "run,trace,span_end," << r.shape.span_end << "\n";
  os << "run,trace,span_cycles," << r.shape.span() << "\n";
  os << "run,fabric,num_prcs," << r.shape.num_prcs << "\n";
  os << "run,fabric,num_cg," << r.shape.num_cg << "\n";
  auto csv_row = [&os](const AccountingRow& row) {
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
      os << "accounting," << row.key << ","
         << to_string(static_cast<CycleBucket>(b)) << "," << row.cycles[b]
         << "\n";
    }
    os << "accounting," << row.key << ",total," << row.total() << "\n";
  };
  csv_row(r.accounting.core);
  for (const AccountingRow& row : r.accounting.tenants) csv_row(row);
  for (const AccountingRow& row : r.accounting.units) csv_row(row);
  for (const AccountingRow& row : r.accounting.cores) csv_row(row);
  os << "occupancy,fabric,fg_utilization," << fmt(r.occupancy.fg_utilization)
     << "\n";
  os << "occupancy,fabric,cg_utilization," << fmt(r.occupancy.cg_utilization)
     << "\n";
  os << "occupancy,fabric,fragmentation_index,"
     << fmt(r.occupancy.fragmentation_index) << "\n";
  os << "occupancy,fabric,compaction_opportunity,"
     << fmt(r.occupancy.compaction_opportunity) << "\n";
  for (const UnitTimeline& tl : r.occupancy.units) {
    os << "occupancy," << tl.name << ",utilization," << fmt(tl.utilization)
       << "\n";
  }
  const CriticalPathAnalysis& cp = r.critical_path;
  os << "critical_path,reconfig,chains," << cp.chains.size() << "\n";
  os << "critical_path,reconfig,longest_chain_hops," << cp.longest_chain_hops
     << "\n";
  os << "critical_path,reconfig,longest_chain_cycles,"
     << cp.longest_chain_cycles << "\n";
  os << "critical_path,reconfig,reconfig_busy_cycles," << cp.reconfig_busy
     << "\n";
  os << "critical_path,reconfig,core_stall_cycles," << cp.core_stall << "\n";
  os << "critical_path,reconfig,hidden_fraction," << fmt(cp.hidden_fraction)
     << "\n";
  for (const TenantLatency& t : r.tenant_latency) {
    const std::string key = "tenant." + std::to_string(t.tenant);
    os << "latency," << key << ",admitted," << t.admitted << "\n";
    os << "latency," << key << ",bounced," << t.bounced << "\n";
    os << "latency," << key << ",completed," << t.completed << "\n";
    os << "latency," << key << ",p50," << t.p50 << "\n";
    os << "latency," << key << ",p99," << t.p99 << "\n";
  }
}

void write_report_markdown(std::ostream& os, const RunReport& r) {
  os << "# Run report\n\n";
  os << "- events: " << r.total_events << "\n";
  os << "- span: [" << r.shape.span_begin << ", " << r.shape.span_end
     << ") = " << r.shape.span() << " cycles\n";
  os << "- fabric: " << r.shape.num_prcs << " PRCs, " << r.shape.num_cg
     << " CG fabrics\n\n";

  os << "## Cycle accounting\n\n";
  os << "| row | execute | reconfig_stall | scrub_repair | arbiter_idle | "
        "pure_idle | total |\n";
  os << "|---|---|---|---|---|---|---|\n";
  auto md_row = [&os](const AccountingRow& row) {
    os << "| " << row.key;
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
      os << " | " << row.cycles[b];
    }
    os << " | " << row.total() << " |\n";
  };
  md_row(r.accounting.core);
  for (const AccountingRow& row : r.accounting.tenants) md_row(row);
  for (const AccountingRow& row : r.accounting.units) md_row(row);
  for (const AccountingRow& row : r.accounting.cores) md_row(row);

  os << "\n## Occupancy\n\n";
  os << "- FG utilization: " << fmt(r.occupancy.fg_utilization) << "\n";
  os << "- CG utilization: " << fmt(r.occupancy.cg_utilization) << "\n";
  os << "- fragmentation index: " << fmt(r.occupancy.fragmentation_index)
     << "\n";
  os << "- compaction opportunity: "
     << fmt(r.occupancy.compaction_opportunity) << " PRCs\n";
  if (!r.occupancy.units.empty()) {
    os << "\n| unit | utilization | intervals | ready | loading | repairing "
          "| empty | quarantined |\n";
    os << "|---|---|---|---|---|---|---|---|\n";
    for (const UnitTimeline& tl : r.occupancy.units) {
      os << "| " << tl.name << " | " << fmt(tl.utilization) << " | "
         << tl.intervals.size() << " | "
         << tl.state_cycles[static_cast<std::size_t>(UnitState::kReady)]
         << " | "
         << tl.state_cycles[static_cast<std::size_t>(UnitState::kLoading)]
         << " | "
         << tl.state_cycles[static_cast<std::size_t>(UnitState::kRepairing)]
         << " | "
         << tl.state_cycles[static_cast<std::size_t>(UnitState::kEmpty)]
         << " | "
         << tl.state_cycles[static_cast<std::size_t>(UnitState::kQuarantined)]
         << " |\n";
    }
  }

  const CriticalPathAnalysis& cp = r.critical_path;
  os << "\n## Reconfiguration critical path\n\n";
  os << "- chains: " << cp.chains.size() << ", longest "
     << cp.longest_chain_hops << " hops / " << cp.longest_chain_cycles
     << " cycles (" << to_string(cp.longest_chain_grain) << " port)\n";
  os << "- reconfig busy: " << cp.reconfig_busy
     << " cycles, core stall paid: " << cp.core_stall << " cycles\n";
  os << "- hidden fraction: " << fmt(cp.hidden_fraction) << "\n";
  if (cp.hop_latency.count() > 0) {
    os << "- hop latency: p50 " << fmt(cp.hop_latency.percentile(0.50))
       << ", p90 " << fmt(cp.hop_latency.percentile(0.90)) << ", p99 "
       << fmt(cp.hop_latency.percentile(0.99)) << ", max "
       << fmt(cp.hop_latency.max()) << " cycles over "
       << cp.hop_latency.count() << " loads\n";
  }

  if (!r.tenant_latency.empty()) {
    os << "\n## Tenant latency (admission to completion)\n\n";
    os << "| tenant | admitted | bounced | completed | min | p50 | p99 | max "
          "|\n";
    os << "|---|---|---|---|---|---|---|---|\n";
    for (const TenantLatency& t : r.tenant_latency) {
      os << "| " << t.tenant << " | " << t.admitted << " | " << t.bounced
         << " | " << t.completed << " | " << t.min << " | " << t.p50 << " | "
         << t.p99 << " | " << t.max << " |\n";
    }
  }
}

bool write_report_file(const std::string& path, const RunReport& report) {
  std::ofstream os(path);
  if (!os) return false;
  const auto dot = path.find_last_of('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  if (ext == ".json") {
    write_report_json(os, report);
  } else if (ext == ".csv") {
    write_report_csv(os, report);
  } else {
    write_report_markdown(os, report);
  }
  return os.good();
}

}  // namespace mrts::obs
