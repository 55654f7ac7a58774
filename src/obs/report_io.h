#pragma once
/// \file report_io.h
/// RunReport serializers: JSON (machine-readable, the trace-analyze golden
/// format), CSV (one flat metric table for spreadsheets) and markdown (the
/// human-readable default on stdout). All three are deterministic byte
/// streams for a given report: fixed key order, fixed row order, and the
/// same double formatting contract as the JSONL trace writer (integral
/// doubles < 2^53 print every digit, others use %.10g).

#include <iosfwd>
#include <string>

#include "obs/run_report.h"

namespace mrts::obs {

/// The JSON form as one string; write_report_json writes exactly these
/// bytes.
std::string report_json(const RunReport& report);
void write_report_json(std::ostream& os, const RunReport& report);
void write_report_csv(std::ostream& os, const RunReport& report);
void write_report_markdown(std::ostream& os, const RunReport& report);

/// Writes \p report to \p path in the format its extension picks: ".json"
/// -> JSON, ".csv" -> CSV, anything else -> markdown. Returns false when
/// the file cannot be opened.
bool write_report_file(const std::string& path, const RunReport& report);

}  // namespace mrts::obs
