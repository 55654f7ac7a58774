#pragma once
/// \file analysis.h
/// Shared front end of the obs/ trace-analysis engine: the analysis
/// configuration, fabric-shape/cycle-span inference and the per-unit event
/// slices every analysis pass (occupancy, cycle accounting, critical path)
/// starts from. All outputs of this subsystem are deterministic functions of
/// the event vector — analyses sort their inputs internally, so the same
/// trace produces byte-identical reports.

#include <cstdint>
#include <string>
#include <vector>

#include "util/trace.h"
#include "util/types.h"

namespace mrts::obs {

/// Caller-provided analysis parameters. Zeros mean "infer from the trace":
/// occupancy samples (kOccupancy carries total_prcs/total_cg in arg0/arg1)
/// are the primary shape source, with the highest FG/CG track index seen as
/// the fallback, so saved JSONL traces analyze without the original config.
struct AnalysisConfig {
  unsigned num_prcs = 0;  ///< fine-grained containers (0 = infer)
  unsigned num_cg = 0;    ///< coarse-grained fabrics (0 = infer)
};

/// Fabric shape + cycle span the analyses operate over.
struct TraceShape {
  unsigned num_prcs = 0;
  unsigned num_cg = 0;
  Cycles span_begin = 0;  ///< earliest event timestamp (0 for empty traces)
  Cycles span_end = 0;    ///< latest span end (at + duration)
  Cycles span() const { return span_end - span_begin; }
};

TraceShape infer_shape(const std::vector<TraceEvent>& events,
                       const AnalysisConfig& config);

/// One scheduled load on a reconfiguration port, as seen on a unit's track.
/// `repair` marks loads re-enqueued by the scrubber (matched to the first
/// load-start at or after each kScrubRepair mark on the same track).
struct LoadSpan {
  Cycles begin = 0;
  Cycles end = 0;
  Grain grain = Grain::kFine;
  bool repair = false;
};

/// Per-unit event slice: everything an occupancy/accounting pass needs to
/// classify one container's time, pre-sorted by cycle.
struct UnitEvents {
  std::int32_t track = 0;
  std::vector<LoadSpan> loads;     ///< sorted by begin
  std::vector<Cycles> completes;   ///< kReconfigComplete times, sorted
  Cycles quarantined_at = kNeverCycles;  ///< kNeverCycles = never
};

/// Slices \p events into one UnitEvents per fabric unit: index [0,
/// shape.num_prcs) are the FG containers, [shape.num_prcs, num_prcs +
/// num_cg) the CG fabrics. Events on tracks outside the shape are ignored.
std::vector<UnitEvents> slice_unit_events(const std::vector<TraceEvent>& events,
                                          const TraceShape& shape);

/// Display name of unit \p index under \p shape ("fg3" / "cg1").
std::string unit_name(const TraceShape& shape, std::size_t index);

}  // namespace mrts::obs
