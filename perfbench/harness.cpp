#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "arch/fabric_manager.h"
#include "rts/mrts.h"
#include "sim/schedule.h"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kWorkload: return "workload";
    case Layer::kIsa: return "isa";
    case Layer::kSim: return "sim";
    case Layer::kRts: return "rts";
    case Layer::kBaselines: return "baselines";
    case Layer::kObs: return "obs";
    case Layer::kUtil: return "util";
    case Layer::kServe: return "serve";
    case Layer::kBench: return "bench";
  }
  return "?";
}

const char* rts_kind_name(RtsKind kind) {
  switch (kind) {
    case RtsKind::kMrts: return "mrts";
    case RtsKind::kMrtsOpt: return "mrts_opt";
    case RtsKind::kRispp: return "rispp";
    case RtsKind::kMorpheus: return "morpheus";
    case RtsKind::kOffline: return "offline";
    case RtsKind::kMrtsObserved: return "mrts_observed";
  }
  return "?";
}

RtsSpanNames rts_span_names(RtsKind kind) {
  switch (kind) {
    case RtsKind::kMrts:
      return {"rts.mrts.on_trigger", "rts.mrts.execute",
              "rts.mrts.on_block_end"};
    case RtsKind::kMrtsOpt:
      return {"rts.mrts_opt.on_trigger", "rts.mrts_opt.execute",
              "rts.mrts_opt.on_block_end"};
    case RtsKind::kRispp:
      return {"baselines.rispp.on_trigger", "baselines.rispp.execute",
              "baselines.rispp.on_block_end"};
    case RtsKind::kMorpheus:
      return {"baselines.morpheus.on_trigger", "baselines.morpheus.execute",
              "baselines.morpheus.on_block_end"};
    case RtsKind::kOffline:
      return {"baselines.offline.on_trigger", "baselines.offline.execute",
              "baselines.offline.on_block_end"};
    case RtsKind::kMrtsObserved:
      return {"rts.mrts_observed.on_trigger", "rts.mrts_observed.execute",
              "rts.mrts_observed.on_block_end"};
  }
  return {"?", "?", "?"};
}

Layer rts_layer(RtsKind kind) {
  switch (kind) {
    case RtsKind::kRispp:
    case RtsKind::kMorpheus:
    case RtsKind::kOffline:
      return Layer::kBaselines;
    default:
      return Layer::kRts;
  }
}

// --- Tracer -----------------------------------------------------------------

std::int32_t Tracer::open(const char* name, Layer layer) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.job = job_;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(index);
  // Read the clock last so the bookkeeping above is charged to the parent.
  spans_.back().start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  return index;
}

void Tracer::close(std::int32_t index, double work) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now;
  span.work = work;
  stack_.pop_back();
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
    }
  }
  return self;
}

bool Tracer::write_chrome(const std::string& path,
                          std::size_t max_spans) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
         "\"args\":{\"name\":\"perfbench host time\"}}";
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":" << l
        << ",\"args\":{\"name\":\"" << layer_name(static_cast<Layer>(l))
        << "\"}}";
  }
  char buf[64];
  for (std::size_t i = 0; i < std::min(spans_.size(), max_spans); ++i) {
    const Span& s = spans_[i];
    out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\""
        << layer_name(s.layer) << "\",\"ph\":\"X\",\"pid\":2,\"tid\":"
        << static_cast<int>(s.layer);
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job << ",\"work\":" << s.work << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- TimedRts ---------------------------------------------------------------

mrts::SelectionOutcome TimedRts::on_trigger(
    const mrts::TriggerInstruction& programmed, mrts::Cycles now) {
  ScopedSpan span(tracer_, names_.trigger, layer_);
  return inner_->on_trigger(programmed, now);
}

mrts::ExecOutcome TimedRts::execute_kernel(mrts::KernelId k,
                                           mrts::Cycles now) {
  ScopedSpan span(tracer_, names_.execute, layer_);
  span.add_work(1.0);
  return inner_->execute_kernel(k, now);
}

mrts::Cycles TimedRts::execute_run(mrts::KernelId k, mrts::Cycles cursor,
                                   const mrts::ExecEvent* events,
                                   std::size_t n, mrts::Cycles gap_total,
                                   std::uint64_t* impl_executions,
                                   mrts::Cycles* impl_cycles,
                                   mrts::Cycles* first_exec_start) {
  ScopedSpan span(tracer_, names_.execute, layer_);
  span.add_work(static_cast<double>(n));
  return inner_->execute_run(k, cursor, events, n, gap_total, impl_executions,
                             impl_cycles, first_exec_start);
}

mrts::Cycles TimedRts::execute_events(const mrts::ExecEvent* events,
                                      const mrts::ExecRun* runs,
                                      std::size_t num_runs,
                                      mrts::Cycles cursor,
                                      std::uint64_t* impl_executions,
                                      mrts::Cycles* impl_cycles,
                                      mrts::ObservationSink& obs) {
  ScopedSpan span(tracer_, names_.execute, layer_);
  double executions = 0.0;
  for (std::size_t i = 0; i < num_runs; ++i) executions += runs[i].count;
  span.add_work(executions);
  return inner_->execute_events(events, runs, num_runs, cursor,
                                impl_executions, impl_cycles, obs);
}

void TimedRts::on_block_end(const mrts::BlockObservation& observed,
                            mrts::Cycles now) {
  ScopedSpan span(tracer_, names_.block_end, layer_);
  inner_->on_block_end(observed, now);
}

// --- Counts -----------------------------------------------------------------

void Counts::add(const std::string& name, double value, const char* unit) {
  auto& entry = values_[name];
  entry.first += value;
  entry.second = unit;
}

double Counts::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

double Counts::ratio(const std::string& a, const std::string& b) const {
  const double denominator = get(b);
  return denominator == 0.0 ? 0.0 : get(a) / denominator;
}

void add_run_stats(Counts& counts, const mrts::MRtsRunStats& stats) {
  counts.add("run_stats.triggers", static_cast<double>(stats.triggers),
             "triggers");
  counts.add("run_stats.profit_evaluations",
             static_cast<double>(stats.profit_evaluations), "evaluations");
  counts.add("run_stats.total_blocking_cycles",
             static_cast<double>(stats.total_blocking_cycles), "cycles");
  counts.add("run_stats.selected_ises",
             static_cast<double>(stats.selected_ises), "ises");
  counts.add("run_stats.defrag_passes",
             static_cast<double>(stats.defrag_passes), "passes");
  counts.add("run_stats.defrag_migrations",
             static_cast<double>(stats.defrag_migrations), "migrations");
}

void add_reconfig_stats(Counts& counts, const mrts::ReconfigStats& stats) {
  counts.add("reconfig_stats.fg_loads", static_cast<double>(stats.fg_loads),
             "loads");
  counts.add("reconfig_stats.cg_loads", static_cast<double>(stats.cg_loads),
             "loads");
  counts.add("reconfig_stats.cancelled_loads",
             static_cast<double>(stats.cancelled_loads), "loads");
  counts.add("reconfig_stats.reused_instances",
             static_cast<double>(stats.reused_instances), "instances");
}

// --- helpers ----------------------------------------------------------------

double nearest_rank(const std::vector<double>& sorted, double p) {
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
