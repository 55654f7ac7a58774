#pragma once
/// \file harness.h
/// Shared pieces of the perfbench binary: the span recorder of the traced
/// run, the forwarding RuntimeSystem that times every call into an RTS, the
/// simulated-count ledger and the interface each workload implements.
///
/// perfbench is one process on one thread. An untraced run constructs no
/// Tracer, so every ScopedSpan is a null check and the RTS instances are
/// called directly, never through TimedRts.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rts/rts_interface.h"

namespace mrts {
struct MRtsRunStats;
struct ReconfigStats;
}  // namespace mrts

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The src/ modules a span is charged to, plus the benchmark's own glue.
enum class Layer : std::uint8_t {
  kWorkload,
  kIsa,
  kSim,
  kRts,
  kBaselines,
  kObs,
  kUtil,
  kServe,
  kBench,
};
inline constexpr std::size_t kNumLayers = 9;
const char* layer_name(Layer layer);

/// One timed call. \p work is a unit count attached by the caller (kernel
/// executions, blocks, bytes or trace events, depending on the span).
struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  std::int32_t parent = -1;
  std::uint32_t job = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double work = 0.0;
};

/// In-memory span recorder; spans are written out only when the run ends.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  std::int32_t open(const char* name, Layer layer);
  void close(std::int32_t index, double work);
  void rename(std::int32_t index, const char* name) {
    spans_[static_cast<std::size_t>(index)].name = name;
  }
  /// Spans opened from now on belong to job \p job (0 = set-up).
  void set_job(std::uint32_t job) { job_ = job; }

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span: its duration minus the time its children
  /// cover (children never overlap: perfbench is single-threaded).
  std::vector<std::int64_t> self_ns() const;
  /// Chrome trace-event JSON ("X" events, one track per layer), the format
  /// `mrts_cli run --trace` writes, so both open side by side in Perfetto.
  /// Writes the first \p max_spans spans (in start order), so a long run
  /// keeps a file Perfetto can load.
  bool write_chrome(const std::string& path, std::size_t max_spans) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t job_ = 0;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, Layer layer)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, layer) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_, work_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void add_work(double work) { work_ += work; }
  std::int32_t index() const { return index_; }
  void rename(const char* name) {
    if (tracer_ != nullptr) tracer_->rename(index_, name);
  }

 private:
  Tracer* tracer_;
  std::int32_t index_;
  double work_ = 0.0;
};

/// Span names of one run-time system kind.
struct RtsSpanNames {
  const char* trigger;
  const char* execute;
  const char* block_end;
};

/// The run-time system kinds the workloads run. kMrtsObserved is mRTS with
/// a recorder and counters attached (trace_resume), kept apart because the
/// ECU then bypasses its memo.
enum class RtsKind : std::uint8_t {
  kMrts,
  kMrtsOpt,
  kRispp,
  kMorpheus,
  kOffline,
  kMrtsObserved,
};
const char* rts_kind_name(RtsKind kind);
RtsSpanNames rts_span_names(RtsKind kind);
Layer rts_layer(RtsKind kind);

/// Forwarding RuntimeSystem for the traced run: times on_trigger, every
/// execution entry point and on_block_end of the wrapped system, and
/// forwards everything else untouched, so the simulated outputs are those of
/// the wrapped system. Works wherever a RuntimeSystem* is taken:
/// run_application, run_multi_tenant and run_cmp tasks.
class TimedRts final : public mrts::RuntimeSystem {
 public:
  TimedRts(mrts::RuntimeSystem& inner, Tracer& tracer, RtsKind kind)
      : inner_(&inner), tracer_(&tracer), names_(rts_span_names(kind)),
        layer_(rts_layer(kind)) {}

  std::string name() const override { return inner_->name(); }
  mrts::SelectionOutcome on_trigger(const mrts::TriggerInstruction& programmed,
                                    mrts::Cycles now) override;
  mrts::ExecOutcome execute_kernel(mrts::KernelId k, mrts::Cycles now) override;
  mrts::Cycles execute_run(mrts::KernelId k, mrts::Cycles cursor,
                           const mrts::ExecEvent* events, std::size_t n,
                           mrts::Cycles gap_total,
                           std::uint64_t* impl_executions,
                           mrts::Cycles* impl_cycles,
                           mrts::Cycles* first_exec_start) override;
  mrts::Cycles execute_events(const mrts::ExecEvent* events,
                              const mrts::ExecRun* runs, std::size_t num_runs,
                              mrts::Cycles cursor,
                              std::uint64_t* impl_executions,
                              mrts::Cycles* impl_cycles,
                              mrts::ObservationSink& obs) override;
  void on_block_end(const mrts::BlockObservation& observed,
                    mrts::Cycles now) override;
  void reset() override { inner_->reset(); }
  void attach_observability(mrts::TraceRecorder* trace,
                            mrts::CounterRegistry* counters) override {
    inner_->attach_observability(trace, counters);
  }
  bool attach_fault_model(mrts::FaultModel* model) override {
    return inner_->attach_fault_model(model);
  }

 private:
  mrts::RuntimeSystem* inner_;
  Tracer* tracer_;
  RtsSpanNames names_;
  Layer layer_;
};

/// Simulated counts summed over a workload's sample: name -> (value, unit).
/// Every value is read from a public getter of the library and repeats
/// exactly for a given seed.
class Counts {
 public:
  void add(const std::string& name, double value, const char* unit);
  double get(const std::string& name) const;
  /// a / b, or 0 when b is 0.
  double ratio(const std::string& a, const std::string& b) const;
  const std::map<std::string, std::pair<double, std::string>>& all() const {
    return values_;
  }
  bool operator==(const Counts& other) const { return values_ == other.values_; }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Adds an MRts instance's run statistics (MRts::run_stats) to \p counts.
void add_run_stats(Counts& counts, const mrts::MRtsRunStats& stats);
/// Adds a fabric's reconfiguration traffic (FabricManager::reconfig_stats)
/// to \p counts.
void add_reconfig_stats(Counts& counts, const mrts::ReconfigStats& stats);

/// Outcome of one closed-loop step (one job, or one serve connection
/// cycle that carries several jobs).
struct StepResult {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t kernel_executions = 0;
  /// Per-job host latencies measured inside the step (serve_stream), in the
  /// same job order in every round; empty means the step is one job whose
  /// latency is the step's wall time.
  std::vector<double> latencies_ms;
  /// Hash of the step's simulated outputs (traced and untraced runs of the
  /// same step must agree).
  std::uint64_t digest = 0;
};

/// The simulated end-to-end metrics of a workload, over its sample.
struct SimMetrics {
  double speedup_vs_risc = 0.0;
  double blocks_per_mcycle = 0.0;
  double job_p99_cycles = 0.0;
};

/// Results of the checks made outside the timed phase.
struct CheckResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;  ///< one per failed check

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (messages.size() < 20) messages.push_back(what);
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds fresh state (inputs, library, references, machines) and runs
  /// one warm-up job. Discards everything a previous set-up or loop built.
  virtual void setup(Tracer* tracer) = 0;
  /// Steps run in whole rounds, and step i runs the same job as step
  /// i - round_steps(): the loop times each job by its fastest repeat.
  virtual std::size_t round_steps() const = 0;
  /// True when every round simulates exactly the first round's outputs
  /// (fresh state per job); run_untraced checks it.
  virtual bool repeats_outputs() const { return true; }
  /// Leading steps whose simulated outputs define the sim_* metrics and
  /// the simulated counts.
  virtual std::size_t sample_steps() const = 0;
  /// Runs step \p index; steps are a deterministic function of the seed.
  virtual StepResult step(std::size_t index, Tracer* tracer) = 0;
  /// Simulated counts over the sample steps of the last loop.
  virtual const Counts& counts() const = 0;
  /// Output checks and sim metrics of the last loop, outside the timed
  /// phase.
  virtual void finish(CheckResult& checks, SimMetrics& sim) = 0;
};

std::unique_ptr<Workload> make_fig_grid(std::uint64_t seed,
                                        const std::string& root);
std::unique_ptr<Workload> make_serve_stream(std::uint64_t seed);
std::unique_ptr<Workload> make_cmp_shared(std::uint64_t seed);
std::unique_ptr<Workload> make_trace_resume(std::uint64_t seed);

// --- small deterministic helpers --------------------------------------------

/// splitmix64 finalizer.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Independent seed for stream \p stream, item \p index of workload seed
/// \p seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                                 std::uint64_t index = 0) {
  return mix64(mix64(seed ^ mix64(stream)) + index);
}

/// H264AppParams' default content seed, with which the committed figure
/// goldens were generated.
inline constexpr std::uint64_t kGoldenContentSeed = 0xC0FFEE;

/// H.264 content seed of content variant \p variant of workload seed
/// \p seed. Variant 0 of seed 0 is the goldens' input.
inline std::uint64_t h264_content_seed(std::uint64_t seed,
                                       std::size_t variant) {
  return variant == 0 ? kGoldenContentSeed + seed
                      : derive_seed(seed, 0x766964 /* "vid" */, variant);
}

/// FNV-1a, for digests of simulated outputs and report bytes.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}
inline std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t h) {
  return fnv1a(&v, sizeof v, h);
}

/// Nearest-rank percentile of \p sorted (ascending, non-empty), p in (0, 1].
double nearest_rank(const std::vector<double>& sorted, double p);

/// Geometric mean of positive values (0 when empty).
double geomean(const std::vector<double>& values);

}  // namespace perfbench
