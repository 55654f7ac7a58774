// trace_resume: the path behind `mrts_cli run --trace --report
// --checkpoint-every`. Each job is one H.264 mRTS run on a 4 PRC + 2 CG
// machine with a recorder and counters attached, a fixed nonzero uniform
// fault rate with a per-job fault seed, MRtsConfig::defrag on, and
// checkpoints into memory on a fixed cycle grid. After the run the job
// exports JSONL and Chrome traces, parses the JSONL back, runs analyze_trace
// plus report JSON, then restores one mid-run snapshot into a fresh machine
// and finishes that run, which must equal the uninterrupted one. Jobs cycle
// through kVariants content seeds, so a run averages over video content
// instead of depending on one short trace: one QCIF frame's work and
// simulated p99 move by about 25% from seed to seed with 8 variants, and
// by about 7% with 40. A round is kRoundJobs jobs with
// distinct fault seeds. A job runs one QCIF frame (99 macroblocks, three
// functional blocks), so a round takes about a second and every job repeats
// often enough in a run to be timed by its fastest repeat.
//
// Why this workload: it is the only user of rts/snapshot, util/snapshot_io,
// the trace exporters and parser, and the fault/defrag path, and obs
// analyzes traces with fault, quarantine and snapshot events here, which
// serve_stream's jobs never have.

#include <algorithm>
#include <sstream>

#include "baselines/risc_only_rts.h"
#include "harness.h"
#include "obs/report_io.h"
#include "obs/run_report.h"
#include "rts/snapshot.h"
#include "sim/app_simulator.h"
#include "sim/machine.h"
#include "util/trace.h"
#include "workload/h264_app.h"

namespace perfbench {
namespace {

using namespace mrts;

constexpr unsigned kFrames = 1;
constexpr unsigned kMacroblocks = 99;  // QCIF, 11 x 9
constexpr std::size_t kVariants = 40;
constexpr unsigned kPrcs = 4;
constexpr unsigned kCgFabrics = 2;
/// Uniform fault rate: retries occur in most jobs, quarantines in dozens of
/// a round's, and mRTS still beats RISC-only.
constexpr double kFaultRate = 0.15;
constexpr unsigned kMaxRetries = 3;
/// A frame is about 2 Mcycles; snapshots fall on the block boundaries after
/// each multiple.
constexpr Cycles kCheckpointEvery = 500'000;
/// 25 jobs per content variant; a p99 of host time or simulated cycles
/// needs ten jobs beyond it.
constexpr std::size_t kRoundJobs = 1000;
constexpr std::uint64_t kFaultStream = 0x666c74;  // "flt"

bool same_events(const std::vector<TraceEvent>& a,
                 const std::vector<TraceEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const TraceEvent& x = a[i];
    const TraceEvent& y = b[i];
    if (x.kind != y.kind || x.track != y.track || x.at != y.at ||
        x.duration != y.duration || x.arg0 != y.arg0 || x.arg1 != y.arg1 ||
        x.v0 != y.v0 || x.v1 != y.v1 || x.tenant != y.tenant) {
      return false;
    }
  }
  return true;
}

bool same_counters(const CounterRegistry& a, const CounterRegistry& b) {
  if (a.counters() != b.counters()) return false;
  if (a.histograms().size() != b.histograms().size()) return false;
  auto it = b.histograms().begin();
  for (const auto& [name, h] : a.histograms()) {
    const Histogram& g = it->second;
    if (name != it->first || h.count() != g.count() || h.sum() != g.sum() ||
        h.min() != g.min() || h.max() != g.max() ||
        h.buckets() != g.buckets()) {
      return false;
    }
    ++it;
  }
  return true;
}

bool same_faults(const FaultStats& a, const FaultStats& b) {
  return a.injected == b.injected && a.load_failures == b.load_failures &&
         a.retries == b.retries && a.failed_loads == b.failed_loads &&
         a.transient_upsets == b.transient_upsets &&
         a.scrub_repairs == b.scrub_repairs &&
         a.quarantined_prcs == b.quarantined_prcs &&
         a.quarantined_cg == b.quarantined_cg;
}

std::uint64_t executions(const AppRunResult& r) {
  std::uint64_t n = 0;
  for (std::uint64_t e : r.impl_executions) n += e;
  return n;
}

/// One mRTS run with its observability, checkpointing into memory.
struct Leg {
  std::unique_ptr<Machine> machine;
  TraceRecorder recorder;
  CounterRegistry counters;
  AppRunProgress progress;
  std::uint64_t sequence = 0;
  std::vector<std::vector<std::uint8_t>> snapshots;
  std::uint64_t executed = 0;  ///< kernel executions this leg simulated

  MRts& mrts() { return machine->mrts(0); }
};

struct SampleJob {
  Cycles cycles = 0;
  Cycles risc_cycles = 0;
  std::size_t blocks = 0;
};

/// One content seed's trace and its RISC-only reference.
struct Variant {
  H264Application app;
  Cycles risc_cycles = 0;
};

class TraceResume final : public Workload {
 public:
  explicit TraceResume(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer* tracer) override {
    variants_.clear();
    variants_.reserve(kVariants);
    for (std::size_t v = 0; v < kVariants; ++v) {
      H264AppParams params;
      params.frames = kFrames;
      params.macroblocks = kMacroblocks;
      params.seed = h264_content_seed(seed_, v);
      Variant& variant = variants_.emplace_back();
      {
        ScopedSpan span(tracer, "workload.build", Layer::kWorkload);
        variant.app = build_h264_application(params);
      }
      ScopedSpan span(tracer, "sim.reference", Layer::kSim);
      RiscOnlyRts risc(variant.app.library);
      variant.risc_cycles = run_application(risc, variant.app.trace).total_cycles;
    }
    counts_ = Counts{};
    sample_.clear();
    run_job(0, tracer, nullptr);  // warm-up
  }

  std::size_t round_steps() const override { return kRoundJobs; }
  std::size_t sample_steps() const override { return kRoundJobs; }

  StepResult step(std::size_t index, Tracer* tracer) override {
    return run_job(index % kRoundJobs, tracer,
                   index < kRoundJobs ? &counts_ : nullptr);
  }

  const Counts& counts() const override { return counts_; }

  void finish(CheckResult& checks, SimMetrics& sim) override {
    checks.expect(counts_.get("fault_stats.retries") > 0 &&
                      counts_.get("fault_stats.quarantined") > 0,
                  "trace_resume: the fault rate caused no retries or "
                  "quarantines");
    std::vector<double> speedups;
    std::vector<double> cycles;
    double blocks = 0.0;
    double total = 0.0;
    for (const SampleJob& job : sample_) {
      speedups.push_back(static_cast<double>(job.risc_cycles) /
                         static_cast<double>(job.cycles));
      cycles.push_back(static_cast<double>(job.cycles));
      blocks += static_cast<double>(job.blocks);
      total += static_cast<double>(job.cycles);
    }
    std::sort(cycles.begin(), cycles.end());
    sim.speedup_vs_risc = geomean(speedups);
    checks.expect(sim.speedup_vs_risc > 1.0,
                  "trace_resume: faulty mRTS does not beat RISC-only");
    sim.blocks_per_mcycle = total > 0.0 ? blocks * 1e6 / total : 0.0;
    sim.job_p99_cycles = cycles.empty() ? 0.0 : nearest_rank(cycles, 0.99);
  }

 private:
  MRtsConfig config(std::uint64_t fault_seed) const {
    MRtsConfig config;
    config.fault = FaultModelConfig::uniform(kFaultRate, fault_seed, kMaxRetries);
    config.defrag.enabled = true;
    return config;
  }

  CheckpointMeta meta(const MRtsConfig& config) const {
    CheckpointMeta m;
    m.app = "h264";
    m.prcs = kPrcs;
    m.cg = kCgFabrics;
    m.frames = kFrames;
    m.fault = config.fault;
    m.checkpoint_every = kCheckpointEvery;
    return m;
  }

  /// Runs (or, from \p resume, finishes) one leg on a fresh machine,
  /// checkpointing at every multiple of kCheckpointEvery as
  /// `mrts_cli run --checkpoint-every` does.
  void run_leg(Leg& leg, const H264Application& app, const MRtsConfig& config,
               const std::vector<std::uint8_t>* resume, Tracer* tracer) {
    {
      ScopedSpan span(tracer, "sim.machine", Layer::kSim);
      MachineConfig mc;
      mc.prcs = kPrcs;
      mc.cg_fabrics = kCgFabrics;
      leg.machine = std::make_unique<Machine>(app.library, mc);
      leg.machine->add_rts(config);
    }
    MRts& mrts = leg.mrts();
    mrts.attach_observability(&leg.recorder, &leg.counters);
    std::unique_ptr<TimedRts> timed;
    if (tracer != nullptr) {
      timed = std::make_unique<TimedRts>(mrts, *tracer, RtsKind::kMrtsObserved);
    }
    RuntimeSystem& rts = timed ? static_cast<RuntimeSystem&>(*timed) : mrts;
    if (resume != nullptr) {
      ScopedSpan span(tracer, "rts.apply_snapshot", Layer::kRts);
      span.add_work(static_cast<double>(resume->size()));
      apply_snapshot(*resume, mrts, leg.progress, &leg.recorder, &leg.counters);
      leg.sequence = read_snapshot_meta(*resume).sequence;
    }
    const std::uint64_t before = executions(leg.progress.partial);
    const CheckpointMeta base = meta(config);
    while (true) {
      const Cycles stop =
          (leg.progress.cursor / kCheckpointEvery + 1) * kCheckpointEvery;
      bool done = false;
      {
        ScopedSpan span(tracer, "sim.run_application", Layer::kSim);
        const std::size_t first = leg.progress.next_block;
        done = run_application_portion(rts, app.trace, leg.progress,
                                       &leg.recorder, stop);
        span.add_work(static_cast<double>(
            (done ? app.trace.blocks.size() : leg.progress.next_block) -
            first));
      }
      if (done) break;
      ++leg.sequence;
      // The save marker goes in before the image is built, so a restore
      // replays it and the trace stays identical to the uninterrupted run.
      leg.recorder.record({TraceEventKind::kSnapshotSave, kTrackApp,
                           leg.progress.cursor, 0,
                           static_cast<std::uint32_t>(leg.sequence), 0, 0.0,
                           0.0});
      CheckpointMeta m = base;
      m.sequence = leg.sequence;
      ScopedSpan span(tracer, "rts.build_snapshot", Layer::kRts);
      leg.snapshots.push_back(build_snapshot(m, mrts, leg.progress,
                                             &leg.recorder, &leg.counters));
      span.add_work(static_cast<double>(leg.snapshots.back().size()));
    }
    leg.executed = executions(leg.progress.partial) - before;
  }

  /// Job \p index: content variant index % kVariants, its own fault seed.
  StepResult run_job(std::size_t index, Tracer* tracer, Counts* counts) {
    StepResult result;
    result.attempted = 1;
    const Variant& variant = variants_[index % kVariants];
    const H264Application& app = variant.app;
    const MRtsConfig cfg = config(derive_seed(seed_, kFaultStream, index));
    Leg full;
    run_leg(full, app, cfg, nullptr, tracer);
    const std::vector<TraceEvent>& events = full.recorder.events();
    const IseLibrary* lib = &app.library;

    std::string jsonl;
    {
      ScopedSpan span(tracer, "util.write_jsonl", Layer::kUtil);
      std::ostringstream out;
      write_trace_jsonl(out, events, lib);
      jsonl = out.str();
      span.add_work(static_cast<double>(jsonl.size()));
    }
    {
      ScopedSpan span(tracer, "util.write_chrome", Layer::kUtil);
      std::ostringstream out;
      write_chrome_trace(out, events, lib);
      span.add_work(static_cast<double>(out.tellp()));
    }
    ParsedTrace parsed;
    {
      ScopedSpan span(tracer, "util.parse_jsonl", Layer::kUtil);
      std::istringstream in(jsonl);
      parsed = parse_trace_jsonl(in);
      span.add_work(static_cast<double>(parsed.events.size()));
    }
    obs::RunReport report;
    {
      ScopedSpan span(tracer, "obs.analyze_trace", Layer::kObs);
      span.add_work(static_cast<double>(events.size()));
      obs::AnalysisConfig analysis;
      analysis.num_prcs = kPrcs;
      analysis.num_cg = kCgFabrics;
      report = obs::analyze_trace(events, analysis);
    }
    std::string report_json;
    {
      ScopedSpan span(tracer, "obs.write_report_json", Layer::kObs);
      std::ostringstream out;
      obs::write_report_json(out, report);
      report_json = out.str();
    }

    bool ok = parsed.ok() && parsed.events.size() == events.size() &&
              !full.snapshots.empty();
    Leg resumed;
    if (ok) {
      run_leg(resumed, app, cfg, &full.snapshots[full.snapshots.size() / 2],
              tracer);
      const FaultModel* a = full.mrts().fault_model();
      const FaultModel* b = resumed.mrts().fault_model();
      ok = resumed.progress.partial.total_cycles ==
               full.progress.partial.total_cycles &&
           a != nullptr && b != nullptr && same_faults(a->stats(), b->stats()) &&
           same_counters(full.counters, resumed.counters) &&
           same_events(events, resumed.recorder.events());
    }
    result.failed = ok ? 0 : 1;
    result.completed = 1 - result.failed;
    result.kernel_executions = full.executed + resumed.executed;
    const AppRunResult& run = full.progress.partial;
    result.digest = fnv1a_u64(
        run.total_cycles,
        fnv1a_u64(events.size(), fnv1a(report_json.data(), report_json.size())));

    if (counts != nullptr) {
      const MRts& mrts = full.mrts();
      counts->add("sim.jobs", 1, "jobs");
      counts->add("sim.blocks", static_cast<double>(run.block_cycles.size()),
                  "blocks");
      counts->add("sim.cycles", static_cast<double>(run.total_cycles), "cycles");
      counts->add("sim.kernel_executions",
                  static_cast<double>(result.kernel_executions), "executions");
      add_run_stats(*counts, mrts.run_stats());
      add_reconfig_stats(*counts, mrts.fabric().reconfig_stats());
      if (const FaultModel* fm = mrts.fault_model()) {
        const FaultStats& fs = fm->stats();
        counts->add("fault_stats.injected", static_cast<double>(fs.injected),
                    "faults");
        counts->add("fault_stats.retries", static_cast<double>(fs.retries),
                    "retries");
        counts->add("fault_stats.failed_loads",
                    static_cast<double>(fs.failed_loads), "loads");
        counts->add("fault_stats.quarantined",
                    static_cast<double>(fs.quarantined_prcs + fs.quarantined_cg),
                    "containers");
      }
      counts->add("trace.events", static_cast<double>(events.size()), "events");
      counts->add("trace.kernel_executions", static_cast<double>(full.executed),
                  "executions");
      for (const auto& snapshot : full.snapshots) {
        counts->add("snapshot.bytes", static_cast<double>(snapshot.size()),
                    "bytes");
        counts->add("snapshot.count", 1, "snapshots");
      }
      sample_.push_back(
          {run.total_cycles, variant.risc_cycles, run.block_cycles.size()});
    }
    return result;
  }

  std::uint64_t seed_;
  std::vector<Variant> variants_;
  Counts counts_;
  std::vector<SampleJob> sample_;
};

}  // namespace

std::unique_ptr<Workload> make_trace_resume(std::uint64_t seed) {
  return std::make_unique<TraceResume>(seed);
}

}  // namespace perfbench
