// perfbench: one workload of the mRTS benchmark, as a closed loop of fresh
// jobs on one thread.
//
//   perfbench --workload <fig_grid|serve_stream|cmp_shared|trace_resume>
//             --seed <n> --seconds <s> --trace <0|1> [--root <dir>]
//             [--out-dir <dir>]
//
// --trace 0 times the set-up (setup_s is the median of set-ups before the
// loop and after the checks), runs the timed loop in whole rounds for at
// least --seconds and kMinRounds rounds, then checks the outputs outside the
// timed phase and prints every end-to-end metric. Every round runs the same
// jobs, and a job's host time is its fastest repeat (see best_of).
// --trace 1 runs the same jobs on two instances of the workload, one
// untraced and one with spans around every call into a library layer,
// alternating their steps for --seconds / 2 of untraced time; it checks that
// both simulate the same outputs, prints the per-layer metrics and writes the
// spans as Chrome trace-event JSON to --out-dir. The last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

/// Host-time percentiles need ten samples beyond them: p99 needs 1000 jobs
/// in a round.
constexpr std::size_t kMinJobs = 1000;
/// Every job runs at least this often, so its fastest repeat is picked from
/// moments spread over the run.
constexpr std::size_t kMinRounds = 5;
/// Set-up is timed in two batches, one before the timed loop and one after
/// the checks, so setup_s (their median) samples the host at two moments.
/// A batch runs set-up at least kMinSetups times and until kSetupSeconds
/// have passed. The host's speed swings by up to 2x over stretches of
/// 0.1-1 s, so a batch must span about a second for its median to be
/// representative.
constexpr std::size_t kMinSetups = 7;
constexpr double kSetupSeconds = 1.0;
/// Spans written to the Chrome trace file (about 50 MB); the per-layer
/// metrics use every span.
constexpr std::size_t kMaxChromeSpans = 300000;
/// Loop guard: keeps a run on a slow host inside the 180 s limit.
constexpr double kMaxLoopSeconds = 100.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string out_dir = ".bench_build/spans";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct LoopResult {
  std::size_t steps = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t kernel_executions = 0;
  std::vector<double> latencies_ms;
  std::vector<std::uint64_t> digests;
  double elapsed_s = 0.0;
  double peak_rss_mib = 0.0;
  /// Per step of a round: the fastest repeat of the step's wall time and of
  /// each of its jobs' latencies.
  std::vector<double> best_step_s;
  std::vector<std::vector<double>> best_job_ms;
  /// Steps that completed another number of jobs than the same step of the
  /// first round.
  std::uint64_t shape_mismatches = 0;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Runs step \p index of \p workload as one job of the loop, adding its
/// outcome to \p r.
void run_step(Workload& workload, std::size_t index, Tracer* tracer,
              LoopResult& r) {
  if (tracer != nullptr) tracer->set_job(static_cast<std::uint32_t>(index + 1));
  const Clock::time_point t0 = Clock::now();
  StepResult s;
  {
    ScopedSpan span(tracer, "bench.job", Layer::kBench);
    s = workload.step(index, tracer);
  }
  const Clock::time_point t1 = Clock::now();
  if (tracer != nullptr) tracer->set_job(0);
  const double step_s = seconds_between(t0, t1);
  r.elapsed_s += step_s;
  r.attempted += s.attempted;
  r.completed += s.completed;
  r.failed += s.failed;
  r.kernel_executions += s.kernel_executions;
  std::vector<double>& jobs_ms = s.latencies_ms;
  if (jobs_ms.empty() && s.completed > 0) jobs_ms.push_back(step_s * 1e3);
  r.latencies_ms.insert(r.latencies_ms.end(), jobs_ms.begin(), jobs_ms.end());
  r.digests.push_back(s.digest);
  ++r.steps;

  const std::size_t round = workload.round_steps();
  if (r.best_step_s.empty()) {
    r.best_step_s.assign(round, std::numeric_limits<double>::infinity());
    r.best_job_ms.assign(round, {});
  }
  const std::size_t slot = index % round;
  r.best_step_s[slot] = std::min(r.best_step_s[slot], step_s);
  std::vector<double>& best = r.best_job_ms[slot];
  if (index < round) {
    best = jobs_ms;
  } else if (best.size() != jobs_ms.size()) {
    ++r.shape_mismatches;
  } else {
    for (std::size_t j = 0; j < best.size(); ++j) {
      best[j] = std::min(best[j], jobs_ms[j]);
    }
  }
}

/// The loop's host-time figures. Every round runs the same jobs, so each
/// job has one sample per round. Other tenants of the host only ever add
/// time to a sample, in bursts of 0.1 s to tens of seconds, so a job's
/// fastest repeat is the closest estimate of its own cost, and the round
/// time is the sum of its steps' fastest repeats.
struct BestOf {
  std::size_t rounds = 0;
  double round_s = 0.0;
  double jobs_per_s = 0.0;
  double kexec_per_s = 0.0;
  std::vector<double> job_ms;  ///< fastest repeat of every job, ascending
};

BestOf best_of(const LoopResult& r, std::size_t round) {
  BestOf b;
  b.rounds = r.steps / round;
  if (b.rounds == 0) return b;
  for (double s : r.best_step_s) b.round_s += s;
  const auto rounds = static_cast<double>(b.rounds);
  b.jobs_per_s = static_cast<double>(r.completed) / rounds / b.round_s;
  b.kexec_per_s = static_cast<double>(r.kernel_executions) / rounds / b.round_s;
  for (const std::vector<double>& jobs : r.best_job_ms) {
    b.job_ms.insert(b.job_ms.end(), jobs.begin(), jobs.end());
  }
  std::sort(b.job_ms.begin(), b.job_ms.end());
  return b;
}

/// True when a loop that has run \p steps steps may stop: whole rounds
/// only, the sample complete.
bool may_stop(const Workload& workload, std::size_t steps) {
  const std::size_t round = workload.round_steps();
  const std::size_t min_steps =
      (workload.sample_steps() + round - 1) / round * round;
  return steps % round == 0 && steps >= min_steps;
}

/// Closed loop: each step starts when the previous one has finished. Runs
/// whole rounds until \p seconds have passed and kMinRounds rounds ran.
/// The peak RSS is read once kMinJobs jobs have completed, so it measures a
/// fixed amount of work, not however many jobs the host's speed fitted into
/// the run.
LoopResult run_loop(Workload& workload, double seconds) {
  LoopResult r;
  const Clock::time_point start = Clock::now();
  while (true) {
    if (may_stop(workload, r.steps)) {
      const double elapsed = seconds_between(start, Clock::now());
      const std::size_t rounds = r.steps / workload.round_steps();
      if ((elapsed >= seconds && rounds >= kMinRounds) ||
          elapsed >= kMaxLoopSeconds) {
        break;
      }
    }
    run_step(workload, r.steps, nullptr, r);
    if (r.peak_rss_mib == 0.0 && r.latencies_ms.size() >= kMinJobs) {
      r.peak_rss_mib = peak_rss_mib();
    }
  }
  r.elapsed_s = seconds_between(start, Clock::now());
  if (r.peak_rss_mib == 0.0) r.peak_rss_mib = peak_rss_mib();
  return r;
}

void print_counts(const char* pass, const Counts& counts) {
  for (const auto& [name, entry] : counts.all()) {
    std::printf("count %s %s %.17g %s\n", pass, name.c_str(), entry.first,
                entry.second.c_str());
  }
}

void print_checks(const CheckResult& checks) {
  std::printf("checks: %llu made, %llu failed\n",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  for (const std::string& m : checks.messages) {
    std::printf("check failed: %s\n", m.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// Appends one batch of set-up times to \p out.
void time_setups(Workload& workload, std::vector<double>& out) {
  std::size_t runs = 0;
  double total = 0.0;
  while (runs < kMinSetups || total < kSetupSeconds) {
    const Clock::time_point t0 = Clock::now();
    workload.setup(nullptr);
    out.push_back(seconds_between(t0, Clock::now()));
    total += out.back();
    ++runs;
  }
}

int run_untraced(Workload& workload, const Options& opt) {
  std::vector<double> setups;
  time_setups(workload, setups);

  const LoopResult loop = run_loop(workload, opt.seconds);

  CheckResult checks;
  SimMetrics sim;
  workload.finish(checks, sim);
  const Counts counts = workload.counts();
  const std::size_t round = workload.round_steps();
  checks.expect(loop.shape_mismatches == 0,
                std::to_string(loop.shape_mismatches) +
                    " steps completed another number of jobs than in the "
                    "first round");
  if (workload.repeats_outputs()) {
    std::size_t differing = 0;
    for (std::size_t i = round; i < loop.digests.size(); ++i) {
      if (loop.digests[i] != loop.digests[i % round]) ++differing;
    }
    checks.expect(differing == 0, std::to_string(differing) +
                                      " steps simulated other outputs than "
                                      "in the first round");
  }
  time_setups(workload, setups);
  std::sort(setups.begin(), setups.end());

  const BestOf best = best_of(loop, round);
  const std::vector<double>& lat = best.job_ms;
  const std::size_t n = lat.size();
  const bool enough = n >= kMinJobs && best.rounds >= kMinRounds;
  const double p50 = n > 0 ? nearest_rank(lat, 0.50) : 0.0;
  const double p90 = n > 0 ? nearest_rank(lat, 0.90) : 0.0;
  const double p99 = n > 0 ? nearest_rank(lat, 0.99) : 0.0;
  std::vector<double> as_run = loop.latencies_ms;
  std::sort(as_run.begin(), as_run.end());
  print_counts("sample", counts);
  print_checks(checks);
  std::printf(
      "loop: %zu rounds of %zu steps, %llu jobs attempted, %llu completed, "
      "%llu failed in %.3f s\n",
      best.rounds, round, static_cast<unsigned long long>(loop.attempted),
      static_cast<unsigned long long>(loop.completed),
      static_cast<unsigned long long>(loop.failed), loop.elapsed_s);
  std::printf(
      "job latency, fastest of %zu repeats, over the %zu jobs of a round: p50 "
      "%.4f ms, p90 %.4f ms (%zu beyond), p99 %.4f ms (%zu beyond)\n",
      best.rounds, n, p50, p90,
      n - static_cast<std::size_t>(std::ceil(0.90 * n)), p99,
      n - static_cast<std::size_t>(std::ceil(0.99 * n)));
  std::printf(
      "as run, every repeat counted: %.1f jobs/s, p50 %.4f ms, p99 %.4f ms; "
      "a round takes %.4f s at its fastest, %.4f s on average\n",
      static_cast<double>(loop.completed) / loop.elapsed_s,
      as_run.empty() ? 0.0 : nearest_rank(as_run, 0.50),
      as_run.empty() ? 0.0 : nearest_rank(as_run, 0.99), best.round_s,
      best.rounds ? loop.elapsed_s / static_cast<double>(best.rounds) : 0.0);
  std::printf("setup: median of %zu = %.6f s\n", setups.size(),
              setups[setups.size() / 2]);

  const std::vector<Metric> metrics = {
      {"setup_s", setups[setups.size() / 2], "s"},
      {"jobs_per_s", best.jobs_per_s, "1/s"},
      {"kexec_per_s", best.kexec_per_s, "1/s"},
      {"job_p50_ms", p50, "ms"},
      {"job_p90_ms", p90, "ms"},
      {"job_p99_ms", p99, "ms"},
      {"peak_rss_mb", loop.peak_rss_mib, "MiB"},
      {"sim_speedup_vs_risc", sim.speedup_vs_risc, "ratio"},
      {"sim_blocks_per_mcycle", sim.blocks_per_mcycle, "blocks/Mcycle"},
      {"sim_job_p99_cycles", sim.job_p99_cycles, "cycles"},
  };
  const bool correct = loop.failed == 0 && checks.failed == 0 && enough;
  if (!enough) {
    std::printf("too few jobs for a p99 (%zu) or too few rounds (%zu)\n", n,
                best.rounds);
  }
  print_result(correct, loop.attempted + checks.attempted,
               loop.failed + checks.failed + (enough ? 0 : 1), metrics);
  return 0;
}

/// Aggregate of every span with one name.
struct SpanStats {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  double work = 0.0;
  std::vector<double> durations_ns;

  double mean(double scale) const { return count ? total_ns / count / scale : 0.0; }
  double p50(double scale) const {
    if (durations_ns.empty()) return 0.0;
    std::vector<double> sorted = durations_ns;
    std::sort(sorted.begin(), sorted.end());
    return nearest_rank(sorted, 0.5) / scale;
  }
  /// Nanoseconds per unit of work.
  double ns_per_work() const { return work > 0.0 ? total_ns / work : 0.0; }
  /// Work units per second.
  double work_per_s() const { return total_ns > 0.0 ? work * 1e9 / total_ns : 0.0; }
};

/// Self time per layer, set-up spans (job 0) and job spans apart.
struct LayerSelfTimes {
  std::array<double, kNumLayers> setup_ns{};
  std::array<double, kNumLayers> jobs_ns{};
};

LayerSelfTimes layer_self_times(const Tracer& tracer,
                                const std::vector<std::int64_t>& self) {
  LayerSelfTimes t;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    (s.job == 0 ? t.setup_ns : t.jobs_ns)[static_cast<std::size_t>(s.layer)] +=
        static_cast<double>(self[i]);
  }
  return t;
}

std::vector<Metric> layer_metrics(const Tracer& tracer,
                                  const std::vector<std::int64_t>& self,
                                  const LayerSelfTimes& layers,
                                  const Counts& c, std::uint64_t jobs,
                                  double overhead) {
  std::map<std::string, SpanStats> spans;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    SpanStats& st = spans[s.name];
    const auto duration = static_cast<double>(s.end_ns - s.start_ns);
    ++st.count;
    st.total_ns += duration;
    st.self_ns += static_cast<double>(self[i]);
    st.work += s.work;
    st.durations_ns.push_back(duration);
  }
  auto get = [&spans](const std::string& name) -> const SpanStats& {
    static const SpanStats empty;
    const auto it = spans.find(name);
    return it == spans.end() ? empty : it->second;
  };

  std::vector<Metric> m;
  m.push_back({"workload.build_ms", get("workload.build").mean(1e6), "ms"});
  m.push_back({"isa.library_ms", get("isa.library").mean(1e6), "ms"});
  const SpanStats& run = get("sim.run_application");
  m.push_back({"sim.run_self_ns_per_block",
               run.work > 0.0 ? run.self_ns / run.work : 0.0, "ns"});
  m.push_back({"sim.reference_ms", get("sim.reference").mean(1e6), "ms"});
  m.push_back({"sim.machine_ms", get("sim.machine").mean(1e6), "ms"});
  const SpanStats& cmp = get("sim.run_cmp");
  m.push_back({"sim.cmp_self_ms", cmp.count ? cmp.self_ns / cmp.count / 1e6 : 0.0,
               "ms"});
  m.push_back({"sim.port_wait_share",
               c.ratio("cmp_core.port_wait_cycles", "cmp_core.active_cycles"),
               "ratio"});
  m.push_back({"sim.interconnect_share",
               c.ratio("cmp_core.interconnect_cycles", "cmp_core.active_cycles"),
               "ratio"});
  m.push_back({"sim.evictions_per_block",
               c.ratio("arbiter_stats.evictions_caused", "sim.blocks"), "count"});

  for (RtsKind kind : {RtsKind::kMrts, RtsKind::kMrtsOpt, RtsKind::kRispp,
                       RtsKind::kMorpheus, RtsKind::kOffline}) {
    const RtsSpanNames names = rts_span_names(kind);
    const std::string prefix = std::string("rts.") + rts_kind_name(kind);
    m.push_back({prefix + ".trigger_us", get(names.trigger).p50(1e3), "us"});
    m.push_back({prefix + ".exec_ns_per_kexec", get(names.execute).ns_per_work(),
                 "ns"});
  }
  m.push_back({"rts.observed_exec_ns_per_kexec",
               get(rts_span_names(RtsKind::kMrtsObserved).execute).ns_per_work(),
               "ns"});
  double block_end_ns = 0.0;
  std::uint64_t block_ends = 0;
  for (RtsKind kind :
       {RtsKind::kMrts, RtsKind::kMrtsOpt, RtsKind::kMrtsObserved}) {
    const SpanStats& st = get(rts_span_names(kind).block_end);
    block_end_ns += st.total_ns;
    block_ends += st.count;
  }
  m.push_back({"rts.block_end_ns", block_ends ? block_end_ns / block_ends : 0.0,
               "ns"});
  m.push_back({"rts.profit_evals_per_trigger",
               c.ratio("run_stats.profit_evaluations", "run_stats.triggers"),
               "count"});
  m.push_back({"rts.blocking_cycles_per_trigger",
               c.ratio("run_stats.total_blocking_cycles", "run_stats.triggers"),
               "cycles"});
  m.push_back({"rts.snapshot_build_us", get("rts.build_snapshot").mean(1e3), "us"});
  m.push_back({"rts.snapshot_apply_us", get("rts.apply_snapshot").mean(1e3), "us"});
  m.push_back({"rts.snapshot_kb",
               c.ratio("snapshot.bytes", "snapshot.count") / 1024.0, "KiB"});

  const double loads =
      c.get("reconfig_stats.fg_loads") + c.get("reconfig_stats.cg_loads");
  const double triggers = c.get("run_stats.triggers");
  const double reused = c.get("reconfig_stats.reused_instances");
  m.push_back({"arch.loads_per_trigger", triggers > 0 ? loads / triggers : 0.0,
               "count"});
  m.push_back({"arch.cancelled_load_share",
               loads > 0 ? c.get("reconfig_stats.cancelled_loads") / loads : 0.0,
               "ratio"});
  m.push_back({"arch.reuse_share",
               reused + loads > 0 ? reused / (reused + loads) : 0.0, "ratio"});
  m.push_back({"arch.fault_retries_per_load",
               loads > 0 ? c.get("fault_stats.retries") / loads : 0.0, "count"});
  m.push_back({"arch.quarantined", c.ratio("fault_stats.quarantined", "sim.jobs"),
               "count"});

  const SpanStats& analyze = get("obs.analyze_trace");
  m.push_back({"obs.analyze_us_per_kevent", analyze.ns_per_work(), "us"});
  m.push_back({"obs.report_json_us", get("obs.write_report_json").mean(1e3), "us"});

  m.push_back({"util.jsonl_write_mb_per_s",
               get("util.write_jsonl").work_per_s() / 1e6, "MB/s"});
  m.push_back({"util.jsonl_parse_kevents_per_s",
               get("util.parse_jsonl").work_per_s() / 1e3, "1/s"});
  m.push_back({"util.chrome_write_mb_per_s",
               get("util.write_chrome").work_per_s() / 1e6, "MB/s"});
  m.push_back({"util.trace_events_per_kexec",
               c.ratio("trace.events", "trace.kernel_executions"), "count"});

  m.push_back({"serve.submit_us", get("serve.submit").p50(1e3), "us"});
  m.push_back({"serve.poll_us", get("serve.poll_report").p50(1e3), "us"});
  m.push_back({"serve.run_next_us", get("serve.run_next").mean(1e3), "us"});
  const SpanStats& hello = get("serve.hello");
  m.push_back({"serve.session_us",
               hello.count ? (hello.total_ns + get("serve.disconnect").total_ns) /
                                 hello.count / 1e3
                           : 0.0,
               "us"});
  m.push_back({"serve.client_codec_mb_per_s",
               get("serve.client_codec").work_per_s() / 1e6, "MB/s"});
  m.push_back({"serve.report_kb_per_job",
               c.ratio("serve.report_bytes", "serve.jobs_done") / 1024.0, "KiB"});
  m.push_back({"serve.refused_share",
               c.ratio("serve.jobs_bounced", "serve.jobs_submitted"), "ratio"});
  m.push_back({"serve.resident_jobs_max", c.get("serve.resident_jobs_max"),
               "count"});
  m.push_back({"serve.job_log_lines", c.get("serve.job_log_lines"), "count"});

  m.push_back({"bench.trace_overhead_share", overhead, "ratio"});
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    m.push_back({std::string(layer_name(static_cast<Layer>(l))) +
                     ".self_us_per_job",
                 jobs ? layers.jobs_ns[l] / 1e3 / static_cast<double>(jobs)
                      : 0.0,
                 "us"});
  }
  return m;
}

int run_traced(Workload& plain, Workload& workload, const Options& opt) {
  // Two instances of the workload run the same jobs, one untraced and one
  // with spans around every call into a layer. Their steps alternate, so
  // host-speed drift cancels out of the tracing-overhead ratio.
  Tracer tracer;
  plain.setup(nullptr);
  workload.setup(&tracer);
  LoopResult untraced;
  LoopResult traced;
  while (!(may_stop(plain, untraced.steps) &&
           untraced.elapsed_s >= opt.seconds / 2)) {
    run_step(plain, untraced.steps, nullptr, untraced);
    run_step(workload, traced.steps, &tracer, traced);
  }
  const Counts& plain_counts = plain.counts();

  CheckResult checks;
  SimMetrics sim;
  workload.finish(checks, sim);
  checks.expect(traced.digests == untraced.digests,
                "traced pass simulated different outputs");
  checks.expect(workload.counts() == plain_counts,
                "traced pass produced different simulated counts");

  print_counts("untraced", plain_counts);
  print_counts("traced", workload.counts());
  print_checks(checks);
  const double overhead = traced.elapsed_s / untraced.elapsed_s - 1.0;
  std::printf("tracing overhead: %zu steps, untraced %.3f s, traced %.3f s, "
              "share %.4f\n",
              traced.steps, untraced.elapsed_s, traced.elapsed_s, overhead);

  const std::vector<std::int64_t> self = tracer.self_ns();
  const LayerSelfTimes layers = layer_self_times(tracer, self);
  std::printf("layer self time (ms): set-up / jobs\n");
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    std::printf("  %-10s %12.3f %12.3f\n", layer_name(static_cast<Layer>(l)),
                layers.setup_ns[l] / 1e6, layers.jobs_ns[l] / 1e6);
  }

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string path = opt.out_dir + "/" + opt.workload + "_seed" +
                           std::to_string(opt.seed) + ".json";
  checks.expect(tracer.write_chrome(path, kMaxChromeSpans),
                "cannot write spans to " + path);
  std::printf("wrote %zu of %zu spans to %s\n",
              std::min(tracer.spans().size(), kMaxChromeSpans),
              tracer.spans().size(), path.c_str());

  const std::vector<Metric> metrics = layer_metrics(
      tracer, self, layers, workload.counts(), traced.attempted, overhead);
  const std::uint64_t failed = untraced.failed + traced.failed + checks.failed;
  print_result(failed == 0,
               untraced.attempted + traced.attempted + checks.attempted, failed,
               metrics);
  return 0;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "fig_grid") return make_fig_grid(opt.seed, opt.root);
  if (opt.workload == "serve_stream") return make_serve_stream(opt.seed);
  if (opt.workload == "cmp_shared") return make_cmp_shared(opt.seed);
  if (opt.workload == "trace_resume") return make_trace_resume(opt.seed);
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fig_grid|serve_stream|cmp_shared|"
               "trace_resume> --seed <n> --seconds <s> --trace <0|1> "
               "[--root <dir>] [--out-dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--root") {
        opt.root = value;
      } else if (flag == "--out-dir") {
        opt.out_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(opt.seconds > 0.0)) return usage();

  std::unique_ptr<Workload> workload = make_workload(opt);
  if (workload == nullptr) return usage();
  try {
    if (opt.trace) {
      const std::unique_ptr<Workload> plain = make_workload(opt);
      return run_traced(*plain, *workload, opt);
    }
    return run_untraced(*workload, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
