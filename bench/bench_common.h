#pragma once
/// \file bench_common.h
/// Shared helpers for the figure-regeneration benches. Every bench binary
/// reproduces one table/figure of the paper's evaluation section: it runs
/// the full simulation, prints the figure's rows/series as an ASCII table
/// and dumps a CSV (<bench>.csv) for external plotting.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/morpheus4s_rts.h"
#include "baselines/offline_optimal_rts.h"
#include "baselines/rispp_rts.h"
#include "baselines/risc_only_rts.h"
#include "rts/mrts.h"
#include "sim/app_simulator.h"
#include "sim/machine.h"
#include "sim/metrics.h"
#include "sim/sweep_runner.h"
#include "util/cli_spec.h"
#include "util/counters.h"
#include "util/csv.h"
#include "util/fastpath.h"
#include "util/table.h"
#include "util/trace.h"
#include "workload/h264_app.h"

namespace mrts::bench {

/// MRTS_BENCH_FRAMES: the frame count the benches scale their workload by
/// (16 = full size; smoke runs use 2). Read once; a malformed value is an
/// input error (exit 2), never read as some other number.
inline unsigned bench_frames() {
  static const unsigned frames = [] {
    std::uint64_t n = 16;
    const char* env = std::getenv("MRTS_BENCH_FRAMES");
    if (env != nullptr && !parse_count(env, 1, 100000, &n)) {
      std::fprintf(stderr, "error: invalid MRTS_BENCH_FRAMES '%s' (expected "
                           "an integer in [1,100000])\n", env);
      std::exit(2);
    }
    return static_cast<unsigned>(n);
  }();
  return frames;
}

/// Evaluation workload of Section 5: the H.264 encoder model at CIF size,
/// bench_frames() frames long.
inline H264AppParams eval_params() {
  H264AppParams params;
  params.frames = bench_frames();
  params.macroblocks = 396;
  return params;
}

struct EvalContext {
  H264Application app;
  std::vector<BlockProfile> profile;
  Cycles risc_cycles = 0;

  explicit EvalContext(const H264AppParams& params = eval_params())
      : app(build_h264_application(params)),
        profile(profile_application(app.trace, app.library)) {
    RiscOnlyRts risc(app.library);
    risc_cycles = run_application(risc, app.trace).total_cycles;
  }

  /// \p recorder / \p counters (optional) attach a flight recorder to the
  /// freshly built MRts. Both must be per sweep point — never pass the same
  /// instances to concurrently running points.
  AppRunResult run_mrts(unsigned cg, unsigned prcs, MRtsConfig config = {},
                        TraceRecorder* recorder = nullptr,
                        CounterRegistry* counters = nullptr) const {
    // One single-core private-fabric machine per sweep point: the Machine
    // performs exactly the legacy `MRts(lib, cg, prcs, config)` construction
    // and the attach-before-run ordering (sim/machine.h).
    MachineConfig mc;
    mc.prcs = prcs;
    mc.cg_fabrics = cg;
    Machine machine(app.library, mc);
    RuntimeSystem& base = machine.add_rts(config);
    if (recorder != nullptr || counters != nullptr) {
      machine.attach_observability(recorder, counters);
    }
    return run_application(base, app.trace, recorder);
  }

  AppRunResult run_rispp(unsigned cg, unsigned prcs) const {
    RisppRts rts(app.library, cg, prcs);
    return run_application(rts, app.trace);
  }

  AppRunResult run_morpheus(unsigned cg, unsigned prcs) const {
    Morpheus4sRts rts(app.library, cg, prcs, profile);
    return run_application(rts, app.trace);
  }

  AppRunResult run_offline_optimal(unsigned cg, unsigned prcs) const {
    OfflineOptimalRts rts(app.library, cg, prcs, profile);
    return run_application(rts, app.trace);
  }
};

/// The flags a bench can honour; every bench also takes --no-bb-cache.
enum class BenchFlag { kJobs, kTraceDir, kFaultRate, kFaultSeed, kMaxRetries };

/// The running bench's checked command line, looked up by flag name
/// (`bench_args()["--trace-dir"].text`): written once by parse_bench_args
/// in main() before any sweep fans out, read-only afterwards. Looking up a
/// flag the bench does not honour throws.
inline CliArgs& bench_args() {
  static CliArgs args;
  return args;
}

/// --jobs: sweep workers; 0 = one per hardware thread.
inline unsigned bench_jobs() {
  return static_cast<unsigned>(bench_args()["--jobs"].count);
}

/// The one bench front end: checks MRTS_BENCH_FRAMES, then parses argv
/// against the rows of exactly the flags \p honoured names (plus
/// --no-bb-cache) and strips them. With \p google_benchmark, `--benchmark_*`
/// tokens stay in argv for benchmark::Initialize, which must run after this;
/// anything else unknown is a usage error. Stores the result in
/// bench_args(). Exits like the tools: 0 after --help, 1 on a usage error,
/// 2 on a bad value.
inline void parse_bench_args(int* argc, char** argv,
                             std::initializer_list<BenchFlag> honoured,
                             bool google_benchmark = true) {
  (void)bench_frames();
  const CliArg rows[] = {  // one per BenchFlag, in enum order
      cli_count("--jobs", "<n>", 0, 1024, "0",
                "sweep workers; 0 = one per hardware thread, 1 = serial"),
      cli_text("--trace-dir", "<dir>",
               "write one Chrome trace per mRTS sweep point into <dir>"),
      cli_probability("--fault-rate", "<p>", "0", "mRTS fault rate"),
      cli_count("--fault-seed", "<n>", 0, kCliMaxCount, "42", "fault seed"),
      cli_count("--max-retries", "<n>", 0, 1000, "3", "per-load retries"),
  };
  CliSpec spec(std::filesystem::path(argv[0]).filename().string(),
               google_benchmark
                   ? "mRTS bench; --benchmark_* flags go to google-benchmark"
                   : "mRTS bench");
  CliVerb& verb = spec.add_verb("", "");
  for (const BenchFlag flag : honoured) {
    verb.flags.push_back(rows[static_cast<int>(flag)]);
  }
  verb.flags.push_back(cli_switch(
      "--no-bb-cache",
      "run the per-event frame loop instead of the batched fast path "
      "(outputs stay bit-identical)"));

  std::vector<std::string> tokens;
  int kept = 1;  // argv[0] always kept
  for (int i = 1; i < *argc; ++i) {
    if (google_benchmark &&
        std::string_view(argv[i]).starts_with("--benchmark_")) {
      argv[kept++] = argv[i];
    } else {
      tokens.emplace_back(argv[i]);
    }
  }
  *argc = kept;
  argv[kept] = nullptr;

  CliArgs& args = bench_args();
  args = CliSpec::parse(verb, tokens);
  if (args.help) {
    std::fputs(spec.help().c_str(), stdout);
    std::exit(0);
  }
  if (args.status != 0) std::exit(spec.report(args));
  if (args["--no-bb-cache"].given) set_fastpath_enabled(false);
}

/// Writes one sweep point's events as Chrome trace JSON into \p dir
/// (created on demand). Concurrent sweep points may call this — each point
/// writes a distinct \p filename, so there is no shared state. Returns the
/// written path, or an empty string on failure.
inline std::string write_point_trace(const std::string& dir,
                                     const std::string& filename,
                                     const std::vector<TraceEvent>& events,
                                     const IseLibrary* lib) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = (std::filesystem::path(dir) / filename).string();
  if (!write_chrome_trace_file(path, events, lib)) {
    std::fprintf(stderr, "warning: cannot write trace '%s'\n", path.c_str());
    return {};
  }
  return path;
}

/// Renders a merged counter registry (a compact per-sweep summary).
inline void print_counter_summary(const char* what,
                                  const CounterRegistry& counters) {
  if (counters.empty()) return;
  TextTable table({"counter", "value"});
  for (const auto& [name, value] : counters.counters()) {
    table.add_values(name, value);
  }
  for (const auto& [name, h] : counters.histograms()) {
    table.add_values(name + " (mean)", format_double(h.mean(), 2));
  }
  std::printf("\n%s — merged mRTS counters (submission order):\n%s", what,
              table.render().c_str());
}

/// Runs \p run_sweep (which is expected to drive a SweepRunner with \p jobs
/// workers) and prints the sweep's wall-clock and worker count, so the
/// --jobs speedup is visible in the harness output.
template <typename Fn>
void timed_sweep(const char* what, unsigned jobs, Fn&& run_sweep) {
  const SweepRunner runner(jobs);
  const auto t0 = std::chrono::steady_clock::now();
  run_sweep(runner);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  std::printf("[sweep] %s: %u worker(s), %.3f s wall-clock\n", what,
              runner.jobs(), seconds);
}

}  // namespace mrts::bench
