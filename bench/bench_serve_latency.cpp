// bench_serve_latency — the serving-layer perf artifact (BENCH_serve.json).
//
// Drives ServeCore directly (no sockets: the AF_UNIX shell adds OS noise,
// the core is where jobs queue and run) with the same deterministic job mix
// mrts_loadgen generates: seeded pseudo-random share policies, weights,
// classes and block counts, including oversized reservations that bounce.
// Records, per mix, the admission-to-completion latency distribution in
// *simulated cycles* (p50/p99/mean — deterministic, the committable
// trajectory) plus wall-clock jobs/second of the whole submit+run+poll loop
// (machine-dependent context, like the other BENCH_*.json artifacts).
//
// Schema `mrts-serve-bench-v1` is documented in docs/BENCHMARKS.md.
//
// MRTS_BENCH_FRAMES=<n> shrinks the job count for the CI smoke run; the
// committed BENCH_serve.json comes from the full-size default. It is not a
// google-benchmark binary, so it takes no --benchmark_* flags.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serve/serve_core.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace {

using namespace mrts;
using namespace mrts::serve;

/// The loadgen job mix (tools/mrts_loadgen.cpp make_job), reproduced here
/// so the bench measures the same distribution the churn tool drives.
SubmitFrame make_job(Rng& rng, const ServeConfig& shape, std::uint64_t index) {
  SubmitFrame job;
  job.name = "bench" + std::to_string(index);
  const std::uint64_t mix = rng.next_u64() % 10;
  if (mix < 6) {
    job.share = static_cast<std::uint8_t>(WireShare::kWeighted);
    job.weight = 1 + static_cast<std::uint32_t>(rng.next_u64() % 4);
  } else if (mix < 8) {
    job.share = static_cast<std::uint8_t>(WireShare::kBestEffort);
  } else {
    job.share = static_cast<std::uint8_t>(WireShare::kReserved);
    job.reserved_prcs =
        1 + static_cast<std::uint32_t>(rng.next_u64() % (shape.prcs + 1));
    job.reserved_cg = static_cast<std::uint32_t>(rng.next_u64() % 2);
  }
  job.priority = static_cast<std::uint32_t>(rng.next_u64() % 3);
  job.job_class = static_cast<std::uint32_t>(rng.next_u64() % shape.job_classes);
  job.blocks = 1 + static_cast<std::uint32_t>(rng.next_u64() % 2);
  job.seed = rng.next_u64();
  return job;
}

std::uint64_t percentile(std::vector<std::uint64_t> sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t index = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

struct MixResult {
  std::string name;
  std::uint64_t jobs = 0;
  std::uint64_t done = 0;
  std::uint64_t bounced = 0;
  std::uint64_t p50_cycles = 0;
  std::uint64_t p99_cycles = 0;
  double mean_cycles = 0.0;
  double wall_s = 0.0;
  double jobs_per_s = 0.0;
};

/// One measured configuration: \p batch jobs are submitted before each
/// drain, so queueing delay (earlier jobs' spans) lands in the latency of
/// later jobs exactly as it does on the live server between poll rounds.
MixResult run_mix(const std::string& name, std::uint64_t jobs,
                  std::uint64_t batch, std::uint64_t seed) {
  const ServeConfig config;  // the documented mrts_serve defaults
  ServeCore core(config);
  Rng rng(seed);

  MixResult result;
  result.name = name;
  result.jobs = jobs;

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t submitted = 0;
  while (submitted < jobs) {
    const std::uint64_t round = std::min(batch, jobs - submitted);
    for (std::uint64_t i = 0; i < round; ++i) {
      core.submit(1, make_job(rng, config, submitted + i));
    }
    submitted += round;
    core.run_all();
  }
  // Deliver every report, as a polling client would.
  std::vector<std::uint64_t> latencies;
  for (std::uint64_t id = 1; id <= core.jobs_created(); ++id) {
    JobStatusFrame status;
    if (!core.status(id, &status)) continue;
    switch (static_cast<WireJobState>(status.state)) {
      case WireJobState::kDone:
        ++result.done;
        latencies.push_back(status.latency_cycles);
        break;
      case WireJobState::kBounced:
        ++result.bounced;
        break;
      default:
        break;
    }
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  std::sort(latencies.begin(), latencies.end());
  result.p50_cycles = percentile(latencies, 0.50);
  result.p99_cycles = percentile(latencies, 0.99);
  double total = 0.0;
  for (std::uint64_t cycles : latencies) {
    total += static_cast<double>(cycles);
  }
  result.mean_cycles =
      latencies.empty() ? 0.0 : total / static_cast<double>(latencies.size());
  result.wall_s = wall.count();
  result.jobs_per_s =
      wall.count() > 0.0 ? static_cast<double>(jobs) / wall.count() : 0.0;
  return result;
}

void write_json(const std::vector<MixResult>& mixes, std::uint64_t jobs) {
  std::ofstream out("BENCH_serve.json");
  out << "{\n";
  out << "  \"schema\": \"mrts-serve-bench-v1\",\n";
  out << "  \"jobs_per_mix\": " << jobs << ",\n";
  out << "  \"latency_unit\": \"simulated cycles, admission to completion\",\n";
  out << "  \"mixes\": {\n";
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const MixResult& m = mixes[i];
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "    \"%s\": {\n"
                  "      \"done\": %llu,\n"
                  "      \"bounced\": %llu,\n"
                  "      \"p50_cycles\": %llu,\n"
                  "      \"p99_cycles\": %llu,\n"
                  "      \"mean_cycles\": %.1f,\n"
                  "      \"wall_s\": %.3f,\n"
                  "      \"jobs_per_s\": %.1f\n"
                  "    }%s\n",
                  m.name.c_str(), static_cast<unsigned long long>(m.done),
                  static_cast<unsigned long long>(m.bounced),
                  static_cast<unsigned long long>(m.p50_cycles),
                  static_cast<unsigned long long>(m.p99_cycles),
                  m.mean_cycles, m.wall_s, m.jobs_per_s,
                  i + 1 == mixes.size() ? "" : ",");
    out << buffer;
  }
  out << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  mrts::bench::parse_bench_args(&argc, argv, {}, /*google_benchmark=*/false);
  // The shared CI-smoke shrink knob: scale the job count the same way the
  // figure benches scale their frame counts (full size is 16 "frames").
  std::uint64_t jobs = 200;
  const std::uint64_t frames = mrts::bench::bench_frames();
  if (frames < 16) jobs = std::max<std::uint64_t>(4, jobs * frames / 16);

  // Three mixes: a pure FIFO single-submit stream (latency floor), the
  // loadgen churn batch (queueing under a burst of 8), and a deep burst.
  const std::vector<MixResult> mixes = {
      run_mix("single", jobs, 1, 2026),
      run_mix("burst8", jobs, 8, 2026),
      run_mix("burst32", jobs, 32, 2026),
  };

  std::printf("%-10s %8s %8s %12s %12s %12s %10s\n", "mix", "done", "bounced",
              "p50_cycles", "p99_cycles", "mean_cycles", "jobs/s");
  for (const MixResult& m : mixes) {
    std::printf("%-10s %8llu %8llu %12llu %12llu %12.1f %10.1f\n",
                m.name.c_str(), static_cast<unsigned long long>(m.done),
                static_cast<unsigned long long>(m.bounced),
                static_cast<unsigned long long>(m.p50_cycles),
                static_cast<unsigned long long>(m.p99_cycles), m.mean_cycles,
                m.jobs_per_s);
  }
  write_json(mixes, jobs);
  std::printf("wrote BENCH_serve.json\n");
  return 0;
}
