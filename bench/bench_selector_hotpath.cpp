// Wall-clock microbenchmark of the ISE-selection hot path — the repo's
// perf-trajectory harness (docs/BENCHMARKS.md). Unlike every fig bench, this
// one measures *seconds*, not simulated cycles: it times raw
// HeuristicSelector::select() and OptimalSelector::select() calls over the
// fig8/fig9 fabric grid (PRCs 0..6 x CG 0..3, RISC-only corner excluded).
// Each selector is timed with one SelectorTuning switch off and on, the two
// interleaved in the same process on byte-identical inputs:
//
//   heuristic  memoize_profits      memo off vs on, incremental planner on
//   optimal    incremental_planner  planner copied per search node vs
//                                   commit/rollback on one planner
//
// Per grid point the fabric is warmed realistically: the H.264 trigger
// sequence is replayed with select()+install() between snapshots, so the
// timed planners carry genuine port backlogs and reusable instances. Every
// snapshot first cross-checks that both settings return identical
// SelectionResults — the switches must never change a selection — and then
// contributes interleaved timing samples.
//
// Output: BENCH_selector.json (median ns per select() per setting, speedup,
// the heuristic's profit-cache hit rate, operator-new allocations per
// select). Timings are machine-dependent by nature; the JSON is a
// perf-tracking artifact, not a determinism-checked figure.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <new>
#include <vector>

#include "bench_common.h"

// Allocation probe: counts every global operator new in this binary. The
// bench is strictly single-threaded (timing would be meaningless otherwise),
// so a plain counter suffices.
namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mrts;
using namespace mrts::bench;
using Clock = std::chrono::steady_clock;

const EvalContext& context() {
  static const EvalContext ctx;
  return ctx;
}

/// One timed decision point: a trigger plus the planner snapshot a real
/// on_trigger() would hand the selector at that moment.
struct Snapshot {
  TriggerInstruction trigger;
  ReconfigPlanner planner;
};

/// Replays the application's trigger sequence on a fresh fabric of the given
/// size, collecting a planner snapshot per trigger and evolving the fabric
/// with the selected installation in between (exactly MRts::on_trigger's
/// select -> install sequence, minus the execution model).
std::vector<Snapshot> collect_snapshots(unsigned prcs, unsigned cg,
                                        std::size_t max_snapshots) {
  const EvalContext& ctx = context();
  const IseLibrary& lib = ctx.app.library;
  FabricManager fabric(cg, prcs, &lib.data_paths());
  HeuristicSelector evolve(lib);
  std::vector<Snapshot> out;
  Cycles now = 0;
  for (const FunctionalBlockInstance& block : ctx.app.trace.blocks) {
    if (out.size() >= max_snapshots) break;
    ReconfigPlanner planner(lib.data_paths(), fabric, now);
    out.push_back({block.programmed, planner});
    const SelectionResult sel = evolve.select(block.programmed, planner);
    std::vector<IsePlacementRequest> requests;
    requests.reserve(sel.selected.size());
    for (const auto& s : sel.selected) {
      requests.push_back({s.ise, s.kernel, lib.ise(s.ise).data_paths});
    }
    fabric.install(requests, now);
    // Advance roughly one block length so later snapshots see drained ports
    // and earlier ones see them busy — both regimes matter.
    now += 150'000;
  }
  return out;
}

bool same_selection(const SelectionResult& a, const SelectionResult& b) {
  if (a.selected.size() != b.selected.size()) return false;
  for (std::size_t i = 0; i < a.selected.size(); ++i) {
    const SelectedIse& x = a.selected[i];
    const SelectedIse& y = b.selected[i];
    if (x.kernel != y.kernel || x.ise != y.ise || x.profit != y.profit ||
        x.instance_ready != y.instance_ready) {
      return false;
    }
  }
  return a.covered == b.covered &&
         a.profit_evaluations == b.profit_evaluations &&
         a.candidates_scanned == b.candidates_scanned &&
         a.first_round_evaluations == b.first_round_evaluations &&
         a.first_round_scans == b.first_round_scans &&
         a.overhead_cycles == b.overhead_cycles &&
         a.total_profit == b.total_profit;
}

/// Accumulated measurements of one selector variant.
struct VariantStats {
  std::vector<double> ns;         ///< per-call samples, interleaved A/B
  std::uint64_t allocs = 0;       ///< operator-new count over counted calls
  std::uint64_t counted_calls = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[mid];
}

/// One selector's A/B: the named SelectorTuning switch off and on.
struct HotpathReport {
  const char* toggled = "";
  VariantStats off, on;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  double speedup() const {
    const double t = median(on.ns);
    return t > 0.0 ? median(off.ns) / t : 0.0;
  }
  double hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total != 0 ? static_cast<double>(cache_hits) /
                            static_cast<double>(total)
                      : 0.0;
  }
  double allocs_per_select(const VariantStats& v) const {
    return v.counted_calls != 0 ? static_cast<double>(v.allocs) /
                                      static_cast<double>(v.counted_calls)
                                : 0.0;
  }
};

/// Times one (switch off, switch on) selector pair over the snapshots,
/// interleaving the two on every repetition so clock drift and cache warmth
/// affect both sides equally.
template <typename Selector>
void measure_pair(const Selector& off, const Selector& on,
                  const std::vector<Snapshot>& snapshots, unsigned reps,
                  HotpathReport& report) {
  for (const Snapshot& snap : snapshots) {
    // Correctness gate (also counts allocations per variant, untimed).
    const std::uint64_t a0 = g_alloc_count;
    const SelectionResult expect = off.select(snap.trigger, snap.planner);
    report.off.allocs += g_alloc_count - a0;
    ++report.off.counted_calls;
    const std::uint64_t a1 = g_alloc_count;
    const SelectionResult got = on.select(snap.trigger, snap.planner);
    report.on.allocs += g_alloc_count - a1;
    ++report.on.counted_calls;
    if (!same_selection(expect, got)) {
      std::fprintf(stderr,
                   "FATAL: %s on diverged from %s off (PRC budget %u, CG %u, "
                   "cycle %llu)\n",
                   report.toggled, report.toggled, snap.planner.free_prcs(),
                   snap.planner.free_cg(),
                   static_cast<unsigned long long>(snap.planner.now()));
      std::exit(1);
    }
    for (unsigned r = 0; r < reps; ++r) {
      const auto b0 = Clock::now();
      const SelectionResult rb = off.select(snap.trigger, snap.planner);
      const auto b1 = Clock::now();
      benchmark::DoNotOptimize(&rb);
      const auto t0 = Clock::now();
      const SelectionResult rt = on.select(snap.trigger, snap.planner);
      const auto t1 = Clock::now();
      benchmark::DoNotOptimize(&rt);
      report.off.ns.push_back(
          std::chrono::duration<double, std::nano>(b1 - b0).count());
      report.on.ns.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
  }
}

HotpathReport g_heuristic;
HotpathReport g_optimal;

void run_grid(unsigned reps, std::size_t max_snapshots) {
  const IseLibrary& lib = context().app.library;

  // Heuristic: the memo off and on, the incremental planner on in both.
  HeuristicSelector h_off(lib);
  h_off.set_tuning({/*memoize_profits=*/false, /*incremental_planner=*/true});
  HeuristicSelector h_on(lib);
  ProfitCache h_cache;
  h_on.attach_profit_cache(&h_cache);
  g_heuristic.toggled = "memoize_profits";

  // Optimal: a planner copy per search node against commit/rollback.
  OptimalSelector o_off(lib);
  o_off.set_tuning(SelectorTuning::baseline());
  OptimalSelector o_on(lib);
  g_optimal.toggled = "incremental_planner";

  for (const FabricCombination& combo : fabric_sweep(6, 3)) {
    if (combo.risc_only()) continue;  // nothing to select
    const std::vector<Snapshot> snapshots =
        collect_snapshots(combo.prcs, combo.cg, max_snapshots);
    measure_pair(h_off, h_on, snapshots, reps, g_heuristic);
    measure_pair(o_off, o_on, snapshots, reps, g_optimal);
  }
  g_heuristic.cache_hits = h_cache.total_hits();
  g_heuristic.cache_misses = h_cache.total_misses();
}

void write_json(unsigned frames, unsigned reps) {
  std::FILE* f = std::fopen("BENCH_selector.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write BENCH_selector.json\n");
    return;
  }
  // The memo fields only for the selector that has a memo.
  const auto variant = [f](const char* name, const HotpathReport& r,
                           bool memo) {
    std::fprintf(f,
                 "  \"%s\": {\n"
                 "    \"switch\": \"%s\",\n"
                 "    \"off_ns_median\": %.1f,\n"
                 "    \"on_ns_median\": %.1f,\n"
                 "    \"speedup\": %.2f,\n",
                 name, r.toggled, median(r.off.ns), median(r.on.ns),
                 r.speedup());
    if (memo) {
      std::fprintf(f,
                   "    \"cache_hit_rate\": %.4f,\n"
                   "    \"cache_hits\": %llu,\n"
                   "    \"cache_misses\": %llu,\n",
                   r.hit_rate(), static_cast<unsigned long long>(r.cache_hits),
                   static_cast<unsigned long long>(r.cache_misses));
    }
    std::fprintf(f,
                 "    \"allocs_per_select_off\": %.1f,\n"
                 "    \"allocs_per_select_on\": %.1f,\n"
                 "    \"samples\": %zu\n"
                 "  }",
                 r.allocs_per_select(r.off), r.allocs_per_select(r.on),
                 r.on.ns.size());
  };
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"mrts-selector-hotpath-v2\",\n"
               "  \"grid\": \"PRC 0..6 x CG 0..3, RISC-only corner "
               "excluded\",\n"
               "  \"frames\": %u,\n"
               "  \"reps\": %u,\n",
               frames, reps);
  variant("optimal", g_optimal, false);
  std::fprintf(f, ",\n");
  variant("heuristic", g_heuristic, true);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

void print_report() {
  TextTable table({"selector", "switch", "off ns", "on ns", "speedup",
                   "hit rate", "allocs off", "allocs on"});
  const auto row = [&table](const char* name, const HotpathReport& r,
                            bool memo) {
    table.add_values(name, r.toggled, format_double(median(r.off.ns), 0),
                     format_double(median(r.on.ns), 0),
                     format_double(r.speedup(), 2) + "x",
                     memo ? format_double(100.0 * r.hit_rate(), 1) + "%"
                          : std::string("-"),
                     format_double(r.allocs_per_select(r.off), 1),
                     format_double(r.allocs_per_select(r.on), 1));
  };
  row("optimal", g_optimal, false);
  row("heuristic", g_heuristic, true);
  std::printf("\nSelector hot path — median wall-clock per select() over the "
              "fig9 grid, one tuning switch off vs on, interleaved "
              "(written to BENCH_selector.json)\n%s",
              table.render().c_str());
}

/// Reporting stubs so the result lands in the google-benchmark output too.
void BM_SelectorHotpath(benchmark::State& state) {
  const HotpathReport& r = state.range(0) == 0 ? g_optimal : g_heuristic;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&r);
  }
  state.counters["speedup"] = r.speedup();
  state.counters["on_ns_median"] = median(r.on.ns);
}

void register_benchmarks() {
  benchmark::RegisterBenchmark("BM_SelectorHotpath/optimal",
                               BM_SelectorHotpath)
      ->Args({0})
      ->Iterations(1);
  benchmark::RegisterBenchmark("BM_SelectorHotpath/heuristic",
                               BM_SelectorHotpath)
      ->Args({1})
      ->Iterations(1);
}

}  // namespace

int main(int argc, char** argv) {
  // No --jobs: this bench is deliberately single-threaded (parallel timing
  // samples would be noise).
  parse_bench_args(&argc, argv, {});
  ::benchmark::Initialize(&argc, argv);
  const unsigned frames = eval_params().frames;
  // Smoke runs (MRTS_BENCH_FRAMES=2 in CI) shrink both the warm-up depth and
  // the repetition count; the committed JSON comes from a full run.
  const unsigned reps = frames >= 8 ? 9 : 3;
  const std::size_t max_snapshots = frames >= 8 ? 10 : 4;
  run_grid(reps, max_snapshots);
  register_benchmarks();
  ::benchmark::RunSpecifiedBenchmarks();
  print_report();
  write_json(frames, reps);
  return 0;
}
