// Wall-clock microbenchmark of the ISE-selection hot path — the repo's
// perf-trajectory harness (docs/BENCHMARKS.md). Unlike every fig bench, this
// one measures *seconds*, not simulated cycles: it times raw
// HeuristicSelector::select() and OptimalSelector::select() calls over the
// fig8/fig9 fabric grid (PRCs 0..6 x CG 0..3, RISC-only corner excluded).
// Each selector is timed with SelectorTuning's one switch,
// incremental_planner, off and on, the two interleaved in the same process
// on byte-identical inputs:
//
//   heuristic  allocating per-candidate evaluation vs scratch buffers
//   optimal    planner copied per search node vs commit/rollback on one
//              planner (and scratch buffers)
//
// Per grid point the fabric is warmed realistically: the H.264 trigger
// sequence is replayed with select()+install() between snapshots, so the
// timed planners carry genuine port backlogs and reusable instances. Every
// snapshot first cross-checks that both settings return identical
// SelectionResults — the switch must never change a selection — and then
// contributes interleaved timing samples.
//
// Output: BENCH_selector.json (median ns per select() per setting, speedup,
// operator-new allocations per select). Timings are machine-dependent by
// nature; the JSON is a perf-tracking artifact, not a determinism-checked
// figure.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <new>
#include <vector>

#include "bench_common.h"

// Allocation probe: counts every global operator new in this binary. The
// bench is single-threaded, like the library, so a plain counter suffices.
// Every plain, array and nothrow form is replaced, so no allocation reaches
// a delete of another allocator (a sanitizer runtime supplies the forms a
// program leaves out).
namespace {
std::uint64_t g_alloc_count = 0;

void* counted_malloc(std::size_t size) noexcept {
  ++g_alloc_count;
  return std::malloc(size != 0 ? size : 1);
}

// Kept out of line: inlined into a caller's delete expression, GCC would
// see free() take a pointer from operator new (-Wmismatched-new-delete),
// although in this binary operator new is malloc.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

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

/// One selector's A/B: SelectorTuning::incremental_planner off and on.
struct HotpathReport {
  VariantStats off, on;

  double speedup() const {
    const double t = median(on.ns);
    return t > 0.0 ? median(off.ns) / t : 0.0;
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
void measure_pair(const char* name, const Selector& off, const Selector& on,
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
                   "FATAL: %s diverged from its baseline tuning (PRC budget "
                   "%u, CG %u, cycle %llu)\n",
                   name, snap.planner.free_prcs(), snap.planner.free_cg(),
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
  HeuristicSelector h_off(lib);
  h_off.set_tuning(SelectorTuning::baseline());
  HeuristicSelector h_on(lib);
  OptimalSelector o_off(lib);
  o_off.set_tuning(SelectorTuning::baseline());
  OptimalSelector o_on(lib);

  for (const FabricCombination& combo : fabric_sweep(6, 3)) {
    if (combo.risc_only()) continue;  // nothing to select
    const std::vector<Snapshot> snapshots =
        collect_snapshots(combo.prcs, combo.cg, max_snapshots);
    measure_pair("heuristic", h_off, h_on, snapshots, reps, g_heuristic);
    measure_pair("optimal", o_off, o_on, snapshots, reps, g_optimal);
  }
}

void write_json(unsigned frames, unsigned reps) {
  std::FILE* f = std::fopen("BENCH_selector.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write BENCH_selector.json\n");
    return;
  }
  const auto variant = [f](const char* name, const HotpathReport& r) {
    std::fprintf(f,
                 "  \"%s\": {\n"
                 "    \"off_ns_median\": %.1f,\n"
                 "    \"on_ns_median\": %.1f,\n"
                 "    \"speedup\": %.2f,\n"
                 "    \"allocs_per_select_off\": %.1f,\n"
                 "    \"allocs_per_select_on\": %.1f,\n"
                 "    \"samples\": %zu\n"
                 "  }",
                 name, median(r.off.ns), median(r.on.ns), r.speedup(),
                 r.allocs_per_select(r.off), r.allocs_per_select(r.on),
                 r.on.ns.size());
  };
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"mrts-selector-hotpath-v3\",\n"
               "  \"grid\": \"PRC 0..6 x CG 0..3, RISC-only corner "
               "excluded\",\n"
               "  \"switch\": \"incremental_planner\",\n"
               "  \"frames\": %u,\n"
               "  \"reps\": %u,\n",
               frames, reps);
  variant("optimal", g_optimal);
  std::fprintf(f, ",\n");
  variant("heuristic", g_heuristic);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

void print_report() {
  TextTable table({"selector", "off ns", "on ns", "speedup", "allocs off",
                   "allocs on"});
  const auto row = [&table](const char* name, const HotpathReport& r) {
    table.add_values(name, format_double(median(r.off.ns), 0),
                     format_double(median(r.on.ns), 0),
                     format_double(r.speedup(), 2) + "x",
                     format_double(r.allocs_per_select(r.off), 1),
                     format_double(r.allocs_per_select(r.on), 1));
  };
  row("optimal", g_optimal);
  row("heuristic", g_heuristic);
  std::printf("\nSelector hot path — median wall-clock per select() over the "
              "fig9 grid, incremental_planner off vs on, interleaved "
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
