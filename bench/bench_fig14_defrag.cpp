// Fig. 14 (extension beyond the paper): migration-based defragmentation
// recovery. The paper's machine never loses capacity; this harness runs a
// synthetic working set on one FG fabric under the full fault model at a 10%
// rate (load CRC failures, scrub upsets, permanent quarantines) and compares
// two modes:
//
//   baseline  — failed loads and failed scrub repairs leave their PRC empty
//               (arch/fabric_manager.cpp evicts the victim before streaming
//               and on repair failure), so holes open mid-fabric and persist
//               until the next working-set refresh; the fragmentation index
//               (obs/occupancy's 1 - r/f, evaluated live by rts/migration.h)
//               climbs between refreshes.
//   defrag    — every window the DefragPolicy compacts the surviving
//               configurations with live migrations
//               (FabricManager::migrate — real drain + copy streams on
//               the reconfiguration port), folding the free space back into
//               one contiguous run.
//
// Expected shape (pinned by the committed fig14_defrag_recovery.csv): every
// compaction pass strictly decreases the fragmentation index or bottoms out
// at its quarantine-topology floor (fg_fragmentation_floor); every pass
// drains its copy streams inside its own window; and the defrag machine
// keeps within 10% of the baseline's mean throughput — i.e. recovering the
// fragmentation index is close to free.
//
// Each mode owns its fabric and fault model (seeded identically), so each is
// deterministic in isolation; the timelines diverge once the first migration
// copy consumes a fault draw, exactly as two separately-provisioned machines
// would. The two modes run one after the other, baseline first.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arch/fabric_manager.h"
#include "arch/fault_model.h"
#include "bench_common.h"
#include "isa/ise_builder.h"
#include "rts/migration.h"

namespace {

using namespace mrts;
using namespace mrts::bench;

constexpr unsigned kPrcs = 24;
constexpr unsigned kCgFabrics = 1;  // unused by the FG scenario, minimum 1
/// Two disjoint phase working sets (the paper's phased applications): each
/// refresh swaps the whole set, so every refresh streams ~2*kSetKernels
/// loads over the previous set's PRCs — at a 10% CRC-failure rate that
/// scatters fresh holes through the middle of the fabric. A static working
/// set would only ever reload its own holes in place and never fragment.
constexpr unsigned kSetKernels = 11;  // per set, 2 FG data paths each
constexpr unsigned kKernels = 2 * kSetKernels;
constexpr unsigned kWindows = 32;
/// One window per scrub interval (FaultModelConfig default), so every window
/// starts with exactly one scrub epoch.
constexpr Cycles kWindowCycles = 2'000'000;
constexpr std::uint64_t kBitstreamBytes = 8192;  // ~48k cycles per FG load
constexpr double kFaultRate = 0.10;
constexpr std::uint64_t kFaultSeed = 14;
constexpr unsigned kExecsPerKernel = 64;  ///< executions per ready kernel
/// The working set refreshes (reinstalls every surviving kernel) every this
/// many windows; between refreshes, holes punched by failed loads and failed
/// scrub repairs persist — that persistence is what the baseline measures.
constexpr unsigned kPhaseWindows = 4;

/// One synthetic FG-only library: kKernels kernels, each accelerated by a
/// two-PRC full variant (small bitstreams keep the loads well inside a
/// window).
struct Scenario {
  IseLibrary lib;
  std::vector<KernelId> kernels;
  std::vector<IsePlacementRequest> full;  ///< per kernel, its 2-PRC variant

  Scenario() {
    for (unsigned k = 0; k < kKernels; ++k) {
      IseBuildSpec spec;
      spec.kernel_name = std::string("k").append(std::to_string(k));
      spec.sw_latency = 900;
      spec.control_fraction = 0.6;
      spec.fg_data_path_names = {spec.kernel_name + "_ctrl",
                                 spec.kernel_name + "_dp"};
      spec.build_mg_variants = false;
      spec.mono_cg_speedup = 0.0;
      spec.fg_bitstream_bytes = kBitstreamBytes;
      kernels.push_back(build_kernel_ises(lib, spec));
    }
    for (KernelId k : kernels) {
      const Kernel& kernel = lib.kernel(k);
      IsePlacementRequest req;
      for (IseId id : kernel.ises) {
        const IseVariant& v = lib.ise(id);
        if (v.is_fg_only() && v.num_data_paths() == 2) {
          req.ise = id;
          req.kernel = k;
          req.data_paths = v.data_paths;
        }
      }
      full.push_back(std::move(req));
    }
  }
};

const Scenario& scenario() {
  static const Scenario s;
  return s;
}

struct WindowRow {
  unsigned window = 0;
  unsigned usable_prcs = 0;
  unsigned installed_kernels = 0;
  double frag_before = 0.0;
  double frag_after = 0.0;
  double frag_floor = 0.0;  ///< irreducible given the quarantine topology
  unsigned migrations = 0;
  std::uint64_t executions = 0;
  double throughput = 0.0;  ///< executions per Mcycle
};

struct ModeResult {
  std::vector<WindowRow> rows;
  unsigned total_migrations = 0;
  bool monotone = true;  ///< every compacting pass strictly reduced 1 - r/f
  /// Every compaction's copy streams drained inside their own window, so a
  /// pass never carries a throughput penalty into the next window.
  bool copies_bounded = true;
};

/// One mode's full 16-window simulation. Owns fabric, fault model and
/// policy; only the immutable Scenario is shared between the modes.
ModeResult run_mode(bool defrag) {
  const Scenario& sc = scenario();
  FabricManager fabric(kCgFabrics, kPrcs, &sc.lib.data_paths());
  // max_retries = 0: a single CRC failure abandons the load, so ~10% of
  // streams leave their PRC empty — the hole source the defrag mode exists
  // to clean up (retries would repair most holes in place and the harness
  // would measure nothing).
  FaultModel fault(
      FaultModelConfig::uniform(kFaultRate, kFaultSeed, /*max_retries=*/0));
  fabric.attach_fault_model(&fault);
  DefragConfig config;
  config.enabled = true;
  config.min_fragmentation = 0.25;
  const DefragPolicy policy(config);

  ModeResult result;
  std::vector<IsePlacementRequest> selection;
  for (unsigned w = 0; w < kWindows; ++w) {
    const Cycles t0 = static_cast<Cycles>(w) * kWindowCycles;
    const Cycles t1 = t0 + kWindowCycles;
    WindowRow row;
    row.window = w;

    // One scrub epoch: upsets may quarantine a PRC (permanent) or stream a
    // repair whose own CRC failure leaves the PRC empty for this round.
    fabric.scrub(t0);

    // Phase change: swap to the other working set, as many of its kernels
    // as the post-quarantine capacity fits. Every data path of the new set
    // streams in over the old set's PRCs; ~10% of those streams fail and
    // leave their PRC empty mid-fabric until the next phase change.
    if (w % kPhaseWindows == 0) {
      const unsigned set = (w / kPhaseWindows) % 2;
      selection.clear();
      // Claim the whole usable fabric: every PRC the new set does not reuse
      // is evicted as a victim, so the free space after the refresh is
      // exactly the failed-load holes (stale residents of the old set would
      // otherwise soak up the slack and mask them).
      unsigned budget = fabric.usage().usable_prcs();
      for (unsigned k = 0; k < kSetKernels && budget >= 2; ++k) {
        selection.push_back(sc.full[set * kSetKernels + k]);
        budget -= 2;
      }
      fabric.install(selection, t0);
    }
    row.usable_prcs = fabric.usage().usable_prcs();
    row.installed_kernels = static_cast<unsigned>(selection.size());

    row.frag_before = fg_fragmentation(fabric);
    if (defrag) {
      const DefragReport rep = policy.recover(fabric, t0);
      row.frag_after = rep.fragmentation_after;
      row.frag_floor = fg_fragmentation_floor(fabric);
      row.migrations = rep.migrated;
      result.total_migrations += rep.migrated;
      // A compacting pass must strictly reduce the index unless it already
      // bottomed out: a quarantined PRC between the packed free slots makes
      // part of the index irreducible (fg_fragmentation_floor).
      if (rep.migrated > 0 &&
          !(rep.fragmentation_after < rep.fragmentation_before ||
            rep.fragmentation_after <= row.frag_floor + 1e-9)) {
        result.monotone = false;
      }
      if (rep.migrated > 0 && rep.ready_at > t1) result.copies_bounded = false;
    } else {
      row.frag_after = row.frag_before;
      row.frag_floor = fg_fragmentation_floor(fabric);
    }

    // Throughput: a kernel contributes its executions only when every
    // data-path instance of its variant is usable by the window's end —
    // lost configurations and still-draining streams (including migration
    // copies) cost the window.
    for (const IsePlacementRequest& req : selection) {
      bool ready = true;
      for (DataPathId dp : req.data_paths) {
        if (fabric.available_instances(dp, t1) == 0) ready = false;
      }
      if (ready) row.executions += kExecsPerKernel;
    }
    row.throughput = static_cast<double>(row.executions) /
                     (static_cast<double>(kWindowCycles) / 1e6);
    result.rows.push_back(row);
  }
  return result;
}

const std::vector<std::string>& modes() {
  static const std::vector<std::string> m = {"baseline", "defrag"};
  return m;
}

std::vector<ModeResult>& results() {
  static std::vector<ModeResult> r;
  return r;
}

void run_sweep() {
  for (const std::string& mode : modes()) {
    results().push_back(run_mode(mode == "defrag"));
  }
}

/// Reporting stub publishing each mode's headline numbers.
void BM_Fig14_Defrag(benchmark::State& state) {
  const ModeResult& r = results()[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.rows.size());
  }
  double frag_sum = 0.0;
  for (const WindowRow& row : r.rows) frag_sum += row.frag_after;
  state.counters["mean_fragmentation"] =
      frag_sum / static_cast<double>(r.rows.size());
  state.counters["migrations"] = static_cast<double>(r.total_migrations);
  state.counters["final_throughput_per_Mcyc"] = r.rows.back().throughput;
}

void register_benchmarks() {
  for (std::size_t i = 0; i < modes().size(); ++i) {
    benchmark::RegisterBenchmark(("BM_Fig14_Defrag/" + modes()[i]).c_str(),
                                 BM_Fig14_Defrag)
        ->Args({static_cast<long>(i)})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void print_figure() {
  TextTable table({"mode", "window", "usable", "kernels", "frag before",
                   "frag after", "frag floor", "migrations",
                   "throughput [/Mcyc]"});
  CsvWriter csv("fig14_defrag_recovery.csv");
  csv.write_header({"mode", "window", "usable_prcs", "installed_kernels",
                    "frag_before", "frag_after", "frag_floor", "migrations",
                    "executions", "throughput_per_mcyc"});
  for (std::size_t m = 0; m < modes().size(); ++m) {
    for (const WindowRow& row : results()[m].rows) {
      table.add_values(modes()[m], row.window, row.usable_prcs,
                       row.installed_kernels, format_double(row.frag_before, 4),
                       format_double(row.frag_after, 4),
                       format_double(row.frag_floor, 4), row.migrations,
                       format_double(row.throughput, 1));
      csv.write_values(modes()[m], row.window, row.usable_prcs,
                       row.installed_kernels, format_double(row.frag_before, 4),
                       format_double(row.frag_after, 4),
                       format_double(row.frag_floor, 4), row.migrations,
                       row.executions, format_double(row.throughput, 1));
    }
  }
  const ModeResult& base = results()[0];
  const ModeResult& defrag = results()[1];
  const auto mean_throughput = [](const ModeResult& r) {
    double sum = 0.0;
    for (const WindowRow& row : r.rows) sum += row.throughput;
    return sum / static_cast<double>(r.rows.size());
  };
  const double mean_base = mean_throughput(base);
  const double mean_defrag = mean_throughput(defrag);
  std::printf("\nFig. 14 — defragmentation recovery on %u PRCs "
              "(fault rate %.2f, seed %llu, written to "
              "fig14_defrag_recovery.csv)\n%s",
              kPrcs, kFaultRate,
              static_cast<unsigned long long>(kFaultSeed),
              table.render().c_str());
  std::printf("defrag mode: %u migration(s); mean throughput %.1f "
              "(baseline %.1f) executions/Mcyc\n",
              defrag.total_migrations, mean_defrag, mean_base);

  // Hard acceptance checks — a regression here must fail the smoke test,
  // not just skew a CSV nobody diffs.
  if (defrag.total_migrations == 0) {
    std::fprintf(stderr, "FAILED: defrag mode never migrated\n");
    std::exit(3);
  }
  if (!defrag.monotone) {
    std::fprintf(stderr, "FAILED: a compaction pass did not strictly reduce "
                         "the fragmentation index (nor reach its floor)\n");
    std::exit(3);
  }
  // Migration copies drain on the reconfiguration port; recovery means every
  // pass finishes its streams inside its own window, so no compaction cost
  // leaks into the next window's throughput.
  if (!defrag.copies_bounded) {
    std::fprintf(stderr, "FAILED: a compaction pass was still draining its "
                         "copy streams past the end of its window\n");
    std::exit(3);
  }
  // The two fault timelines diverge once migration streams consume draws,
  // so the modes are compared on their means: defragmentation is close to
  // free when the defrag machine keeps >= 90% of the baseline throughput.
  if (mean_defrag < 0.9 * mean_base) {
    std::fprintf(stderr,
                 "FAILED: defrag mode throughput fell more than 10%% below "
                 "the baseline (%.1f vs %.1f executions/Mcyc)\n",
                 mean_defrag, mean_base);
    std::exit(3);
  }
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(&argc, argv, {});
  ::benchmark::Initialize(&argc, argv);
  run_sweep();
  register_benchmarks();
  ::benchmark::RunSpecifiedBenchmarks();
  print_figure();
  return 0;
}
