// fig_grid: the paper's evaluation (Figs. 8-10). The 16-frame H.264 CIF
// trace runs on every point of the PRC 0-6 x CG 0-3 grid; each job is one
// (content variant, point, run-time system) pair on a fresh private fabric
// with observability detached. The run-time systems are mRTS (heuristic and
// optimal selector), RISPP-like, Morpheus/4S-like and offline-optimal. A
// round covers kVariants content seeds: one 16-frame trace's motion and
// detail vary its work by about 15% from seed to seed, and averaging over
// several keeps runs with different workload seeds comparable.
//
// Why this workload: the RTS decision path (ECU, selectors, fabric install)
// does nearly all the work while obs, serve and the arbiter do none.

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>

#include "baselines/morpheus4s_rts.h"
#include "baselines/offline_optimal_rts.h"
#include "baselines/risc_only_rts.h"
#include "baselines/rispp_rts.h"
#include "harness.h"
#include "sim/app_simulator.h"
#include "sim/machine.h"
#include "sim/metrics.h"
#include "util/fastpath.h"
#include "workload/h264_app.h"

namespace perfbench {
namespace {

using namespace mrts;

constexpr unsigned kFrames = 16;
constexpr std::size_t kVariants = 8;
constexpr unsigned kMaxPrcs = 6;
constexpr unsigned kMaxCg = 3;
constexpr std::array<RtsKind, 5> kKinds = {
    RtsKind::kMrts, RtsKind::kMrtsOpt, RtsKind::kRispp, RtsKind::kMorpheus,
    RtsKind::kOffline};
constexpr std::uint64_t kOracleStream = 0x6f7263;  // "orc"

struct JobOutput {
  Cycles cycles = 0;
  std::array<std::uint64_t, kNumImplKinds> impl{};
  std::size_t blocks = 0;

  bool operator==(const JobOutput&) const = default;
};

class FigGrid final : public Workload {
 public:
  FigGrid(std::uint64_t seed, std::string root)
      : seed_(seed), root_(std::move(root)),
        grid_(fabric_sweep(kMaxPrcs, kMaxCg)) {}

  void setup(Tracer* tracer) override {
    variants_.clear();
    variants_.reserve(kVariants);
    for (std::size_t v = 0; v < kVariants; ++v) {
      H264AppParams params;
      params.frames = kFrames;
      params.seed = h264_content_seed(seed_, v);
      Variant& variant = variants_.emplace_back();
      {
        ScopedSpan span(tracer, "workload.build", Layer::kWorkload);
        variant.app = build_h264_application(params);
      }
      ScopedSpan span(tracer, "sim.reference", Layer::kSim);
      variant.profile =
          profile_application(variant.app.trace, variant.app.library);
      RiscOnlyRts risc(variant.app.library);
      variant.risc_cycles = run_application(risc, variant.app.trace).total_cycles;
    }
    counts_ = Counts{};
    first_round_.assign(round_steps(), JobOutput{});
    run_job(0, tracer, nullptr);  // warm-up
  }

  std::size_t round_steps() const override {
    return kVariants * jobs_per_variant();
  }
  std::size_t sample_steps() const override { return round_steps(); }

  StepResult step(std::size_t index, Tracer* tracer) override {
    const std::size_t slot = index % round_steps();
    const JobOutput out =
        run_job(slot, tracer, index < sample_steps() ? &counts_ : nullptr);
    StepResult result;
    result.attempted = 1;
    for (std::uint64_t e : out.impl) result.kernel_executions += e;
    result.digest = fnv1a_u64(out.cycles, fnv1a(out.impl.data(),
                                                sizeof out.impl));
    if (index < round_steps()) first_round_[slot] = out;
    result.completed = 1;
    return result;
  }

  const Counts& counts() const override { return counts_; }

  void finish(CheckResult& checks, SimMetrics& sim) override {
    check_golden(checks);
    // Oracle: one sampled job per run-time system re-runs on the per-event
    // path and must give identical cycles and implementation counts.
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      const std::uint64_t pick = derive_seed(seed_, kOracleStream, k);
      const std::size_t slot = (pick % kVariants) * jobs_per_variant() +
                               (pick / kVariants % grid_.size()) *
                                   kKinds.size() +
                               k;
      set_fastpath_enabled(false);
      const JobOutput oracle = run_job(slot, nullptr, nullptr);
      set_fastpath_enabled(true);
      checks.expect(oracle == first_round_[slot],
                    "fig_grid: per-event oracle differs for job " +
                        std::to_string(slot));
    }

    std::vector<double> speedups;
    std::vector<double> cycles;
    double blocks = 0.0;
    double total_cycles = 0.0;
    for (std::size_t slot = 0; slot < first_round_.size(); ++slot) {
      const JobOutput& out = first_round_[slot];
      cycles.push_back(static_cast<double>(out.cycles));
      blocks += static_cast<double>(out.blocks);
      total_cycles += static_cast<double>(out.cycles);
      if (kKinds[slot % kKinds.size()] == RtsKind::kMrts) {
        speedups.push_back(
            static_cast<double>(variants_[slot / jobs_per_variant()].risc_cycles) /
            static_cast<double>(out.cycles));
      }
    }
    std::sort(cycles.begin(), cycles.end());
    sim.speedup_vs_risc = geomean(speedups);
    sim.blocks_per_mcycle = blocks * 1e6 / total_cycles;
    sim.job_p99_cycles = nearest_rank(cycles, 0.99);
  }

 private:
  /// One content seed's trace plus its offline profile and RISC reference.
  struct Variant {
    H264Application app;
    std::vector<BlockProfile> profile;
    Cycles risc_cycles = 0;
  };

  std::size_t jobs_per_variant() const { return grid_.size() * kKinds.size(); }

  /// Job \p slot of a round: variant-major, then grid point, then RTS.
  JobOutput run_job(std::size_t slot, Tracer* tracer, Counts* counts) {
    const Variant& variant = variants_[slot / jobs_per_variant()];
    const std::size_t in_variant = slot % jobs_per_variant();
    const FabricCombination& point = grid_[in_variant / kKinds.size()];
    const RtsKind kind = kKinds[in_variant % kKinds.size()];
    const IseLibrary& lib = variant.app.library;
    const std::vector<BlockProfile>& profile = variant.profile;
    const ApplicationTrace& trace = variant.app.trace;
    std::unique_ptr<Machine> machine;
    std::unique_ptr<RuntimeSystem> baseline;
    RuntimeSystem* rts = nullptr;
    if (kind == RtsKind::kMrts || kind == RtsKind::kMrtsOpt) {
      ScopedSpan span(tracer, "sim.machine", Layer::kSim);
      MachineConfig mc;
      mc.prcs = point.prcs;
      mc.cg_fabrics = point.cg;
      machine = std::make_unique<Machine>(lib, mc);
      MRtsConfig config;
      config.use_optimal_selector = kind == RtsKind::kMrtsOpt;
      rts = &machine->add_rts(config);
    } else {
      ScopedSpan span(tracer, "baselines.construct", Layer::kBaselines);
      if (kind == RtsKind::kRispp) {
        baseline = std::make_unique<RisppRts>(lib, point.cg, point.prcs);
      } else if (kind == RtsKind::kMorpheus) {
        baseline =
            std::make_unique<Morpheus4sRts>(lib, point.cg, point.prcs, profile);
      } else {
        baseline = std::make_unique<OfflineOptimalRts>(lib, point.cg,
                                                       point.prcs, profile);
      }
      rts = baseline.get();
    }

    AppRunResult run;
    if (tracer != nullptr) {
      TimedRts timed(*rts, *tracer, kind);
      ScopedSpan span(tracer, "sim.run_application", Layer::kSim);
      span.add_work(static_cast<double>(trace.blocks.size()));
      run = run_application(timed, trace);
    } else {
      run = run_application(*rts, trace);
    }

    JobOutput out;
    out.cycles = run.total_cycles;
    out.impl = run.impl_executions;
    out.blocks = run.block_cycles.size();
    if (counts != nullptr) {
      std::uint64_t executions = 0;
      for (std::uint64_t e : run.impl_executions) executions += e;
      counts->add("sim.jobs", 1, "jobs");
      counts->add("sim.blocks", static_cast<double>(out.blocks), "blocks");
      counts->add("sim.cycles", static_cast<double>(out.cycles), "cycles");
      counts->add("sim.kernel_executions", static_cast<double>(executions),
                  "executions");
      if (machine != nullptr) {
        const MRts& mrts = machine->mrts(0);
        add_run_stats(*counts, mrts.run_stats());
        add_reconfig_stats(*counts, mrts.fabric().reconfig_stats());
      }
    }
    return out;
  }

  /// Jobs whose seed, frames and point match the committed fig8 golden
  /// (tests/golden/fig8_state_of_the_art.csv, read only) must reproduce its
  /// cycles exactly.
  void check_golden(CheckResult& checks) const {
    if (h264_content_seed(seed_, 0) != kGoldenContentSeed || kFrames != 16) {
      return;
    }
    const std::string path = root_ + "/tests/golden/fig8_state_of_the_art.csv";
    std::ifstream in(path);
    checks.expect(static_cast<bool>(in), "fig_grid: cannot read " + path);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      std::istringstream row(line);
      std::string field;
      std::vector<std::uint64_t> v;
      while (std::getline(row, field, ',') && v.size() < 6) {
        v.push_back(std::stoull(field));
      }
      if (v.size() < 6) continue;
      const auto prcs = static_cast<unsigned>(v[0]);
      const auto cg = static_cast<unsigned>(v[1]);
      const std::size_t point = prcs * (kMaxCg + 1) + cg;
      // Golden column order: rispp, offline, morpheus, mrts.
      const std::array<std::pair<RtsKind, std::uint64_t>, 4> expected = {
          std::pair{RtsKind::kRispp, v[2]}, std::pair{RtsKind::kOffline, v[3]},
          std::pair{RtsKind::kMorpheus, v[4]}, std::pair{RtsKind::kMrts, v[5]}};
      for (const auto& [kind, cycles] : expected) {
        const std::size_t k = static_cast<std::size_t>(
            std::find(kKinds.begin(), kKinds.end(), kind) - kKinds.begin());
        checks.expect(
            first_round_[point * kKinds.size() + k].cycles == cycles,
            "fig_grid: golden mismatch for " + std::string(rts_kind_name(kind)) +
                " at " + grid_[point].label());
      }
    }
  }

  std::uint64_t seed_;
  std::string root_;
  std::vector<FabricCombination> grid_;
  std::vector<Variant> variants_;
  std::vector<JobOutput> first_round_;
  Counts counts_;
};

}  // namespace

std::unique_ptr<Workload> make_fig_grid(std::uint64_t seed,
                                        const std::string& root) {
  return std::make_unique<FigGrid>(seed, root);
}

}  // namespace perfbench
