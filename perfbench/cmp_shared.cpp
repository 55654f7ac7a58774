// cmp_shared: fig15's largest machine. 64 cores on the linear-chain
// interconnect share one 4 PRC + 2 CG pool through FabricArbiter, one
// weighted tenant per core. Each job generates its per-core traces from its
// own seed, builds a fresh Machine and runs run_cmp to the end of its
// makespan. A round is kRoundJobs jobs with distinct seeds. Every core runs
// one 200-macroblock block (fig15 runs eight of 400), long enough that half
// the cores load FG data paths and wait for the shared port (at 170
// macroblocks or fewer no core does). A round still takes two seconds or
// more, too long for a job to repeat often enough in a run for steady
// host-time tails, so BENCHMARK.json leaves this workload out; it runs by
// hand.
//
// Why this workload: it is the only one with cross-tenant evictions,
// port-wait charging and transfer charging. Every eviction bumps
// FabricManager::state_epoch and so invalidates the ECU memo fig_grid relies
// on: the same ECU or fabric change can help one of the two and not the
// other.

#include <algorithm>
#include <string>

#include "baselines/risc_only_rts.h"
#include "harness.h"
#include "isa/ise_builder.h"
#include "sim/app_simulator.h"
#include "sim/cmp.h"
#include "sim/machine.h"
#include "workload/workload_gen.h"

namespace perfbench {
namespace {

using namespace mrts;

constexpr unsigned kCores = 64;
constexpr unsigned kPrcs = 4;
constexpr unsigned kCgFabrics = 2;
constexpr unsigned kBlocksPerCore = 1;
constexpr unsigned kMacroblocks = 200;
/// A p99 of host time needs ten jobs beyond it.
constexpr std::size_t kRoundJobs = 1000;
constexpr std::size_t kSampleJobs = 100;
constexpr std::uint64_t kCmpStream = 0x636d70;  // "cmp"

/// Tenant and kernel name of core \p i, as fig15 names them.
std::string core_name(unsigned i) {
  std::string name = "C";
  name += std::to_string(i);
  return name;
}

/// What the sim metrics need from one sampled job.
struct SampleJob {
  std::uint64_t seed = 0;
  Cycles makespan = 0;
  Cycles active_cycles = 0;  ///< summed over cores
  std::uint64_t blocks = 0;
};

class CmpShared final : public Workload {
 public:
  explicit CmpShared(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer* tracer) override {
    {
      // One synthetic kernel per core in one combined library, as fig15
      // builds it, so every core's MRts shares the fabric's data paths.
      ScopedSpan span(tracer, "isa.library", Layer::kIsa);
      lib_ = std::make_unique<IseLibrary>();
      kernels_.clear();
      for (unsigned i = 0; i < kCores; ++i) {
        const std::string name = core_name(i);
        IseBuildSpec spec;
        spec.kernel_name = name;
        spec.sw_latency = 700;
        spec.control_fraction = 0.4;
        spec.fg_data_path_names = {name + "_ctrl_fg", name + "_dp_fg"};
        spec.cg_data_path_names = {name + "_mac_cg"};
        spec.fg_control_dps = 1;
        spec.cg_data_dps = 1;
        kernels_.push_back(build_kernel_ises(*lib_, spec));
      }
    }
    counts_ = Counts{};
    sample_.clear();
    run_job(derive_seed(seed_, kCmpStream, ~0ull), tracer, nullptr);  // warm-up
  }

  std::size_t round_steps() const override { return kRoundJobs; }
  std::size_t sample_steps() const override { return kSampleJobs; }

  StepResult step(std::size_t index, Tracer* tracer) override {
    return run_job(derive_seed(seed_, kCmpStream, index % kRoundJobs), tracer,
                   index < kSampleJobs ? &counts_ : nullptr);
  }

  const Counts& counts() const override { return counts_; }

  void finish(CheckResult& checks, SimMetrics& sim) override {
    // RISC-only reference: every core's trace run alone on the core
    // instruction set, against the core's active cycles on the shared
    // machine (port waits and transfers included).
    RiscOnlyRts risc(*lib_);
    std::vector<double> speedups;
    std::vector<double> makespans;
    double blocks = 0.0;
    double cycles = 0.0;
    for (const SampleJob& job : sample_) {
      Cycles risc_cycles = 0;
      for (const ApplicationTrace& trace : make_traces(job.seed)) {
        risc_cycles += run_application(risc, trace).total_cycles;
      }
      checks.expect(job.active_cycles > 0, "cmp_shared: job without activity");
      speedups.push_back(static_cast<double>(risc_cycles) /
                         static_cast<double>(job.active_cycles));
      makespans.push_back(static_cast<double>(job.makespan));
      blocks += static_cast<double>(job.blocks);
      cycles += static_cast<double>(job.makespan);
    }
    std::sort(makespans.begin(), makespans.end());
    sim.speedup_vs_risc = geomean(speedups);
    sim.blocks_per_mcycle = cycles > 0.0 ? blocks * 1e6 / cycles : 0.0;
    sim.job_p99_cycles = makespans.empty() ? 0.0 : nearest_rank(makespans, 0.99);
  }

 private:
  std::vector<ApplicationTrace> make_traces(std::uint64_t job_seed) const {
    std::vector<ApplicationTrace> traces(kCores);
    for (unsigned i = 0; i < kCores; ++i) {
      Rng rng(derive_seed(job_seed, i));
      for (unsigned b = 0; b < kBlocksPerCore; ++b) {
        FunctionalBlockInstance inst = make_block_instance(
            FunctionalBlockId{0}, kMacroblocks, {{kernels_[i], 8.0, 25, 0.1}},
            /*entry_gap=*/200, /*tail_gap=*/200, rng);
        stamp_programmed_trigger(inst, *lib_);
        traces[i].blocks.push_back(std::move(inst));
      }
    }
    return traces;
  }

  StepResult run_job(std::uint64_t job_seed, Tracer* tracer, Counts* counts) {
    std::vector<ApplicationTrace> traces;
    {
      ScopedSpan span(tracer, "workload.build", Layer::kWorkload);
      traces = make_traces(job_seed);
    }

    std::unique_ptr<Machine> machine;
    std::vector<CmpCore> cores(kCores);
    std::vector<TenantId> tenants;
    {
      ScopedSpan span(tracer, "sim.machine", Layer::kSim);
      MachineConfig mc;
      mc.cores = kCores;
      mc.prcs = kPrcs;
      mc.cg_fabrics = kCgFabrics;
      mc.tenancy = Tenancy::kArbitrated;
      mc.interconnect = InterconnectParams::linear_chain(kCores, 1);
      machine = std::make_unique<Machine>(*lib_, mc);
      for (unsigned i = 0; i < kCores; ++i) {
        TenantPolicy policy;
        policy.share = TenantShare::kWeighted;
        policy.weight = 1;
        const FabricArbiter::Registration reg =
            machine->register_tenant(core_name(i), policy);
        Task task;
        task.name = core_name(i);
        task.rts = &machine->add_rts(reg.id);
        task.trace = &traces[i];
        task.tenant = reg.id;
        cores[i].tasks.push_back(std::move(task));
        tenants.push_back(reg.id);
      }
    }
    std::vector<std::unique_ptr<TimedRts>> timed;
    if (tracer != nullptr) {
      for (CmpCore& core : cores) {
        timed.push_back(
            std::make_unique<TimedRts>(*core.tasks[0].rts, *tracer, RtsKind::kMrts));
        core.tasks[0].rts = timed.back().get();
      }
    }

    CmpParams params;
    params.fabric = &machine->fabric();
    CmpResult run;
    {
      ScopedSpan span(tracer, "sim.run_cmp", Layer::kSim);
      span.add_work(kCores * kBlocksPerCore);
      run = run_cmp(cores, machine->interconnect(), &machine->arbiter(), params);
    }

    StepResult result;
    result.attempted = 1;
    SampleJob sample;
    sample.seed = job_seed;
    sample.makespan = run.total_cycles;
    Cycles latest = 0;
    bool blocks_ok = run.cores.size() == kCores;
    for (std::size_t c = 0; c < run.cores.size() && blocks_ok; ++c) {
      const CmpCoreResult& cr = run.cores[c];
      blocks_ok = cr.run.tasks.size() == 1 &&
                  cr.run.tasks[0].run.block_cycles.size() ==
                      traces[c].blocks.size();
      if (!blocks_ok) break;
      const TaskRunResult& tr = cr.run.tasks[0].run;
      latest = std::max(latest, tr.finished_at);
      sample.active_cycles += tr.active_cycles;
      sample.blocks += tr.block_cycles.size();
      for (std::uint64_t e : tr.impl_executions) result.kernel_executions += e;
      result.digest = fnv1a_u64(tr.finished_at,
                                fnv1a_u64(tr.active_cycles, result.digest));
      if (counts != nullptr) {
        counts->add("cmp_core.port_wait_cycles",
                    static_cast<double>(cr.port_wait_cycles), "cycles");
        counts->add("cmp_core.interconnect_cycles",
                    static_cast<double>(cr.interconnect_cycles), "cycles");
        counts->add("cmp_core.active_cycles",
                    static_cast<double>(tr.active_cycles), "cycles");
        counts->add("cmp_core.reconfig_slices",
                    static_cast<double>(cr.reconfig_slices), "slices");
      }
    }
    // Each core ran exactly its trace, and the makespan is the latest core
    // finish (every core starts at cycle 0).
    result.failed = blocks_ok && run.total_cycles == latest ? 0 : 1;
    result.completed = 1 - result.failed;

    if (counts != nullptr) {
      counts->add("sim.jobs", 1, "jobs");
      counts->add("sim.blocks", static_cast<double>(sample.blocks), "blocks");
      counts->add("sim.cycles", static_cast<double>(run.total_cycles), "cycles");
      counts->add("sim.kernel_executions",
                  static_cast<double>(result.kernel_executions), "executions");
      for (TenantId id : tenants) {
        const TenantStats& ts = machine->arbiter().stats(id);
        counts->add("arbiter_stats.evictions_caused",
                    static_cast<double>(ts.evictions_caused), "evictions");
        counts->add("arbiter_stats.quota_redirects",
                    static_cast<double>(ts.quota_redirects), "redirects");
      }
      for (std::size_t i = 0; i < machine->num_rts(); ++i) {
        add_run_stats(*counts, machine->mrts(i).run_stats());
      }
      add_reconfig_stats(*counts, machine->fabric().reconfig_stats());
      sample_.push_back(sample);
    }
    return result;
  }

  std::uint64_t seed_;
  std::unique_ptr<IseLibrary> lib_;
  std::vector<KernelId> kernels_;
  Counts counts_;
  std::vector<SampleJob> sample_;
};

}  // namespace

std::unique_ptr<Workload> make_cmp_shared(std::uint64_t seed) {
  return std::make_unique<CmpShared>(seed);
}

}  // namespace perfbench
