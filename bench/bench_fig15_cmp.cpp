// Fig. 15 (extension beyond the paper): CMP scale-out. The paper evaluates
// a single RISC core in front of the reconfigurable fabric; this harness
// asks how the mRTS stack behaves when N cores share one 4 PRC + 2 CG pool
// through the modeled interconnect (sim/cmp.h). It sweeps the core count
// from 1 to 64 under two topologies:
//
//  * flat  — every core at hop distance 1 (the legacy uniform-cost model):
//    scaling is limited only by reconfiguration-port serialization;
//  * chain — cores on a linear chain (core i at distance 1+i), so far
//    cores additionally pay per-block operand-transfer cycles that grow
//    with their distance from the fabric pool.
//
// Each point reports makespan, throughput speedup over the 1-core point of
// the same topology, the Jain fairness index over per-core throughput, and
// the aggregate interconnect/port-wait cycle totals. The workload is
// synthetic (one weighted:1 tenant per core, fixed block count) and
// deliberately independent of MRTS_BENCH_FRAMES, so the committed CSV is
// reproducible under any smoke-test environment.
//
// The sweep runs its points in point order; every point builds its own
// library, machine and task streams.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "isa/ise_builder.h"
#include "sim/cmp.h"
#include "sim/machine.h"
#include "workload/workload_gen.h"

namespace {

using namespace mrts;
using namespace mrts::bench;

/// The shared pool under test: the mid-size 4 PRC + 2 CG machine (the same
/// fabric Fig. 12 arbitrates between tenants).
constexpr unsigned kPrcs = 4;
constexpr unsigned kCgFabrics = 2;
/// Functional blocks per core (fixed: the figure's axis is the core count,
/// not the trace length).
constexpr unsigned kBlocksPerCore = 8;

const std::vector<const char*>& topologies() {
  static const std::vector<const char*> t = {"flat", "chain"};
  return t;
}

const std::vector<unsigned>& core_counts() {
  static const std::vector<unsigned> n = {1, 2, 4, 8, 16, 32, 64};
  return n;
}

/// One sweep point: a topology at one core count.
struct PointKey {
  std::string topology;
  unsigned cores = 0;
};

struct PointResult {
  Cycles total_cycles = 0;
  std::uint64_t blocks = 0;
  double aggregate_throughput = 0.0;  ///< blocks per Mcycle of the makespan
  double jain_fairness = 1.0;
  Cycles interconnect_cycles = 0;
  Cycles port_wait_cycles = 0;
};

/// One independent sweep point: builds its own combined library, traces and
/// arbitrated machine, then runs the CMP scheduler to completion.
PointResult run_point(const PointKey& key) {
  // One synthetic kernel per core, all in one combined library so every
  // core's MRts shares the fabric's data-path table.
  IseLibrary combined;
  std::vector<KernelId> kernels;
  for (unsigned i = 0; i < key.cores; ++i) {
    const std::string name = std::string("C").append(std::to_string(i));
    IseBuildSpec spec;
    spec.kernel_name = name;
    spec.sw_latency = 700;
    spec.control_fraction = 0.4;
    spec.fg_data_path_names = {name + "_ctrl_fg", name + "_dp_fg"};
    spec.cg_data_path_names = {name + "_mac_cg"};
    spec.fg_control_dps = 1;
    spec.cg_data_dps = 1;
    kernels.push_back(build_kernel_ises(combined, spec));
  }
  std::vector<ApplicationTrace> traces(key.cores);
  for (unsigned i = 0; i < key.cores; ++i) {
    Rng rng(1000 + i);
    for (unsigned b = 0; b < kBlocksPerCore; ++b) {
      FunctionalBlockInstance inst = make_block_instance(
          FunctionalBlockId{0}, /*macroblocks=*/400,
          {{kernels[i], 8.0, 25, 0.1}}, /*entry_gap=*/200, /*tail_gap=*/200,
          rng);
      stamp_programmed_trigger(inst, combined);
      traces[i].blocks.push_back(std::move(inst));
    }
  }

  MachineConfig mc;
  mc.cores = key.cores;
  mc.prcs = kPrcs;
  mc.cg_fabrics = kCgFabrics;
  mc.tenancy = Tenancy::kArbitrated;
  mc.interconnect = InterconnectParams::linear_chain(
      key.cores, key.topology == "chain" ? 1 : 0);
  Machine machine(combined, mc);
  std::vector<CmpCore> cmp_cores(key.cores);
  for (unsigned i = 0; i < key.cores; ++i) {
    TenantPolicy policy;
    policy.share = TenantShare::kWeighted;
    policy.weight = 1;
    const FabricArbiter::Registration reg =
        machine.register_tenant(std::string("C").append(std::to_string(i)),
                                policy);
    Task task;
    task.name = std::string("C").append(std::to_string(i));
    task.rts = &machine.add_rts(reg.id);
    task.trace = &traces[i];
    task.tenant = reg.id;
    cmp_cores[i].tasks.push_back(std::move(task));
  }
  CmpParams params;
  params.fabric = &machine.fabric();
  const CmpResult run =
      run_cmp(cmp_cores, machine.interconnect(), &machine.arbiter(), params);

  PointResult result;
  std::vector<double> throughputs;
  for (const CmpCoreResult& cr : run.cores) {
    const TaskRunResult& tr = cr.run.tasks[0].run;
    result.blocks += tr.block_cycles.size();
    result.interconnect_cycles += cr.interconnect_cycles;
    result.port_wait_cycles += cr.port_wait_cycles;
    throughputs.push_back(
        tr.active_cycles == 0
            ? 0.0
            : static_cast<double>(tr.block_cycles.size()) * 1e6 /
                  static_cast<double>(tr.active_cycles));
  }
  result.total_cycles = run.total_cycles;
  result.aggregate_throughput =
      run.total_cycles == 0 ? 0.0
                            : static_cast<double>(result.blocks) * 1e6 /
                                  static_cast<double>(run.total_cycles);
  result.jain_fairness = jain_fairness_index(throughputs);
  return result;
}

std::vector<PointKey>& point_keys() {
  static std::vector<PointKey> keys = [] {
    std::vector<PointKey> k;
    for (const char* topology : topologies()) {
      for (unsigned n : core_counts()) k.push_back({topology, n});
    }
    return k;
  }();
  return keys;
}

std::vector<PointResult>& point_results() {
  static std::vector<PointResult> r;
  return r;
}

/// Throughput speedup over the 1-core point of the same topology (the
/// canonical scaling curve: ideal = the core count).
double speedup_for(std::size_t index) {
  const PointKey& key = point_keys()[index];
  for (std::size_t i = 0; i < point_keys().size(); ++i) {
    const PointKey& base = point_keys()[i];
    if (base.topology == key.topology && base.cores == 1) {
      const double baseline = point_results()[i].aggregate_throughput;
      return baseline == 0.0
                 ? 0.0
                 : point_results()[index].aggregate_throughput / baseline;
    }
  }
  return 0.0;
}

void run_sweep() {
  for (const PointKey& key : point_keys()) {
    point_results().push_back(run_point(key));
  }
}

/// Reporting stub: the heavy work happened in run_sweep(); this publishes
/// each point's speedup/fairness under BM_CmpScaling/<topology>/<n>.
void BM_CmpScaling_Point(benchmark::State& state) {
  const std::size_t index = static_cast<std::size_t>(state.range(0));
  const PointResult& point = point_results()[index];
  for (auto _ : state) {
    benchmark::DoNotOptimize(point.total_cycles);
  }
  state.counters["total_Mcycles"] =
      static_cast<double>(point.total_cycles) / 1e6;
  state.counters["speedup"] = speedup_for(index);
  state.counters["jain_fairness"] = point.jain_fairness;
}

void register_benchmarks() {
  for (std::size_t i = 0; i < point_keys().size(); ++i) {
    const PointKey& key = point_keys()[i];
    benchmark::RegisterBenchmark(
        ("BM_CmpScaling/" + key.topology + "/cores_" +
         std::to_string(key.cores))
            .c_str(),
        BM_CmpScaling_Point)
        ->Args({static_cast<long>(i)})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void print_figure() {
  TextTable table({"topology", "cores", "total [Mcyc]", "blocks/Mcyc",
                   "speedup", "Jain fairness", "xfer cyc", "port wait"});
  CsvWriter csv("fig15_cmp_scaling.csv");
  csv.write_header({"topology", "cores", "total_cycles", "blocks",
                    "blocks_per_mcycle", "speedup", "jain_fairness",
                    "interconnect_cycles", "port_wait_cycles"});
  for (std::size_t i = 0; i < point_keys().size(); ++i) {
    const PointKey& key = point_keys()[i];
    const PointResult& p = point_results()[i];
    const double speedup = speedup_for(i);
    table.add_values(key.topology, key.cores, format_mcycles(p.total_cycles),
                     format_double(p.aggregate_throughput, 3),
                     format_double(speedup, 3),
                     format_double(p.jain_fairness, 4), p.interconnect_cycles,
                     p.port_wait_cycles);
    csv.write_values(key.topology, key.cores, p.total_cycles, p.blocks,
                     format_double(p.aggregate_throughput, 4),
                     format_double(speedup, 4),
                     format_double(p.jain_fairness, 4), p.interconnect_cycles,
                     p.port_wait_cycles);
  }
  std::printf("\nFig. 15 — CMP scale-out on %u PRCs + %u CG, %u blocks/core "
              "(written to fig15_cmp_scaling.csv)\n%s",
              kPrcs, kCgFabrics, kBlocksPerCore, table.render().c_str());
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
