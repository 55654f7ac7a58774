// Fig. 12 (extension beyond the paper): multi-tenant fairness. The paper
// stops at the Section 1 observation that the fabric is "shared among
// various tasks"; this harness measures what the FabricArbiter
// (sim/arbiter.h) makes of that sharing. It sweeps the tenant count n from
// 2 to 16 on a fixed 4 PRC + 2 CG fabric under three arbitration scenarios:
//
//  * equal  — every tenant weighted with weight 1: the degenerate case that
//    reproduces the unarbitrated run_multi_tenant free-for-all bit-exactly;
//  * skewed — weights cycle 1,2,3,4: soft quotas bias evictions onto
//    over-quota tenants, trading aggregate throughput for entitlement;
//  * mixed  — tenant 0 holds a reserved 1+1 partition at priority 2, odd
//    tenants are weighted (weight 2, priority 1), the rest run best-effort:
//    hard isolation + quota + scavengers on one fabric.
//
// Each point reports aggregate throughput (blocks per Mcycle of the shared
// timeline) and the Jain fairness index over per-tenant throughput. The
// workload is synthetic (one kernel per tenant, fixed block count) and
// deliberately independent of MRTS_BENCH_FRAMES, so the committed CSV is
// reproducible under any smoke-test environment.
//
// The sweep runs its points in point order; every point builds its own
// fabric, arbiter and MRts instances.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "isa/ise_builder.h"
#include "sim/machine.h"
#include "sim/multi_app.h"
#include "workload/workload_gen.h"

namespace {

using namespace mrts;
using namespace mrts::bench;

/// The fabric under test: the mid-size 4 PRC + 2 CG machine (Fig. 8's
/// best-scaling column).
constexpr unsigned kPrcs = 4;
constexpr unsigned kCgFabrics = 2;
/// Functional blocks per tenant (fixed: the figure's axis is the tenant
/// count, not the trace length).
constexpr unsigned kBlocksPerTenant = 8;

const std::vector<const char*>& scenarios() {
  static const std::vector<const char*> s = {"equal", "skewed", "mixed"};
  return s;
}

const std::vector<unsigned>& tenant_counts() {
  static const std::vector<unsigned> n = {2, 4, 6, 8, 10, 12, 14, 16};
  return n;
}

/// One sweep point: a scenario at one tenant count.
struct PointKey {
  std::string scenario;
  unsigned tenants = 0;
};

TenantPolicy policy_for(const std::string& scenario, unsigned index) {
  TenantPolicy policy;
  if (scenario == "equal") {
    policy.share = TenantShare::kWeighted;
    policy.weight = 1;
  } else if (scenario == "skewed") {
    policy.share = TenantShare::kWeighted;
    policy.weight = 1 + index % 4;
  } else {  // mixed
    if (index == 0) {
      policy.share = TenantShare::kReserved;
      policy.reserved_prcs = 1;
      policy.reserved_cg = 1;
      policy.priority = 2;
    } else if (index % 2 == 1) {
      policy.share = TenantShare::kWeighted;
      policy.weight = 2;
      policy.priority = 1;
    } else {
      policy.share = TenantShare::kBestEffort;
    }
  }
  return policy;
}

struct PointResult {
  Cycles total_cycles = 0;
  std::uint64_t blocks = 0;
  double aggregate_throughput = 0.0;  ///< blocks per Mcycle of the timeline
  double jain_fairness = 1.0;
  std::uint64_t evictions = 0;
  std::uint64_t quota_redirects = 0;
  unsigned bounced = 0;
};

/// One independent sweep point: builds its own combined library, traces,
/// fabric, arbiter and one MRts per tenant, then runs the multi-tenant
/// scheduler to completion.
PointResult run_point(const PointKey& key) {
  // One synthetic kernel per tenant, all in one combined library so every
  // MRts shares the fabric's data-path table.
  IseLibrary combined;
  std::vector<KernelId> kernels;
  for (unsigned i = 0; i < key.tenants; ++i) {
    const std::string name = std::string("T").append(std::to_string(i));
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
  std::vector<ApplicationTrace> traces(key.tenants);
  for (unsigned i = 0; i < key.tenants; ++i) {
    Rng rng(1000 + i);
    for (unsigned b = 0; b < kBlocksPerTenant; ++b) {
      FunctionalBlockInstance inst = make_block_instance(
          FunctionalBlockId{0}, /*macroblocks=*/400,
          {{kernels[i], 8.0, 25, 0.1}}, /*entry_gap=*/200, /*tail_gap=*/200,
          rng);
      stamp_programmed_trigger(inst, combined);
      traces[i].blocks.push_back(std::move(inst));
    }
  }

  // One arbitrated machine per point (sim/machine.h): the machine owns the
  // shared fabric + arbiter and builds the tenant-bound MRts instances,
  // replacing the hand-wired FabricManager/FabricArbiter/MRts construction.
  MachineConfig mc;
  mc.prcs = kPrcs;
  mc.cg_fabrics = kCgFabrics;
  mc.tenancy = Tenancy::kArbitrated;
  Machine machine(combined, mc);
  FabricArbiter& arbiter = machine.arbiter();
  std::vector<FabricArbiter::Registration> regs;
  std::vector<Task> tasks;
  PointResult result;
  for (unsigned i = 0; i < key.tenants; ++i) {
    const TenantPolicy policy = policy_for(key.scenario, i);
    regs.push_back(
        machine.register_tenant(std::string("T").append(std::to_string(i)),
                                policy));
    if (!regs.back().admitted) {
      ++result.bounced;
      continue;
    }
    Task task;
    task.name = std::string("T").append(std::to_string(i));
    task.rts = &machine.add_rts(regs[i].id);
    task.trace = &traces[i];
    task.priority = policy.priority;
    task.tenant = regs[i].id;
    tasks.push_back(std::move(task));
  }
  const MultiTenantResult run = run_multi_tenant(tasks, &arbiter);

  std::vector<double> throughputs;
  for (const MultiTenantTaskResult& tr : run.tasks) {
    result.blocks += tr.run.block_cycles.size();
    throughputs.push_back(
        tr.run.active_cycles == 0
            ? 0.0
            : static_cast<double>(tr.run.block_cycles.size()) * 1e6 /
                  static_cast<double>(tr.run.active_cycles));
  }
  for (unsigned i = 0; i < key.tenants; ++i) {
    if (!regs[i].admitted) continue;
    const TenantStats& stats = arbiter.stats(regs[i].id);
    result.evictions += stats.evictions_caused;
    result.quota_redirects += stats.quota_redirects;
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
    for (const char* scenario : scenarios()) {
      for (unsigned n : tenant_counts()) k.push_back({scenario, n});
    }
    return k;
  }();
  return keys;
}

std::vector<PointResult>& point_results() {
  static std::vector<PointResult> r;
  return r;
}

void run_sweep() {
  for (const PointKey& key : point_keys()) {
    point_results().push_back(run_point(key));
  }
}

/// Reporting stub: the heavy work happened in run_sweep(); this publishes
/// each point's throughput/fairness under BM_MultiTenant/<scenario>/<n>.
void BM_MultiTenant_Point(benchmark::State& state) {
  const PointResult& point = point_results()[static_cast<std::size_t>(
      state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(point.total_cycles);
  }
  state.counters["total_Mcycles"] =
      static_cast<double>(point.total_cycles) / 1e6;
  state.counters["blocks_per_Mcyc"] = point.aggregate_throughput;
  state.counters["jain_fairness"] = point.jain_fairness;
}

void register_benchmarks() {
  for (std::size_t i = 0; i < point_keys().size(); ++i) {
    const PointKey& key = point_keys()[i];
    benchmark::RegisterBenchmark(
        ("BM_MultiTenant/" + key.scenario + "/tenants_" +
         std::to_string(key.tenants))
            .c_str(),
        BM_MultiTenant_Point)
        ->Args({static_cast<long>(i)})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void print_figure() {
  TextTable table({"scenario", "tenants", "total [Mcyc]", "blocks/Mcyc",
                   "Jain fairness", "evictions", "quota redirects",
                   "bounced"});
  CsvWriter csv("fig12_multitenant_fairness.csv");
  csv.write_header({"scenario", "tenants", "total_cycles", "blocks",
                    "blocks_per_mcycle", "jain_fairness", "evictions",
                    "quota_redirects", "bounced"});
  for (std::size_t i = 0; i < point_keys().size(); ++i) {
    const PointKey& key = point_keys()[i];
    const PointResult& p = point_results()[i];
    table.add_values(key.scenario, key.tenants, format_mcycles(p.total_cycles),
                     format_double(p.aggregate_throughput, 3),
                     format_double(p.jain_fairness, 4), p.evictions,
                     p.quota_redirects, p.bounced);
    csv.write_values(key.scenario, key.tenants, p.total_cycles, p.blocks,
                     format_double(p.aggregate_throughput, 4),
                     format_double(p.jain_fairness, 4), p.evictions,
                     p.quota_redirects, p.bounced);
  }
  std::printf("\nFig. 12 — multi-tenant fairness on %u PRCs + %u CG, %u "
              "blocks/tenant (written to fig12_multitenant_fairness.csv)\n%s",
              kPrcs, kCgFabrics, kBlocksPerTenant, table.render().c_str());
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
