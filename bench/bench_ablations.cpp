// Ablation study of the mRTS design choices called out in Section 4 (these
// go beyond the paper's own evaluation): monoCG-Extensions, intermediate
// ISEs, cross-ISE data-path sharing in the ECU, the MPU's error
// back-propagation, and the selection-overhead charging. Each variant runs
// the full workload on a 2-PRC / 2-CG machine.
//
// The variants run in order, each on a private MRts instance.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.h"

namespace {

using namespace mrts;
using namespace mrts::bench;

const EvalContext& context() {
  static const EvalContext ctx;
  return ctx;
}

struct Variant {
  const char* name;
  MRtsConfig config;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  out.push_back({"full mRTS", MRtsConfig{}});
  {
    MRtsConfig c;
    c.ecu.use_mono_cg = false;
    out.push_back({"no monoCG-Extension", c});
  }
  {
    MRtsConfig c;
    c.ecu.use_intermediates = false;
    out.push_back({"no intermediate ISEs", c});
  }
  {
    MRtsConfig c;
    c.ecu.use_cross_coverage = false;
    out.push_back({"no cross-ISE sharing", c});
  }
  {
    MRtsConfig c;
    c.ecu.use_intermediates = false;
    c.ecu.use_cross_coverage = false;
    c.ecu.use_mono_cg = false;
    out.push_back({"full-ISE-only ECU", c});
  }
  {
    MRtsConfig c;
    c.mpu.enabled = false;
    out.push_back({"no MPU (programmed forecasts)", c});
  }
  {
    MRtsConfig c;
    c.mpu.alpha = 1.0;
    out.push_back({"MPU alpha=1.0 (last value)", c});
  }
  {
    MRtsConfig c;
    c.charge_selection_overhead = false;
    out.push_back({"zero-overhead selection (ideal)", c});
  }
  {
    MRtsConfig c;
    c.use_optimal_selector = true;
    c.charge_selection_overhead = false;
    out.push_back({"optimal run-time selector", c});
  }
  {
    MRtsConfig c;
    c.selector_policy = SelectionPolicy::kMaxProfitDensity;
    out.push_back({"profit-density selection policy", c});
  }
  {
    MRtsConfig c;
    c.enable_lookahead = true;
    out.push_back({"cross-block lookahead prefetch", c});
  }
  {
    MRtsConfig c;
    c.profit_model.account_risc_window = false;
    out.push_back({"Eq.4 as printed (no NoE_RM term)", c});
  }
  {
    MRtsConfig c;
    c.profit_model.include_tb = false;
    out.push_back({"profit without tb term", c});
  }
  return out;
}

std::map<std::string, Cycles>& results() {
  static std::map<std::string, Cycles> r;
  return r;
}

void run_sweep() {
  for (const Variant& v : variants()) {
    results()[v.name] = context().run_mrts(2, 2, v.config).total_cycles;
  }
}

/// Reporting stub over the precomputed sweep results.
void BM_Ablation(benchmark::State& state, std::string name) {
  const EvalContext& ctx = context();
  const Cycles cycles = results()[name];
  for (auto _ : state) {
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["speedup_vs_risc"] = speedup(ctx.risc_cycles, cycles);
}

void register_benchmarks() {
  for (const auto& v : variants()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Ablation/") + v.name).c_str(), BM_Ablation,
        std::string(v.name))
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void print_table() {
  const EvalContext& ctx = context();
  const Cycles full = results()["full mRTS"];
  TextTable table(
      {"variant", "Mcycles", "speedup vs RISC", "slowdown vs full mRTS"});
  CsvWriter csv("ablations.csv");
  csv.write_header({"variant", "cycles", "speedup_vs_risc",
                    "slowdown_vs_full"});
  for (const auto& v : variants()) {
    const Cycles cycles = results()[v.name];
    // >1 means the variant is slower than full mRTS.
    const double slowdown = speedup(cycles, full);
    table.add_values(v.name, format_mcycles(cycles),
                     speedup(ctx.risc_cycles, cycles),
                     format_double(slowdown, 3) + "x");
    csv.write_values(v.name, cycles, speedup(ctx.risc_cycles, cycles),
                     slowdown);
  }
  std::printf("\nAblations — mRTS design choices on 2 PRCs + 2 CG fabrics\n%s",
              table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  parse_bench_args(&argc, argv, {});
  ::benchmark::Initialize(&argc, argv);
  run_sweep();
  register_benchmarks();
  ::benchmark::RunSpecifiedBenchmarks();
  print_table();
  return 0;
}
