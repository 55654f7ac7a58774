// Reproduces Fig. 1: performance improvement factor (Eq. 1) of the three
// H.264 Deblocking Filter ISEs of the Section 2 case study over the number
// of kernel executions. The paper's qualitative result: three dominance
// regions — ISE-2 (CG) for few executions, ISE-3 (MG) in the middle, ISE-1
// (FG) once its 2 x 1.2 ms reconfiguration amortizes.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "util/csv.h"
#include "util/table.h"
#include "workload/deblocking_case_study.h"

namespace {

using namespace mrts;

void BM_Fig1_PifSeries(benchmark::State& state) {
  const DeblockingCaseStudy cs = build_deblocking_case_study();
  double checksum = 0.0;
  for (auto _ : state) {
    for (double n = 0.0; n <= 10'000.0; n += 250.0) {
      checksum += case_study_pif(cs, cs.ise1, n) +
                  case_study_pif(cs, cs.ise2, n) +
                  case_study_pif(cs, cs.ise3, n);
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["mg_over_cg_crossover"] = pif_crossover(cs, cs.ise3, cs.ise2);
  state.counters["fg_over_mg_crossover"] = pif_crossover(cs, cs.ise1, cs.ise3);
}
BENCHMARK(BM_Fig1_PifSeries);

void print_figure() {
  const DeblockingCaseStudy cs = build_deblocking_case_study();
  TextTable table({"executions", "pif ISE-1 (FG)", "pif ISE-2 (CG)",
                   "pif ISE-3 (MG)", "best"});
  CsvWriter csv("fig1_pif.csv");
  csv.write_header({"executions", "pif_ise1_fg", "pif_ise2_cg", "pif_ise3_mg"});
  for (double n = 0.0; n <= 10'000.0; n += 500.0) {
    const double p1 = case_study_pif(cs, cs.ise1, n);
    const double p2 = case_study_pif(cs, cs.ise2, n);
    const double p3 = case_study_pif(cs, cs.ise3, n);
    const char* best = "-";
    if (n > 0) {
      best = (p1 >= p2 && p1 >= p3) ? "ISE-1"
             : (p2 >= p1 && p2 >= p3) ? "ISE-2"
                                      : "ISE-3";
    }
    table.add_values(static_cast<std::uint64_t>(n), p1, p2, p3, best);
    csv.write_values(n, p1, p2, p3);
  }
  std::printf("\nFig. 1 — pif of the three Deblocking Filter ISEs "
              "(written to fig1_pif.csv)\n%s",
              table.render().c_str());
  std::printf("Crossovers: ISE-3 overtakes ISE-2 at ~%.0f executions, "
              "ISE-1 overtakes ISE-3 at ~%.0f executions.\n",
              pif_crossover(cs, cs.ise3, cs.ise2),
              pif_crossover(cs, cs.ise1, cs.ise3));
}

}  // namespace

int main(int argc, char** argv) {
  mrts::bench::parse_bench_args(&argc, argv, {});
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  print_figure();
  return 0;
}
