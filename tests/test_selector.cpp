// Unit tests for the ISE selectors: the Fig. 6 greedy heuristic and the
// branch & bound optimal algorithm, plus the property optimal >= heuristic,
// a seeded fuzz of the branch & bound against an unpruned enumeration and
// against a commit-every-child reference search, the equivalence of both
// SelectorTuning settings, and the fused profit pass pinned bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "arch/fabric_manager.h"
#include "arch/fault_model.h"
#include "isa/ise_builder.h"
#include "rts/mrts.h"
#include "rts/selector_heuristic.h"
#include "rts/selector_optimal.h"
#include "sim/app_simulator.h"
#include "util/rng.h"
#include "util/trace.h"
#include "workload/h264_app.h"

namespace mrts {
namespace {

/// Library with two kernels:
///  * HOT: data-dominant, many executions, FG2/CG2/MG variants
///  * COLD: control-dominant, few executions
IseLibrary two_kernel_library() {
  IseLibrary lib;
  IseBuildSpec hot;
  hot.kernel_name = "HOT";
  hot.sw_latency = 1000;
  hot.control_fraction = 0.2;
  hot.fg_data_path_names = {"hot_fg1", "hot_fg2"};
  hot.cg_data_path_names = {"hot_cg1", "hot_cg2"};
  build_kernel_ises(lib, hot);

  IseBuildSpec cold;
  cold.kernel_name = "COLD";
  cold.sw_latency = 800;
  cold.control_fraction = 0.8;
  cold.fg_data_path_names = {"cold_fg1", "cold_fg2"};
  cold.cg_data_path_names = {"cold_cg1"};
  build_kernel_ises(lib, cold);
  return lib;
}

TriggerInstruction make_trigger(const IseLibrary& lib, double hot_e,
                                double cold_e) {
  TriggerInstruction ti;
  ti.functional_block = FunctionalBlockId{0};
  ti.entries.push_back({lib.find_kernel("HOT"), hot_e, 500, 50});
  ti.entries.push_back({lib.find_kernel("COLD"), cold_e, 800, 120});
  return ti;
}

TEST(HeuristicSelector, SelectsExactlyOneIsePerKernelWhenFabricAllows) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  ReconfigPlanner planner(lib.data_paths(), 4, 3, 0);
  const SelectionResult r = selector.select(make_trigger(lib, 2000, 500),
                                            planner);
  ASSERT_EQ(r.selected.size(), 2u);
  EXPECT_NE(r.selected[0].kernel, r.selected[1].kernel);
}

TEST(HeuristicSelector, RespectsResourceConstraint) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  for (unsigned prcs = 0; prcs <= 4; ++prcs) {
    for (unsigned cg = 0; cg <= 3; ++cg) {
      ReconfigPlanner planner(lib.data_paths(), prcs, cg, 0);
      const SelectionResult r =
          selector.select(make_trigger(lib, 2000, 500), planner);
      unsigned used_fg = 0;
      unsigned used_cg = 0;
      for (const auto& sel : r.selected) {
        used_fg += lib.ise(sel.ise).fg_units;
        used_cg += lib.ise(sel.ise).cg_units;
      }
      EXPECT_LE(used_fg, prcs);
      EXPECT_LE(used_cg, cg);
    }
  }
}

TEST(HeuristicSelector, NoFabricMeansNoSelection) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  ReconfigPlanner planner(lib.data_paths(), 0, 0, 0);
  const SelectionResult r = selector.select(make_trigger(lib, 2000, 500),
                                            planner);
  EXPECT_TRUE(r.selected.empty());
}

TEST(HeuristicSelector, HotKernelWinsScarceFabric) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  // Only one CG fabric: the kernel with the larger profit contribution (HOT,
  // data-dominant with many executions) must get it.
  ReconfigPlanner planner(lib.data_paths(), 0, 1, 0);
  const SelectionResult r = selector.select(make_trigger(lib, 3000, 50),
                                            planner);
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_EQ(r.selected[0].kernel, lib.find_kernel("HOT"));
}

TEST(HeuristicSelector, FewExecutionsFavorCgManyFavorFg) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  TriggerInstruction ti;
  ti.functional_block = FunctionalBlockId{0};
  ti.entries.push_back({lib.find_kernel("COLD"), 30, 100, 50});

  ReconfigPlanner planner_small(lib.data_paths(), 4, 3, 0);
  const SelectionResult small = selector.select(ti, planner_small);
  ASSERT_EQ(small.selected.size(), 1u);
  EXPECT_GT(lib.ise(small.selected[0].ise).cg_units, 0u)
      << "30 executions cannot amortize a 1.2 ms FG load";

  ti.entries[0].expected_executions = 200'000;
  ReconfigPlanner planner_large(lib.data_paths(), 4, 3, 0);
  const SelectionResult large = selector.select(ti, planner_large);
  ASSERT_EQ(large.selected.size(), 1u);
  EXPECT_GT(lib.ise(large.selected[0].ise).fg_units, 0u)
      << "a control kernel with 200k executions amortizes the FG fabric";
}

TEST(HeuristicSelector, CoveredVariantsArePrunedNotSelected) {
  // One kernel; once FG2 is selected, FG1 (a prefix) is covered and must
  // appear in `covered`, not selected for another kernel slot.
  IseLibrary lib;
  IseBuildSpec spec;
  spec.kernel_name = "K";
  spec.sw_latency = 1000;
  spec.control_fraction = 0.5;
  spec.fg_data_path_names = {"fg1", "fg2"};
  spec.cg_data_path_names = {};
  spec.build_mg_variants = false;
  spec.mono_cg_speedup = 0.0;
  build_kernel_ises(lib, spec);

  // Two kernels sharing the same data paths: selecting K's FG2 covers L's
  // FG variants entirely.
  IseBuildSpec shared = spec;
  shared.kernel_name = "L";
  build_kernel_ises(lib, shared);

  HeuristicSelector selector(lib);
  TriggerInstruction ti;
  ti.functional_block = FunctionalBlockId{0};
  ti.entries.push_back({lib.find_kernel("K"), 100'000, 100, 10});
  ti.entries.push_back({lib.find_kernel("L"), 100'000, 100, 10});
  ReconfigPlanner planner(lib.data_paths(), 2, 0, 0);
  const SelectionResult r = selector.select(ti, planner);
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_FALSE(r.covered.empty());
  // The other kernel's variants were covered by the shared data paths.
  bool other_covered = false;
  for (const auto& [k, ise] : r.covered) {
    if (k != r.selected[0].kernel) other_covered = true;
  }
  EXPECT_TRUE(other_covered);
}

TEST(HeuristicSelector, DeterministicAcrossRuns) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  ReconfigPlanner planner(lib.data_paths(), 3, 2, 0);
  const SelectionResult a = selector.select(make_trigger(lib, 1234, 567),
                                            planner);
  const SelectionResult b = selector.select(make_trigger(lib, 1234, 567),
                                            planner);
  ASSERT_EQ(a.selected.size(), b.selected.size());
  for (std::size_t i = 0; i < a.selected.size(); ++i) {
    EXPECT_EQ(a.selected[i].ise, b.selected[i].ise);
  }
}

TEST(HeuristicSelector, OverheadModelCountsEvaluations) {
  const IseLibrary lib = two_kernel_library();
  SelectorCostModel cost;
  HeuristicSelector selector(lib, cost);
  ReconfigPlanner planner(lib.data_paths(), 4, 3, 0);
  const SelectionResult r = selector.select(make_trigger(lib, 2000, 500),
                                            planner);
  EXPECT_GT(r.profit_evaluations, 0u);
  EXPECT_GE(r.first_round_evaluations, 1u);
  EXPECT_LE(r.first_round_evaluations, r.profit_evaluations);
  EXPECT_EQ(r.overhead_cycles,
            cost.cost(r.profit_evaluations, r.candidates_scanned));
}

TEST(OptimalSelector, MatchesHeuristicOnTrivialProblem) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector heuristic(lib);
  OptimalSelector optimal(lib);
  // Plenty of fabric: both should pick the per-kernel best.
  ReconfigPlanner p1(lib.data_paths(), 8, 8, 0);
  ReconfigPlanner p2(lib.data_paths(), 8, 8, 0);
  const SelectionResult h = heuristic.select(make_trigger(lib, 2000, 500), p1);
  const SelectionResult o = optimal.select(make_trigger(lib, 2000, 500), p2);
  EXPECT_NEAR(h.total_profit, o.total_profit,
              0.01 * std::max(1.0, o.total_profit));
}

TEST(OptimalSelector, NeverWorseThanHeuristic) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector heuristic(lib);
  OptimalSelector optimal(lib);
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const double hot_e = static_cast<double>(rng.uniform_int(10, 5000));
    const double cold_e = static_cast<double>(rng.uniform_int(10, 5000));
    const auto prcs = static_cast<unsigned>(rng.uniform_int(0, 4));
    const auto cg = static_cast<unsigned>(rng.uniform_int(0, 3));
    ReconfigPlanner p1(lib.data_paths(), prcs, cg, 0);
    ReconfigPlanner p2(lib.data_paths(), prcs, cg, 0);
    const TriggerInstruction ti = make_trigger(lib, hot_e, cold_e);
    const SelectionResult h = heuristic.select(ti, p1);
    const SelectionResult o = optimal.select(ti, p2);
    EXPECT_GE(o.total_profit, h.total_profit - 1e-6)
        << "prcs=" << prcs << " cg=" << cg << " hot=" << hot_e
        << " cold=" << cold_e;
  }
}

TEST(OptimalSelector, RespectsResourceConstraint) {
  const IseLibrary lib = two_kernel_library();
  OptimalSelector optimal(lib);
  ReconfigPlanner planner(lib.data_paths(), 2, 1, 0);
  const SelectionResult r = optimal.select(make_trigger(lib, 2000, 500),
                                           planner);
  unsigned used_fg = 0;
  unsigned used_cg = 0;
  for (const auto& sel : r.selected) {
    used_fg += lib.ise(sel.ise).fg_units;
    used_cg += lib.ise(sel.ise).cg_units;
  }
  EXPECT_LE(used_fg, 2u);
  EXPECT_LE(used_cg, 1u);
  EXPECT_LE(r.selected.size(), 2u);
}

TEST(HeuristicSelector, TraceExplainsEveryDecision) {
  const IseLibrary lib = two_kernel_library();
  HeuristicSelector selector(lib);
  ReconfigPlanner planner(lib.data_paths(), 2, 1, 0);
  std::string trace;
  const SelectionResult r =
      selector.select_with_trace(make_trigger(lib, 2000, 500), planner, trace);
  EXPECT_NE(trace.find("candidate list:"), std::string::npos);
  EXPECT_NE(trace.find("round 1:"), std::string::npos);
  for (const auto& sel : r.selected) {
    EXPECT_NE(trace.find("selected " + lib.ise(sel.ise).name),
              std::string::npos)
        << trace;
  }
  // The trace and the plain API must agree.
  ReconfigPlanner planner2(lib.data_paths(), 2, 1, 0);
  const SelectionResult plain =
      selector.select(make_trigger(lib, 2000, 500), planner2);
  ASSERT_EQ(plain.selected.size(), r.selected.size());
  for (std::size_t i = 0; i < plain.selected.size(); ++i) {
    EXPECT_EQ(plain.selected[i].ise, r.selected[i].ise);
  }
}

TEST(HeuristicSelector, DensityPolicyAvoidsResourceHogging) {
  // Two kernels with similar weights on a 2-PRC machine: the max-profit
  // policy gives both PRCs to one kernel's FG2; the density policy spreads
  // two FG1 variants — which here has the higher combined profit.
  IseLibrary lib;
  for (const char* name : {"P", "Q"}) {
    IseBuildSpec spec;
    spec.kernel_name = name;
    spec.sw_latency = 1000;
    spec.control_fraction = 0.5;
    spec.fg_data_path_names = {std::string(name) + "_fg1",
                               std::string(name) + "_fg2"};
    spec.cg_data_path_names = {};
    spec.build_mg_variants = false;
    spec.mono_cg_speedup = 0.0;
    build_kernel_ises(lib, spec);
  }
  TriggerInstruction ti;
  ti.functional_block = FunctionalBlockId{0};
  ti.entries.push_back({lib.find_kernel("P"), 50'000, 100, 20});
  ti.entries.push_back({lib.find_kernel("Q"), 48'000, 100, 20});

  HeuristicSelector max_profit(lib);
  ReconfigPlanner p1(lib.data_paths(), 2, 0, 0);
  const SelectionResult greedy = max_profit.select(ti, p1);

  HeuristicSelector density(lib, SelectorCostModel{},
                            SelectionPolicy::kMaxProfitDensity);
  ReconfigPlanner p2(lib.data_paths(), 2, 0, 0);
  const SelectionResult spread = density.select(ti, p2);

  ASSERT_EQ(greedy.selected.size(), 1u);  // FG2 hogs both PRCs
  ASSERT_EQ(spread.selected.size(), 2u);  // one FG1 per kernel
  EXPECT_GT(spread.total_profit, greedy.total_profit);
}

TEST(HeuristicSelector, WorkIsLinearInCandidates) {
  // Section 4.1's O(N*M): profit evaluations are bounded by one evaluation
  // per candidate per committed round, i.e. <= N * (N*M).
  for (unsigned kernels : {2u, 6u}) {
    IseLibrary lib;
    for (unsigned k = 0; k < kernels; ++k) {
      IseBuildSpec spec;
      spec.kernel_name = std::string("N").append(std::to_string(k));
      spec.sw_latency = 700;
      spec.control_fraction = 0.4;
      spec.fg_data_path_names = {spec.kernel_name + "_f1",
                                 spec.kernel_name + "_f2",
                                 spec.kernel_name + "_f3"};
      spec.cg_data_path_names = {spec.kernel_name + "_c1",
                                 spec.kernel_name + "_c2"};
      spec.fg_control_dps = 3;
      spec.cg_data_dps = 2;
      build_kernel_ises(lib, spec);
    }
    TriggerInstruction ti;
    ti.functional_block = FunctionalBlockId{0};
    for (const auto& kernel : lib.kernels()) {
      ti.entries.push_back({kernel.id, 5000.0, 400, 100});
    }
    const std::size_t m = lib.kernel(KernelId{0}).ises.size();
    HeuristicSelector selector(lib);
    ReconfigPlanner planner(lib.data_paths(), 6, 4, 0);
    const SelectionResult r = selector.select(ti, planner);
    EXPECT_LE(r.profit_evaluations,
              static_cast<std::uint64_t>(kernels) * kernels * m);
    EXPECT_GE(r.profit_evaluations, static_cast<std::uint64_t>(m));
  }
}

TEST(OptimalSelector, CountsCombinations) {
  const IseLibrary lib = two_kernel_library();
  OptimalSelector optimal(lib);
  ReconfigPlanner planner(lib.data_paths(), 8, 8, 0);
  optimal.select(make_trigger(lib, 2000, 500), planner);
  EXPECT_GT(optimal.last_combinations(), 0u);
}

TEST(OptimalSelector, ExactTieGoesToTheFirstCombinationInSearchOrder) {
  // Content seed 0xC0FFEE + 7 on 5 PRC + 3 CG: at the trigger at cycle
  // 45,609,227, IPRED.FG1 (one PRC) and IPRED.FG2 (two PRCs) both price at
  // 392390.97473236773, and the two best combinations, which differ only in
  // that pick, both total 1219880.7833261178. FG1 comes first in search
  // order, so it must win. A search that undoes its running sum with -=
  // carries the rounding residue of earlier sibling subtrees into the tie
  // and picks FG2.
  H264AppParams params;
  params.seed = 0xC0FFEE + 7;
  const H264Application app = build_h264_application(params);
  MRtsConfig cfg;
  cfg.use_optimal_selector = true;
  MRts rts(app.library, /*num_cg_fabrics=*/3, /*num_prcs=*/5, cfg);
  TraceRecorder trace;
  rts.attach_observability(&trace, nullptr);
  run_application(rts, app.trace, &trace);

  std::vector<std::uint32_t> ipred_picks;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == TraceEventKind::kSelectorPick && e.at == 45'609'227 &&
        e.arg0 == raw(app.k_ipred)) {
      ipred_picks.push_back(e.arg1);
    }
  }
  ASSERT_EQ(ipred_picks.size(), 1u);
  EXPECT_EQ(ipred_picks[0], 19u);
  EXPECT_EQ(app.library.ise(IseId{ipred_picks[0]}).name, "IPRED.FG1");
}

/// Kernel options in OptimalSelector's documented search order: kernels by
/// descending root upper bound (ties in trigger order), each with the ISEs
/// that fit the root budget in library order.
struct OrderedKernel {
  const TriggerEntry* entry = nullptr;
  std::vector<IseId> ises;
  double upper_bound = 0.0;
};

std::vector<OrderedKernel> search_order(const IseLibrary& lib,
                                        const TriggerInstruction& ti,
                                        const ReconfigPlanner& planner) {
  std::vector<OrderedKernel> kernels;
  for (const TriggerEntry& entry : ti.entries) {
    OrderedKernel k;
    k.entry = &entry;
    for (IseId ise : lib.kernel(entry.kernel).ises) {
      if (!lib.ise(ise).fits(planner.free_prcs(), planner.free_cg())) continue;
      k.ises.push_back(ise);
      k.upper_bound = std::max(
          k.upper_bound, evaluate_candidate(lib, ise, entry, planner).profit);
    }
    kernels.push_back(std::move(k));
  }
  std::stable_sort(kernels.begin(), kernels.end(),
                   [](const OrderedKernel& a, const OrderedKernel& b) {
                     return a.upper_bound > b.upper_bound;
                   });
  return kernels;
}

/// The oracle: every combination in search order, no pruning, a planner
/// copy per node, leaf value = left-to-right sum of its picks, and the
/// first maximum wins.
SelectionResult enumerate_all(const IseLibrary& lib,
                              const TriggerInstruction& ti,
                              const ReconfigPlanner& root) {
  const std::vector<OrderedKernel> kernels = search_order(lib, ti, root);
  std::vector<SelectedIse> current;
  std::vector<SelectedIse> best;
  double best_value = -std::numeric_limits<double>::infinity();
  const auto walk = [&](const auto& self, std::size_t depth,
                        const ReconfigPlanner& planner, double sum) -> void {
    if (depth == kernels.size()) {
      if (sum > best_value) {
        best_value = sum;
        best = current;
      }
      return;
    }
    const OrderedKernel& k = kernels[depth];
    self(self, depth + 1, planner, sum);  // "no ISE"
    for (IseId ise : k.ises) {
      const IseVariant& v = lib.ise(ise);
      if (!planner.fits(v.fg_units, v.cg_units)) continue;
      const double profit =
          evaluate_candidate(lib, ise, *k.entry, planner).profit;
      ReconfigPlanner child = planner;
      current.push_back(
          {k.entry->kernel, ise, profit, child.commit(v.data_paths)});
      self(self, depth + 1, child, sum + profit);
      current.pop_back();
    }
  };
  walk(walk, 0, root, 0.0);
  SelectionResult result;
  result.selected = std::move(best);
  result.total_profit = std::max(0.0, best_value);
  return result;
}

/// The documented greedy dive: per kernel in search order, the fitting ISE
/// of highest positive profit (the first on ties), committed in turn.
SelectionResult greedy_dive(const IseLibrary& lib, const TriggerInstruction& ti,
                            ReconfigPlanner planner) {
  SelectionResult result;
  for (const OrderedKernel& k : search_order(lib, ti, planner)) {
    IseId pick = kInvalidIse;
    double pick_profit = 0.0;
    for (IseId ise : k.ises) {
      const IseVariant& v = lib.ise(ise);
      if (!planner.fits(v.fg_units, v.cg_units)) continue;
      const double profit =
          evaluate_candidate(lib, ise, *k.entry, planner).profit;
      if (profit > pick_profit) {
        pick = ise;
        pick_profit = profit;
      }
    }
    if (pick == kInvalidIse) continue;
    result.selected.push_back({k.entry->kernel, pick, pick_profit,
                               planner.commit(lib.ise(pick).data_paths)});
    result.total_profit += pick_profit;
  }
  return result;
}

::testing::AssertionResult same_picks(const SelectionResult& got,
                                      const SelectionResult& want) {
  if (got.total_profit != want.total_profit) {
    return ::testing::AssertionFailure()
           << "total_profit " << got.total_profit << " != "
           << want.total_profit;
  }
  if (got.selected.size() != want.selected.size()) {
    return ::testing::AssertionFailure()
           << got.selected.size() << " picks != " << want.selected.size();
  }
  for (std::size_t i = 0; i < got.selected.size(); ++i) {
    const SelectedIse& g = got.selected[i];
    const SelectedIse& w = want.selected[i];
    if (g.kernel != w.kernel || g.ise != w.ise || g.profit != w.profit ||
        g.instance_ready != w.instance_ready) {
      return ::testing::AssertionFailure()
             << "pick " << i << ": kernel " << raw(g.kernel) << " ISE "
             << raw(g.ise) << " profit " << g.profit << " vs kernel "
             << raw(w.kernel) << " ISE " << raw(w.ise) << " profit "
             << w.profit;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Random library: 2-5 kernels, some sharing data paths; then exact
/// duplicates of random variants and dominated copies (one more instance of
/// the last data path at unchanged latency), so exact ties occur.
IseLibrary random_library(Rng& rng) {
  IseLibrary lib;
  const auto kernels = static_cast<unsigned>(rng.uniform_int(2, 5));
  for (unsigned k = 0; k < kernels; ++k) {
    IseBuildSpec spec;
    spec.kernel_name = std::string("R").append(std::to_string(k));
    spec.sw_latency = static_cast<Cycles>(rng.uniform_int(300, 1500));
    spec.control_fraction = rng.uniform(0.1, 0.9);
    // Kernel k may borrow kernel k-1's data paths (cross-kernel reuse).
    const unsigned owner = k > 0 && rng.bernoulli(0.3) ? k - 1 : k;
    const std::string tag = std::to_string(owner);
    const auto fg = rng.uniform_int(0, 3);
    const auto cg = rng.uniform_int(fg == 0 ? 1 : 0, 2);
    for (std::int64_t i = 0; i < fg; ++i) {
      spec.fg_data_path_names.push_back("f" + tag + "_" + std::to_string(i));
    }
    for (std::int64_t i = 0; i < cg; ++i) {
      spec.cg_data_path_names.push_back("c" + tag + "_" + std::to_string(i));
    }
    spec.build_mg_variants = rng.bernoulli(0.7);
    build_kernel_ises(lib, spec);
  }
  const std::size_t built = lib.num_ises();
  for (std::size_t i = 0; i < built; ++i) {
    const IseVariant original = lib.ise(IseId{static_cast<std::uint32_t>(i)});
    if (original.is_mono_cg) continue;
    if (rng.bernoulli(0.25)) {
      IseVariant copy = original;
      copy.name += ".dup";
      lib.add_ise(std::move(copy));
    }
    if (rng.bernoulli(0.2)) {
      IseVariant dominated = original;
      dominated.name += ".dom";
      dominated.data_paths.push_back(dominated.data_paths.back());
      dominated.latency_after.push_back(dominated.latency_after.back());
      lib.add_ise(std::move(dominated));
    }
  }
  return lib;
}

TriggerInstruction random_trigger(const IseLibrary& lib, Rng& rng) {
  TriggerInstruction ti;
  ti.functional_block = FunctionalBlockId{0};
  for (const Kernel& k : lib.kernels()) {
    if (rng.bernoulli(0.2)) continue;
    // Executions from "barely worth a CG load" to "amortizes every FG load".
    const double e = rng.bernoulli(0.1)
                         ? 0.0
                         : static_cast<double>(rng.uniform_int(5, 200'000));
    ti.entries.push_back({k.id, e,
                          static_cast<Cycles>(rng.uniform_int(0, 400'000)),
                          static_cast<Cycles>(rng.uniform_int(0, 2'000))});
  }
  return ti;
}

/// A planner snapshot on a fabric that already holds instances and has
/// loads in flight: 0-3 earlier selections installed at rising cycles, the
/// snapshot taken while the last one may still be loading, and sometimes a
/// budget clamped below the fabric (a tenant's share).
ReconfigPlanner random_snapshot(const IseLibrary& lib, Rng& rng,
                                FabricManager& fabric) {
  HeuristicSelector warm(lib);
  Cycles now = 0;
  const auto installs = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < installs; ++i) {
    ReconfigPlanner planner(lib.data_paths(), fabric, now);
    const SelectionResult sel = warm.select(random_trigger(lib, rng), planner);
    std::vector<IsePlacementRequest> requests;
    for (const SelectedIse& s : sel.selected) {
      requests.push_back({s.ise, s.kernel, lib.ise(s.ise).data_paths});
    }
    fabric.install(requests, now);
    now += static_cast<Cycles>(rng.uniform_int(0, 600'000));
  }
  ReconfigPlanner planner(lib.data_paths(), fabric, now);
  if (rng.bernoulli(0.25)) {
    planner.clamp_budget(static_cast<unsigned>(rng.uniform_int(0, 4)),
                         static_cast<unsigned>(rng.uniform_int(0, 3)));
  }
  return planner;
}

TEST(OptimalSelectorFuzz, MatchesUnprunedEnumeration) {
  Rng rng(0x0b7a1);
  unsigned nonempty = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const IseLibrary lib = random_library(rng);
    FabricManager fabric(static_cast<unsigned>(rng.uniform_int(0, 3)),
                         static_cast<unsigned>(rng.uniform_int(0, 6)),
                         &lib.data_paths());
    const ReconfigPlanner planner = random_snapshot(lib, rng, fabric);
    const TriggerInstruction ti = random_trigger(lib, rng);
    const SelectionResult want = enumerate_all(lib, ti, planner);
    if (!want.selected.empty()) ++nonempty;
    for (const SelectorTuning tuning :
         {SelectorTuning{}, SelectorTuning::baseline()}) {
      OptimalSelector optimal(lib);
      optimal.set_tuning(tuning);
      EXPECT_TRUE(same_picks(optimal.select(ti, planner), want))
          << "trial " << trial << " incremental "
          << tuning.incremental_planner;
    }
  }
  EXPECT_GT(nonempty, 150u) << "the fuzz must mostly exercise real picks";
}

TEST(OptimalSelectorFuzz, NodeBudgetFallsBackToTheDive) {
  Rng rng(0xb0d6e7);
  for (int trial = 0; trial < 200; ++trial) {
    const IseLibrary lib = random_library(rng);
    FabricManager fabric(static_cast<unsigned>(rng.uniform_int(0, 3)),
                         static_cast<unsigned>(rng.uniform_int(0, 6)),
                         &lib.data_paths());
    const ReconfigPlanner planner = random_snapshot(lib, rng, fabric);
    const TriggerInstruction ti = random_trigger(lib, rng);
    const SelectionResult dive = greedy_dive(lib, ti, planner);
    const SelectionResult full = enumerate_all(lib, ti, planner);

    // Budget 0 stops at the root's first child: exactly the dive.
    OptimalSelector stopped(lib, /*node_budget=*/0);
    EXPECT_TRUE(same_picks(stopped.select(ti, planner), dive))
        << "trial " << trial;

    // A few nodes: a real combination, never worse than the dive.
    const auto budget = static_cast<std::uint64_t>(rng.uniform_int(1, 12));
    OptimalSelector tiny(lib, budget);
    const SelectionResult got = tiny.select(ti, planner);
    EXPECT_GE(got.total_profit, dive.total_profit) << "trial " << trial;
    EXPECT_LE(got.total_profit, full.total_profit) << "trial " << trial;
    ReconfigPlanner replay = planner;
    double sum = 0.0;
    for (const SelectedIse& s : got.selected) {
      const TriggerEntry* entry = nullptr;
      for (const TriggerEntry& e : ti.entries) {
        if (e.kernel == s.kernel) entry = &e;
      }
      ASSERT_NE(entry, nullptr);
      EXPECT_EQ(s.profit, evaluate_candidate(lib, s.ise, *entry, replay).profit);
      EXPECT_EQ(s.instance_ready, replay.commit(lib.ise(s.ise).data_paths));
      sum += s.profit;
    }
    EXPECT_EQ(got.total_profit, std::max(0.0, sum)) << "trial " << trial;
  }
}

// The commit-every-child search, kept as a reference: the documented
// branch-and-bound without the entry test before the commit. It commits
// every evaluated child that fits, tests the budget, the leaf and the bound
// on entering the child, and copies the whole path of SelectedIse
// (schedules included) at every improving leaf. The selector must return
// exactly its SelectionResult, counters and last_combinations() included.

/// OptimalSelector's default node budget.
constexpr std::uint64_t kDefaultNodeBudget = 200'000'000;

struct ReferenceSearch {
  const IseLibrary* lib = nullptr;
  const std::vector<OrderedKernel>* kernels = nullptr;
  std::uint64_t node_budget = 0;
  std::uint64_t nodes = 0;
  std::uint64_t combinations = 0;
  std::uint64_t profit_evals = 0;
  double best_profit = 0.0;
  std::vector<SelectedIse> best_selection;
  std::vector<double> ub_suffix;
  std::vector<SelectedIse> current;

  double evaluate(IseId ise, const TriggerEntry& entry,
                  const ReconfigPlanner& planner) {
    ++profit_evals;
    return evaluate_candidate(*lib, ise, entry, planner).profit;
  }

  static double slack(double value) {
    return 1e-9 * std::max(1.0, std::abs(value));
  }

  double dive(ReconfigPlanner planner, std::vector<SelectedIse>& picks) {
    double value = 0.0;
    for (const OrderedKernel& opt : *kernels) {
      IseId pick = kInvalidIse;
      double pick_profit = 0.0;
      for (IseId ise_id : opt.ises) {
        const IseVariant& v = lib->ise(ise_id);
        if (!planner.fits(v.fg_units, v.cg_units)) continue;
        const double profit = evaluate(ise_id, *opt.entry, planner);
        if (profit > pick_profit) {
          pick = ise_id;
          pick_profit = profit;
        }
      }
      if (pick == kInvalidIse) continue;
      picks.push_back({opt.entry->kernel, pick, pick_profit,
                       planner.commit(lib->ise(pick).data_paths)});
      value += pick_profit;
    }
    return value;
  }

  void dfs(std::size_t depth, const ReconfigPlanner& planner, double sum) {
    if (nodes++ > node_budget) return;
    if (depth == kernels->size()) {
      ++combinations;
      if (sum > best_profit) {
        best_profit = sum;
        best_selection = current;
      }
      return;
    }
    if (sum + ub_suffix[depth] + slack(best_profit) <= best_profit) return;
    const OrderedKernel& opt = (*kernels)[depth];
    dfs(depth + 1, planner, sum);  // "no ISE"
    for (IseId ise_id : opt.ises) {
      const IseVariant& v = lib->ise(ise_id);
      if (!planner.fits(v.fg_units, v.cg_units)) continue;
      const double profit = evaluate(ise_id, *opt.entry, planner);
      ReconfigPlanner child = planner;
      current.push_back(
          {opt.entry->kernel, ise_id, profit, child.commit(v.data_paths)});
      dfs(depth + 1, child, sum + profit);
      current.pop_back();
    }
  }
};

/// The reference's OptimalSelector::select, with its last_combinations()
/// in \p combinations.
SelectionResult reference_select(const IseLibrary& lib,
                                 const TriggerInstruction& ti,
                                 const ReconfigPlanner& planner,
                                 std::uint64_t node_budget,
                                 std::uint64_t* combinations) {
  ReferenceSearch st;
  st.lib = &lib;
  st.node_budget = node_budget;
  // The root upper bounds are profit evaluations too.
  std::vector<OrderedKernel> kernels = search_order(lib, ti, planner);
  for (const OrderedKernel& k : kernels) st.profit_evals += k.ises.size();
  st.kernels = &kernels;
  st.ub_suffix.assign(kernels.size() + 1, 0.0);
  for (std::size_t i = kernels.size(); i > 0; --i) {
    st.ub_suffix[i - 1] = st.ub_suffix[i] + kernels[i - 1].upper_bound;
  }
  std::vector<SelectedIse> dive_picks;
  const double dive_profit = st.dive(planner, dive_picks);
  st.best_profit = dive_profit - ReferenceSearch::slack(dive_profit);
  st.dfs(0, planner, 0.0);
  *combinations = st.combinations;
  if (st.best_profit < dive_profit) {
    st.best_selection = std::move(dive_picks);
    st.best_profit = dive_profit;
  }
  SelectionResult result;
  result.selected = std::move(st.best_selection);
  result.total_profit = std::max(0.0, st.best_profit);
  result.profit_evaluations = st.profit_evals;
  result.candidates_scanned = st.nodes;
  return result;
}

// The selector hot-path switch (SelectorTuning) is a pure optimization:
// every SelectionResult stays identical to SelectorTuning::baseline(), which
// keeps the pre-optimization implementation alive for this comparison.

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

/// Replays the H.264 trigger sequence on a fabric of the given size and, at
/// every decision point, compares both selectors at their default tuning
/// (the incremental planner and the fused profit pass) against
/// SelectorTuning::baseline() on identical planner snapshots, and the
/// optimal selector against the reference search. Returns the number of
/// decision points checked.
std::size_t check_grid_point(const H264Application& app, unsigned prcs,
                             unsigned cg, FabricManager* faulted = nullptr) {
  const IseLibrary& lib = app.library;
  FabricManager own(cg, prcs, &lib.data_paths());
  FabricManager& fabric = faulted != nullptr ? *faulted : own;

  HeuristicSelector h_base(lib);
  h_base.set_tuning(SelectorTuning::baseline());
  HeuristicSelector h_tuned(lib);

  OptimalSelector o_base(lib);
  o_base.set_tuning(SelectorTuning::baseline());
  OptimalSelector o_tuned(lib);

  std::size_t checked = 0;
  Cycles now = 0;
  for (const FunctionalBlockInstance& block : app.trace.blocks) {
    ReconfigPlanner planner(lib.data_paths(), fabric, now);
    const SelectionResult hb = h_base.select(block.programmed, planner);
    const SelectionResult ht = h_tuned.select(block.programmed, planner);
    EXPECT_TRUE(same_selection(hb, ht))
        << "heuristic diverged at PRC=" << prcs << " CG=" << cg
        << " cycle=" << now;
    const SelectionResult ob = o_base.select(block.programmed, planner);
    const SelectionResult ot = o_tuned.select(block.programmed, planner);
    EXPECT_TRUE(same_selection(ob, ot))
        << "optimal diverged at PRC=" << prcs << " CG=" << cg
        << " cycle=" << now;
    std::uint64_t combinations = 0;
    const SelectionResult oref = reference_select(
        lib, block.programmed, planner, kDefaultNodeBudget, &combinations);
    EXPECT_TRUE(same_selection(ot, oref))
        << "optimal left the reference search at PRC=" << prcs
        << " CG=" << cg << " cycle=" << now;
    EXPECT_EQ(o_tuned.last_combinations(), combinations);
    EXPECT_EQ(o_base.last_combinations(), combinations);
    ++checked;
    // Evolve the fabric with the agreed selection so later snapshots carry
    // real port backlogs and reusable instances.
    std::vector<IsePlacementRequest> requests;
    requests.reserve(hb.selected.size());
    for (const auto& s : hb.selected) {
      requests.push_back({s.ise, s.kernel, lib.ise(s.ise).data_paths});
    }
    fabric.install(requests, now);
    now += 150'000;
  }
  return checked;
}

TEST(SelectorTuningEquivalence, FullFabricGridHeuristicAndOptimal) {
  // The fig8/fig9 grid: every PRC x CG combination, including the RISC-only
  // corner (both selectors must return an empty selection there either way).
  H264AppParams params;
  params.frames = 2;  // 6 decision points per grid point keeps this fast
  const H264Application app = build_h264_application(params);
  std::size_t checked = 0;
  for (unsigned prcs = 0; prcs <= 6; ++prcs) {
    for (unsigned cg = 0; cg <= 3; ++cg) {
      checked += check_grid_point(app, prcs, cg);
    }
  }
  EXPECT_EQ(checked, 7u * 4u * app.trace.blocks.size());
}

TEST(SelectorTuningEquivalence, HoldsAfterFaultInducedQuarantines) {
  // Quarantines (and the scrub passes that diagnose them) change the fabric
  // under the planner; selections on the degraded fabric must stay
  // identical at either tuning. The fault model is deterministic from its
  // seed.
  H264AppParams params;
  params.frames = 2;
  const H264Application app = build_h264_application(params);
  const IseLibrary& lib = app.library;

  FaultModelConfig fc;
  fc.seed = 0xDEAD;
  fc.fg_load_failure_prob = 0.2;
  fc.transient_upset_prob = 0.05;
  fc.permanent_fault_prob = 0.5;
  fc.scrub_interval_cycles = 100'000;
  FaultModel fault(fc);

  FabricManager fabric(/*num_cg_fabrics=*/3, /*num_prcs=*/6,
                       &lib.data_paths());
  fabric.attach_fault_model(&fault);
  const std::uint64_t epoch_before = fabric.state_epoch();

  // Force a degraded fabric regardless of the stochastic diagnosis path.
  fabric.quarantine(Grain::kFine, 0, 0);
  fabric.quarantine(Grain::kCoarse, 0, 0);
  EXPECT_GT(fabric.state_epoch(), epoch_before);

  const std::uint64_t epoch_quarantined = fabric.state_epoch();
  check_grid_point(app, 6, 3, &fabric);
  // The replay installs and scrubs under an aggressive fault model; the
  // epoch must keep moving so no memo keyed on it can go stale.
  EXPECT_GT(fabric.state_epoch(), epoch_quarantined);
}


/// Both tunings of OptimalSelector(lib, budget) against the reference
/// search: every SelectionResult field and last_combinations().
::testing::AssertionResult matches_reference(const IseLibrary& lib,
                                             const TriggerInstruction& ti,
                                             const ReconfigPlanner& planner,
                                             std::uint64_t budget) {
  std::uint64_t combinations = 0;
  const SelectionResult want =
      reference_select(lib, ti, planner, budget, &combinations);
  for (const SelectorTuning tuning :
       {SelectorTuning{}, SelectorTuning::baseline()}) {
    OptimalSelector optimal(lib, budget);
    optimal.set_tuning(tuning);
    const SelectionResult got = optimal.select(ti, planner);
    if (!same_selection(got, want)) {
      return ::testing::AssertionFailure()
             << "budget " << budget << " incremental "
             << tuning.incremental_planner << ": " << got.selected.size()
             << " picks, " << got.candidates_scanned << " nodes, "
             << got.profit_evaluations << " evaluations, total "
             << got.total_profit << " vs " << want.selected.size()
             << " picks, " << want.candidates_scanned << " nodes, "
             << want.profit_evaluations << " evaluations, total "
             << want.total_profit;
    }
    if (optimal.last_combinations() != combinations) {
      return ::testing::AssertionFailure()
             << "budget " << budget << " incremental "
             << tuning.incremental_planner << ": "
             << optimal.last_combinations() << " combinations vs "
             << combinations;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(OptimalSelectorReference, FuzzTrialsMatchTheReferenceSearch) {
  Rng rng(0x0b7a1);  // the trials of OptimalSelectorFuzz
  for (int trial = 0; trial < 300; ++trial) {
    const IseLibrary lib = random_library(rng);
    FabricManager fabric(static_cast<unsigned>(rng.uniform_int(0, 3)),
                         static_cast<unsigned>(rng.uniform_int(0, 6)),
                         &lib.data_paths());
    const ReconfigPlanner planner = random_snapshot(lib, rng, fabric);
    const TriggerInstruction ti = random_trigger(lib, rng);
    EXPECT_TRUE(matches_reference(lib, ti, planner, kDefaultNodeBudget))
        << "trial " << trial;
  }
}

TEST(OptimalSelectorReference, NodeBudgetStopsMatchTheReferenceSearch) {
  // Budgets 0-12 stop at the first nodes; half the full search's node count
  // stops it mid-search, and one and two below that count stop it on its
  // last node or let it finish.
  Rng rng(0xb0d6e7);
  const auto check = [](const IseLibrary& lib, const TriggerInstruction& ti,
                        const ReconfigPlanner& planner,
                        const std::string& where) {
    for (std::uint64_t budget = 0; budget <= 12; ++budget) {
      EXPECT_TRUE(matches_reference(lib, ti, planner, budget)) << where;
    }
    std::uint64_t combinations = 0;
    const std::uint64_t nodes =
        reference_select(lib, ti, planner, kDefaultNodeBudget, &combinations)
            .candidates_scanned;
    for (const std::uint64_t budget : {nodes / 2, nodes - 2, nodes - 1}) {
      EXPECT_TRUE(matches_reference(lib, ti, planner, budget)) << where;
    }
  };
  for (int trial = 0; trial < 100; ++trial) {
    const IseLibrary lib = random_library(rng);
    FabricManager fabric(static_cast<unsigned>(rng.uniform_int(0, 3)),
                         static_cast<unsigned>(rng.uniform_int(0, 6)),
                         &lib.data_paths());
    const ReconfigPlanner planner = random_snapshot(lib, rng, fabric);
    check(lib, random_trigger(lib, rng), planner,
          "trial " + std::to_string(trial));
  }
  // The H.264 triggers search trees of hundreds of nodes.
  H264AppParams params;
  params.frames = 1;
  const H264Application app = build_h264_application(params);
  FabricManager fabric(/*num_cg_fabrics=*/2, /*num_prcs=*/4,
                       &app.library.data_paths());
  const ReconfigPlanner planner(app.library.data_paths(), fabric, 0);
  for (const FunctionalBlockInstance& block : app.trace.blocks) {
    check(app.library, block.programmed, planner,
          "H.264 block " + std::to_string(raw(block.programmed.functional_block)));
  }
}

// The fused profit pass (evaluate_candidate_profit: plan_relative into a
// stack buffer, then profit_impl) must return the very bits of
// evaluate_candidate(...).profit and of compute_profit on the same ready
// times.

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// Checks the fused pass for \p ise under \p entry with every ProfitModel
/// switch; returns the relative ready times it was checked on.
std::vector<Cycles> check_fused(const IseLibrary& lib, IseId ise,
                                const TriggerEntry& entry,
                                const ReconfigPlanner& planner) {
  ProfitInputs in;
  in.ise = &lib.ise(ise);
  in.expected_executions = entry.expected_executions;
  in.time_to_first = entry.time_to_first;
  in.time_between = entry.time_between;
  for (Cycles t : planner.plan(in.ise->data_paths)) {
    in.ready_rel.push_back(t > planner.now() ? t - planner.now() : 0);
  }
  for (const bool risc_window : {true, false}) {
    for (const bool include_tb : {true, false}) {
      in.model.account_risc_window = risc_window;
      in.model.include_tb = include_tb;
      const double fused =
          evaluate_candidate_profit(lib, ise, entry, planner, in.model);
      EXPECT_EQ(bits_of(fused),
                bits_of(evaluate_candidate(lib, ise, entry, planner, in.model)
                            .profit))
          << in.ise->name;
      EXPECT_EQ(bits_of(fused), bits_of(compute_profit(in).profit))
          << in.ise->name;
    }
  }
  return in.ready_rel;
}

TEST(FusedProfitPass, MatchesEvaluateCandidateAndComputeProfitBitForBit) {
  Rng rng(0xf05ed);
  std::size_t single = 0, repeats = 0, uniform = 0, before_tf = 0,
              after_tf = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const IseLibrary lib = random_library(rng);
    FabricManager fabric(static_cast<unsigned>(rng.uniform_int(0, 3)),
                         static_cast<unsigned>(rng.uniform_int(0, 6)),
                         &lib.data_paths());
    ReconfigPlanner planner = random_snapshot(lib, rng, fabric);
    // RISPP's planner prices every new load at one FG-scale cost.
    const bool rispp = rng.bernoulli(0.3);
    if (rispp) {
      planner.set_uniform_reconfig_cycles(
          static_cast<Cycles>(rng.uniform_int(1, 600'000)));
    }
    const TriggerInstruction ti = random_trigger(lib, rng);
    for (const TriggerEntry& entry : ti.entries) {
      for (IseId ise : lib.kernel(entry.kernel).ises) {
        const std::vector<Cycles> ready = check_fused(lib, ise, entry, planner);
        const std::vector<DataPathId>& dps = lib.ise(ise).data_paths;
        single += dps.size() == 1 ? 1 : 0;
        repeats += std::set<DataPathId>(dps.begin(), dps.end()).size() <
                           dps.size()
                       ? 1
                       : 0;
        uniform += rispp ? 1 : 0;
        for (Cycles t : ready) {
          (t <= entry.time_to_first ? before_tf : after_tf) += 1;
        }
      }
    }
  }
  EXPECT_GT(single, 100u);
  EXPECT_GT(repeats, 100u);
  EXPECT_GT(uniform, 100u);
  EXPECT_GT(before_tf, 1000u);
  EXPECT_GT(after_tf, 1000u);
}

TEST(FusedProfitPass, IsesPastTheStackBufferStayExact) {
  // 20 instances alternating one FG and one CG data path: more than the
  // pass's 16-entry stack buffer, so it plans into the heap.
  IseLibrary lib;
  DataPathDesc fg;
  fg.name = "fg";
  DataPathDesc cg;
  cg.name = "cg";
  cg.grain = Grain::kCoarse;
  const DataPathId f = lib.data_paths().add(fg);
  const DataPathId c = lib.data_paths().add(cg);
  const KernelId k = lib.add_kernel("K", 4000);
  IseVariant long_ise;
  long_ise.name = "K.LONG";
  long_ise.kernel = k;
  long_ise.latency_after.push_back(4000);
  for (unsigned i = 0; i < 20; ++i) {
    long_ise.data_paths.push_back(i % 2 == 0 ? f : c);
    long_ise.latency_after.push_back(4000 - 150 * (i + 1));
  }
  const IseId id = lib.add_ise(long_ise);
  FabricManager fabric(/*num_cg_fabrics=*/4, /*num_prcs=*/4,
                       &lib.data_paths());
  HeuristicSelector warm(lib);
  TriggerInstruction ti;
  ti.functional_block = FunctionalBlockId{0};
  for (const Cycles tf : {Cycles{0}, Cycles{700'000}, Cycles{9'000'000}}) {
    ti.entries = {{k, 50'000.0, tf, 300}};
    ReconfigPlanner planner(lib.data_paths(), fabric, 1000);
    check_fused(lib, id, ti.entries[0], planner);
    planner.set_uniform_reconfig_cycles(480'000);
    check_fused(lib, id, ti.entries[0], planner);
  }
}

TEST(FusedProfitPass, CachedReconfigurationTimesEqualTheDescriptions) {
  Rng rng(0xcac4e);
  std::vector<IseLibrary> libs;
  libs.push_back(build_h264_application({}).library);
  for (int i = 0; i < 50; ++i) libs.push_back(random_library(rng));
  for (const IseLibrary& lib : libs) {
    const DataPathTable& table = lib.data_paths();
    for (const DataPathDesc& desc : table) {
      EXPECT_EQ(table.reconfig_cycles(desc.id), desc.reconfig_cycles())
          << desc.name;
      EXPECT_EQ(&table.unchecked(desc.id), &table[desc.id]) << desc.name;
    }
  }
}

}  // namespace
}  // namespace mrts
