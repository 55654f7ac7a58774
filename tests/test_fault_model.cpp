// Tests for the deterministic fault injector (arch/fault_model.h) and the
// fault-tolerant reconfiguration path it drives: FaultModel decision logic,
// FabricManager quarantine semantics, and the end-to-end properties of the
// faulty machine — determinism across repeated runs, no speedup gain
// from faults, and graceful degradation to pure RISC execution when every
// container is dead.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/fabric_manager.h"
#include "arch/fault_model.h"
#include "baselines/risc_only_rts.h"
#include "rts/mrts.h"
#include "sim/app_simulator.h"
#include "sim/metrics.h"
#include "util/counters.h"
#include "workload/h264_app.h"

namespace mrts {
namespace {

// --- FaultModel decision logic ---------------------------------------------

TEST(FaultModel, DefaultConfigInjectsNothing) {
  const FaultModelConfig config;
  EXPECT_FALSE(config.any_faults());
  FaultModel model(config);
  for (int i = 0; i < 100; ++i) {
    const LoadFaultOutcome out = model.plan_load(Grain::kFine, 480'000);
    EXPECT_TRUE(out.success);
    EXPECT_EQ(out.retries, 0u);
    EXPECT_EQ(out.port_cycles, 480'000u);
    EXPECT_FALSE(out.quarantine);
    EXPECT_FALSE(model.upset());
  }
  EXPECT_EQ(model.stats().injected, 0u);
}

TEST(FaultModel, SameSeedReproducesIdenticalFaultTimeline) {
  const FaultModelConfig config = FaultModelConfig::uniform(0.3, 1234);
  FaultModel a(config);
  FaultModel b(config);
  for (int i = 0; i < 200; ++i) {
    const LoadFaultOutcome oa = a.plan_load(Grain::kFine, 1000);
    const LoadFaultOutcome ob = b.plan_load(Grain::kFine, 1000);
    EXPECT_EQ(oa.success, ob.success);
    EXPECT_EQ(oa.retries, ob.retries);
    EXPECT_EQ(oa.port_cycles, ob.port_cycles);
    EXPECT_EQ(oa.quarantine, ob.quarantine);
    EXPECT_EQ(a.upset(), b.upset());
  }
  EXPECT_EQ(a.stats().injected, b.stats().injected);
}

TEST(FaultModel, DifferentSeedsDiverge) {
  FaultModel a(FaultModelConfig::uniform(0.5, 1));
  FaultModel b(FaultModelConfig::uniform(0.5, 2));
  bool diverged = false;
  for (int i = 0; i < 200 && !diverged; ++i) {
    diverged = a.plan_load(Grain::kFine, 1000).retries !=
               b.plan_load(Grain::kFine, 1000).retries;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultModel, RateOneExhaustsRetriesAndQuarantines) {
  FaultModel model(FaultModelConfig::uniform(1.0, 7, /*max_retries=*/2));
  const LoadFaultOutcome out = model.plan_load(Grain::kCoarse, 1000);
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.retries, 2u);
  EXPECT_TRUE(out.quarantine);  // permanent_fault_prob is 1.0 too
  // Every attempt streams the full 1000 cycles; retries pay backoff first.
  EXPECT_EQ(out.port_cycles,
            3 * 1000u + model.backoff(0) + model.backoff(1));
  EXPECT_EQ(model.stats().load_failures, 3u);
  EXPECT_EQ(model.stats().failed_loads, 1u);
}

TEST(FaultModel, ZeroRetriesAbandonsOnFirstFailure) {
  FaultModel model(FaultModelConfig::uniform(1.0, 7, /*max_retries=*/0));
  const LoadFaultOutcome out = model.plan_load(Grain::kFine, 500);
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.retries, 0u);
  EXPECT_EQ(out.port_cycles, 500u);  // one attempt, no backoff
}

TEST(FaultModel, BackoffDoublesAndClampsTheShift) {
  FaultModel model(FaultModelConfig{});
  EXPECT_EQ(model.backoff(0), 4000u);
  EXPECT_EQ(model.backoff(1), 8000u);
  EXPECT_EQ(model.backoff(2), 16000u);
  EXPECT_EQ(model.backoff(10), 4000u << 10);
  EXPECT_EQ(model.backoff(25), model.backoff(20));  // shift clamp, no UB
}

TEST(FaultModel, UniformDrivesEveryAxis) {
  const FaultModelConfig c = FaultModelConfig::uniform(0.25, 99, 5);
  EXPECT_DOUBLE_EQ(c.fg_load_failure_prob, 0.25);
  EXPECT_DOUBLE_EQ(c.cg_load_failure_prob, 0.25);
  EXPECT_DOUBLE_EQ(c.transient_upset_prob, 0.25);
  EXPECT_DOUBLE_EQ(c.permanent_fault_prob, 0.25);
  EXPECT_EQ(c.seed, 99u);
  EXPECT_EQ(c.max_retries, 5u);
  EXPECT_TRUE(c.any_faults());
}

// --- FabricManager quarantine semantics ------------------------------------

class QuarantineTest : public ::testing::Test {
 protected:
  QuarantineTest() {
    DataPathDesc fg;
    fg.name = "fg";
    fg.grain = Grain::kFine;
    fg_ = table_.add(fg);

    DataPathDesc mono;
    mono.name = "mono";
    mono.grain = Grain::kCoarse;
    mono.context_instructions = 32;
    mono_ = table_.add(mono);
  }

  DataPathTable table_;
  DataPathId fg_, mono_;
};

TEST_F(QuarantineTest, QuarantineShrinksUsableCapacity) {
  FabricManager fm(2, 2, &table_);
  EXPECT_EQ(fm.usable(Grain::kFine), 2u);
  EXPECT_EQ(fm.usable(Grain::kCoarse), 2u);
  fm.quarantine(Grain::kFine, 0, 0);
  fm.quarantine(Grain::kFine, 0, 0);  // idempotent
  fm.quarantine(Grain::kCoarse, 1, 0);
  EXPECT_EQ(fm.usable(Grain::kFine), 1u);
  EXPECT_EQ(fm.usable(Grain::kCoarse), 1u);
  EXPECT_TRUE(fm.quarantined(Grain::kFine, 0));
  EXPECT_FALSE(fm.quarantined(Grain::kFine, 1));
  EXPECT_TRUE(fm.quarantined(Grain::kCoarse, 1));
  const FabricUsage usage = fm.usage();
  EXPECT_EQ(usage.quarantined_prcs, 1u);
  EXPECT_EQ(usage.quarantined_cg, 1u);
  EXPECT_EQ(usage.usable_prcs(), 1u);
  EXPECT_EQ(usage.usable_cg(), 1u);
}

TEST_F(QuarantineTest, QuarantineSurvivesReset) {
  FabricManager fm(1, 2, &table_);
  fm.quarantine(Grain::kFine, 1, 0);
  fm.reset();
  EXPECT_TRUE(fm.quarantined(Grain::kFine, 1));
  EXPECT_EQ(fm.usable(Grain::kFine), 1u);
}

TEST_F(QuarantineTest, InstallNeverPlacesOnQuarantinedPrc) {
  FabricManager fm(0, 2, &table_);
  fm.quarantine(Grain::kFine, 0, 0);
  const auto placements =
      fm.install({{IseId{0}, KernelId{0}, {fg_}}}, /*now=*/0);
  ASSERT_EQ(placements.size(), 1u);
  ASSERT_EQ(placements[0].instance_ready.size(), 1u);
  EXPECT_NE(placements[0].instance_ready[0], kNeverCycles);
  // The only untainted PRC hosts the load; the quarantined one stays empty.
  EXPECT_TRUE(fm.fg_fabric().prc(0).empty());
  EXPECT_FALSE(fm.fg_fabric().prc(1).empty());
}

TEST_F(QuarantineTest, OversizedSelectionThrowsWithoutFaultModel) {
  FabricManager fm(0, 2, &table_);
  fm.quarantine(Grain::kFine, 0, 0);
  // Two FG instances no longer fit; the fault-free strict contract throws.
  EXPECT_THROW(fm.install({{IseId{0}, KernelId{0}, {fg_, fg_}}}, 0),
               std::invalid_argument);
}

TEST_F(QuarantineTest, OversizedSelectionDegradesWithFaultModel) {
  FaultModel model(FaultModelConfig::uniform(0.0, 1));
  FabricManager fm(0, 2, &table_);
  fm.attach_fault_model(&model);
  fm.quarantine(Grain::kFine, 0, 0);
  // With an attached injector the manager drops what no longer fits instead
  // of crashing the run mid-simulation.
  const auto placements =
      fm.install({{IseId{0}, KernelId{0}, {fg_, fg_}}}, 0);
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0].instance_ready[0], kNeverCycles);
}

TEST_F(QuarantineTest, MonoCgUnavailableWhenAllCgQuarantined) {
  FabricManager fm(2, 1, &table_);
  EXPECT_TRUE(fm.acquire_mono_cg(mono_, 0).has_value());
  fm.quarantine(Grain::kCoarse, 0, 0);
  fm.quarantine(Grain::kCoarse, 1, 0);
  EXPECT_EQ(fm.usable(Grain::kCoarse), 0u);
  EXPECT_FALSE(fm.acquire_mono_cg(mono_, 0).has_value());
  EXPECT_EQ(fm.usage().usable_cg(), 0u);
}

// --- End-to-end properties on the H.264 workload ---------------------------

class FaultSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    H264AppParams params;
    params.frames = 3;
    params.macroblocks = 396;
    app_ = new H264Application(build_h264_application(params));
    RiscOnlyRts risc(app_->library);
    risc_cycles_ = run_application(risc, app_->trace).total_cycles;
  }

  static void TearDownTestSuite() {
    delete app_;
    app_ = nullptr;
  }

  static Cycles run_faulty(double rate, std::uint64_t seed,
                           unsigned max_retries = 3) {
    MRtsConfig config;
    if (rate > 0.0) {
      config.fault = FaultModelConfig::uniform(rate, seed, max_retries);
    }
    MRts rts(app_->library, 2, 4, config);
    return run_application(rts, app_->trace).total_cycles;
  }

  static H264Application* app_;
  static Cycles risc_cycles_;
};

H264Application* FaultSweepTest::app_ = nullptr;
Cycles FaultSweepTest::risc_cycles_ = 0;

// Property (i): the faulty machine is as deterministic as the fault-free
// one — sweeping the rate axis a second time in the same process yields
// bit-identical cycle counts.
TEST_F(FaultSweepTest, CycleCountsIdenticalAcrossRuns) {
  const std::vector<double> rates = {0.0, 0.05, 0.2, 1.0};
  const auto sweep = [&rates] {
    std::vector<Cycles> cycles;
    for (const double rate : rates) cycles.push_back(run_faulty(rate, 42));
    return cycles;
  };
  const std::vector<Cycles> first = sweep();
  EXPECT_EQ(sweep(), first);
}

// Property (ii): faults never speed the machine up for free. The honest
// bound is subtle: quarantines shrink capacity, and on a short workload a
// *smaller* fault-free machine can legitimately be faster (less selection
// and reconfiguration overhead to amortize) — so a capacity-shedding fault
// may beat the full-size fault-free run. What a fault can never do is beat
// the best fault-free machine across every capacity it could degrade to.
// A 0.5% tolerance absorbs residual heuristic/MPU perturbation noise.
TEST_F(FaultSweepTest, SpeedupNeverMateriallyExceedsBestFaultFree) {
  Cycles best_fault_free = kNeverCycles;
  for (unsigned prcs = 0; prcs <= 4; ++prcs) {
    for (unsigned cg = 0; cg <= 2; ++cg) {
      MRts rts(app_->library, cg, prcs);
      best_fault_free = std::min(
          best_fault_free, run_application(rts, app_->trace).total_cycles);
    }
  }
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    for (double rate : {0.05, 0.2, 0.5, 1.0}) {
      const Cycles faulty = run_faulty(rate, seed);
      EXPECT_GE(faulty + best_fault_free / 200, best_fault_free)
          << "rate=" << rate << " seed=" << seed;
    }
  }
}

// Property (iii): at rate 1.0 with a zero retry budget every load fails and
// permanently quarantines its container, so the run must complete with every
// kernel execution in RISC mode — the bottom of the ECU degradation ladder —
// rather than crash or hang.
TEST_F(FaultSweepTest, RateOneZeroRetriesCompletesEverythingInRiscMode) {
  MRtsConfig config;
  config.fault = FaultModelConfig::uniform(1.0, 42, /*max_retries=*/0);
  MRts rts(app_->library, 2, 4, config);
  CounterRegistry counters;
  rts.attach_observability(nullptr, &counters);
  const AppRunResult result = run_application(rts, app_->trace);
  EXPECT_GT(result.total_cycles, 0u);

  const EcuStats& ecu = rts.ecu().stats();
  EXPECT_GT(ecu.total_executions(), 0u);
  EXPECT_EQ(ecu.executions[static_cast<std::size_t>(ImplKind::kRisc)],
            ecu.total_executions());

  ASSERT_NE(rts.fault_model(), nullptr);
  const FaultStats& stats = rts.fault_model()->stats();
  EXPECT_GT(stats.injected, 0u);
  EXPECT_EQ(stats.quarantined_prcs + stats.quarantined_cg, 4u + 2u);
  EXPECT_GT(counters.counter("fault.inject"), 0u);
  EXPECT_EQ(counters.counter("prc.quarantined"), 4u);
  EXPECT_EQ(counters.counter("cg.quarantined"), 2u);
}

// The injector only pays when enabled: a fault-free MRts run must be
// bit-identical with and without the (all-zero) fault config plumbing.
TEST_F(FaultSweepTest, ZeroRateMatchesFaultFreeMachineExactly) {
  MRts plain(app_->library, 2, 4);
  const Cycles base = run_application(plain, app_->trace).total_cycles;
  EXPECT_EQ(run_faulty(0.0, 123), base);
  EXPECT_EQ(plain.fault_model(), nullptr);
}

}  // namespace
}  // namespace mrts
