// Tests for the multi-tenant fabric arbitration engine (sim/arbiter.h) and
// the event-driven scheduler (sim/multi_app.h run_multi_tenant): tenant
// registration and admission control, hard partitions, the strict attach
// contracts of the unified RuntimeSystem lifecycle API, and the equality
// gate proving the arbitrated equal-weight configuration reproduces the
// unarbitrated run_multi_tenant free-for-all bit-exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "arch/fault_model.h"
#include "baselines/risc_only_rts.h"
#include "isa/ise_builder.h"
#include "rts/mrts.h"
#include "sim/app_simulator.h"
#include "sim/arbiter.h"
#include "sim/multi_app.h"
#include "util/counters.h"
#include "util/trace.h"
#include "workload/workload_gen.h"

namespace mrts {
namespace {

/// A combined library with one synthetic kernel per tenant plus one
/// application trace per tenant, all sharing one data-path table (the
/// shared-fabric requirement).
struct MultiTenantApp {
  IseLibrary library;
  std::vector<KernelId> kernels;
  std::vector<ApplicationTrace> traces;
};

MultiTenantApp make_apps(unsigned tenants, unsigned blocks) {
  MultiTenantApp app;
  for (unsigned i = 0; i < tenants; ++i) {
    const std::string name = std::string("T").append(std::to_string(i));
    IseBuildSpec spec;
    spec.kernel_name = name;
    spec.sw_latency = 700;
    spec.control_fraction = 0.4;
    spec.fg_data_path_names = {name + "_ctrl_fg", name + "_dp_fg"};
    spec.cg_data_path_names = {name + "_mac_cg"};
    spec.fg_control_dps = 1;
    spec.cg_data_dps = 1;
    app.kernels.push_back(build_kernel_ises(app.library, spec));
  }
  app.traces.resize(tenants);
  for (unsigned i = 0; i < tenants; ++i) {
    Rng rng(1000 + i);
    for (unsigned b = 0; b < blocks; ++b) {
      FunctionalBlockInstance inst = make_block_instance(
          FunctionalBlockId{0}, /*macroblocks=*/400,
          {{app.kernels[i], 8.0, 25, 0.1}}, /*entry_gap=*/200,
          /*tail_gap=*/200, rng);
      stamp_programmed_trigger(inst, app.library);
      app.traces[i].blocks.push_back(std::move(inst));
    }
  }
  return app;
}

TenantPolicy weighted(unsigned weight, unsigned priority = 0) {
  TenantPolicy p;
  p.share = TenantShare::kWeighted;
  p.weight = weight;
  p.priority = priority;
  return p;
}

TenantPolicy reserved(unsigned prcs, unsigned cg, unsigned priority = 0) {
  TenantPolicy p;
  p.share = TenantShare::kReserved;
  p.reserved_prcs = prcs;
  p.reserved_cg = cg;
  p.priority = priority;
  return p;
}

TenantPolicy best_effort() {
  TenantPolicy p;
  p.share = TenantShare::kBestEffort;
  return p;
}

TEST(Arbiter, RegistrationAndAccessors) {
  const MultiTenantApp app = make_apps(1, 1);
  FabricManager fabric(2, 4, &app.library.data_paths());
  FabricArbiter arbiter(fabric);
  EXPECT_EQ(arbiter.num_tenants(), 0u);
  EXPECT_FALSE(arbiter.known(kUnownedTenant));

  const auto w = arbiter.register_tenant("web", weighted(3));
  const auto r = arbiter.register_tenant("rt", reserved(2, 1));
  const auto b = arbiter.register_tenant("batch", best_effort());
  EXPECT_TRUE(w.admitted);
  EXPECT_TRUE(r.admitted);
  EXPECT_TRUE(b.admitted);
  EXPECT_EQ(arbiter.num_tenants(), 3u);
  EXPECT_EQ(arbiter.tenant_name(w.id), "web");
  EXPECT_EQ(arbiter.policy(w.id).weight, 3u);
  EXPECT_EQ(arbiter.policy(r.id).share, TenantShare::kReserved);

  // The reserved partition takes the lowest-index free containers.
  EXPECT_EQ(arbiter.partition(r.id, Grain::kFine),
            (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(arbiter.partition(r.id, Grain::kCoarse),
            (std::vector<unsigned>{0}));
  EXPECT_TRUE(arbiter.partition(w.id, Grain::kFine).empty());

  // Pool tenants may not place into the partition; the owner may.
  EXPECT_FALSE(arbiter.may_place(w.id, Grain::kFine, 0));
  EXPECT_TRUE(arbiter.may_place(r.id, Grain::kFine, 0));
  EXPECT_FALSE(arbiter.may_place(r.id, Grain::kFine, 2));
  EXPECT_TRUE(arbiter.may_place(w.id, Grain::kFine, 2));
  EXPECT_FALSE(arbiter.may_place(w.id, Grain::kCoarse, 0));
  EXPECT_TRUE(arbiter.may_place(w.id, Grain::kCoarse, 1));

  // Visible capacity: partition for reserved tenants, pool for the rest.
  EXPECT_EQ(arbiter.visible(r.id, Grain::kFine), 2u);
  EXPECT_EQ(arbiter.visible(r.id, Grain::kCoarse), 1u);
  EXPECT_EQ(arbiter.visible(w.id, Grain::kFine), 2u);
  EXPECT_EQ(arbiter.visible(w.id, Grain::kCoarse), 1u);

  // Bindings: valid for admitted tenants, null fabric for unknown ids.
  EXPECT_EQ(arbiter.binding(w.id).fabric, &fabric);
  EXPECT_EQ(arbiter.binding(TenantId{99}).fabric, nullptr);
  EXPECT_FALSE(arbiter.admitted(TenantId{99}));

  EXPECT_THROW(arbiter.register_tenant("zero", weighted(0)),
               std::invalid_argument);
  EXPECT_THROW(arbiter.policy(TenantId{99}), std::out_of_range);
}

TEST(Arbiter, OversizedReservationIsBouncedAndRolledBack) {
  const MultiTenantApp app = make_apps(1, 1);
  FabricManager fabric(1, 2, &app.library.data_paths());
  FabricArbiter arbiter(fabric);
  const auto reg = arbiter.register_tenant("huge", reserved(8, 0));
  EXPECT_FALSE(reg.admitted);
  EXPECT_FALSE(reg.reason.empty());
  EXPECT_FALSE(arbiter.admitted(reg.id));
  // The partial partition was rolled back: the pool is untouched.
  EXPECT_TRUE(arbiter.partition(reg.id, Grain::kFine).empty());
  EXPECT_EQ(arbiter.visible(kUnownedTenant, Grain::kFine), 2u);
  // A bounced tenant's binding has no fabric; constructing an MRts from it
  // throws — that is the admission bounce at the API level.
  EXPECT_EQ(arbiter.binding(reg.id).fabric, nullptr);
  EXPECT_THROW(MRts(app.library, arbiter.binding(reg.id)),
               std::invalid_argument);
}

TEST(Arbiter, FabricAttachContractsAreStrict) {
  const MultiTenantApp app = make_apps(1, 1);
  FabricManager fabric(1, 2, &app.library.data_paths());

  // Fault model: a different non-null model over an existing one throws;
  // re-attaching the same pointer is a no-op; null detaches.
  FaultModel fm1(FaultModelConfig::uniform(0.1, 1));
  FaultModel fm2(FaultModelConfig::uniform(0.1, 2));
  fabric.attach_fault_model(&fm1);
  EXPECT_THROW(fabric.attach_fault_model(&fm2), std::logic_error);
  EXPECT_NO_THROW(fabric.attach_fault_model(&fm1));
  fabric.attach_fault_model(nullptr);
  EXPECT_NO_THROW(fabric.attach_fault_model(&fm2));

  // Observability: same contract.
  TraceRecorder rec1, rec2;
  fabric.attach_observability(&rec1, nullptr);
  EXPECT_TRUE(fabric.observability_attached());
  EXPECT_THROW(fabric.attach_observability(&rec2, nullptr), std::logic_error);
  EXPECT_NO_THROW(fabric.attach_observability(&rec1, nullptr));
  fabric.attach_observability(nullptr, nullptr);
  EXPECT_FALSE(fabric.observability_attached());
  EXPECT_NO_THROW(fabric.attach_observability(&rec2, nullptr));

  // Arbitration: a second arbiter on the same fabric is rejected.
  FabricArbiter arbiter(fabric);
  EXPECT_THROW(FabricArbiter second(fabric), std::logic_error);
}

TEST(Arbiter, RuntimeSystemLifecycleIsUniform) {
  const MultiTenantApp app = make_apps(1, 2);
  MRts mrts(app.library, 1, 2);
  RiscOnlyRts risc(app.library);

  // Both systems are driven through the RuntimeSystem base interface.
  TraceRecorder recorder;
  CounterRegistry counters;
  RuntimeSystem& mrts_base = mrts;
  RuntimeSystem& risc_base = risc;
  mrts_base.attach_observability(&recorder, &counters);
  risc_base.attach_observability(&recorder, &counters);  // default no-op

  FaultModel fm1(FaultModelConfig::uniform(0.0, 1));
  FaultModel fm2(FaultModelConfig::uniform(0.0, 2));
  EXPECT_TRUE(mrts_base.attach_fault_model(&fm1));
  // Double-attaching a *different* model is rejected with a clear error
  // instead of silently winning (the old "last attachment wins").
  EXPECT_THROW(mrts_base.attach_fault_model(&fm2), std::logic_error);
  // Systems without fault support report false (default no-op).
  EXPECT_FALSE(risc_base.attach_fault_model(&fm1));
}

TEST(Arbiter, SharedFabricObserverFirstWins) {
  const MultiTenantApp app = make_apps(2, 1);
  FabricManager shared(1, 2, &app.library.data_paths());
  MRts rts1(app.library, shared);
  MRts rts2(app.library, shared);

  TraceRecorder rec1, rec2;
  CounterRegistry c1, c2;
  rts1.attach_observability(&rec1, &c1);  // claims the fabric stream
  EXPECT_TRUE(shared.observability_attached());
  // A later tenant attaches without error but observes only its own units.
  EXPECT_NO_THROW(rts2.attach_observability(&rec2, &c2));
  // Attaching a different recorder *directly* over the fabric's throws.
  EXPECT_THROW(shared.attach_observability(&rec2, &c2), std::logic_error);
  // The first observer releasing its claim frees the stream.
  rts1.attach_observability(nullptr, nullptr);
  EXPECT_FALSE(shared.observability_attached());
  EXPECT_NO_THROW(rts2.attach_observability(&rec2, &c2));
  EXPECT_TRUE(shared.observability_attached());
}

TEST(Arbiter, ReservedPartitionIsNeverTouchedByPoolTenants) {
  MultiTenantApp app = make_apps(2, 8);
  FabricManager fabric(2, 4, &app.library.data_paths());
  FabricArbiter arbiter(fabric);
  const auto rt = arbiter.register_tenant("rt", reserved(2, 1));
  const auto pool = arbiter.register_tenant("pool", weighted(1));
  ASSERT_TRUE(rt.admitted);
  ASSERT_TRUE(pool.admitted);

  MRts rts_rt(app.library, arbiter.binding(rt.id));
  MRts rts_pool(app.library, arbiter.binding(pool.id));
  std::vector<Task> tasks(2);
  tasks[0].name = "rt";
  tasks[0].rts = &rts_rt;
  tasks[0].trace = &app.traces[0];
  tasks[0].tenant = rt.id;
  tasks[1].name = "pool";
  tasks[1].rts = &rts_pool;
  tasks[1].trace = &app.traces[1];
  tasks[1].tenant = pool.id;
  const MultiTenantResult result = run_multi_tenant(tasks, &arbiter);
  ASSERT_EQ(result.tasks.size(), 2u);
  EXPECT_TRUE(result.tasks[0].admitted);
  EXPECT_TRUE(result.tasks[1].admitted);

  // The pool tenant never placed into (or evicted from) the partition.
  for (unsigned i : arbiter.partition(rt.id, Grain::kFine)) {
    EXPECT_NE(fabric.owner(Grain::kFine, i), pool.id) << "PRC " << i;
  }
  for (unsigned i : arbiter.partition(rt.id, Grain::kCoarse)) {
    EXPECT_NE(fabric.owner(Grain::kCoarse, i), pool.id) << "CG fabric " << i;
  }
  EXPECT_EQ(arbiter.stats(rt.id).evictions_suffered, 0u);
}

// The quota redirect: when the fabric's native victim is a live container
// of a foreign tenant within its entitlement, the placement moves onto a
// preferred victim (an over-quota or best-effort tenant's container) when
// one exists. On PRCs that is the coldest preferred PRC, on CG fabrics the
// first preferred fabric.
class QuotaRedirect : public ::testing::Test {
 protected:
  QuotaRedirect() {
    for (unsigned i = 0; i < 4; ++i) {
      DataPathDesc fg;
      fg.name = std::string("fg").append(std::to_string(i));
      fg.grain = Grain::kFine;
      fg_.push_back(table_.add(fg));
    }
    for (unsigned i = 0; i < 6; ++i) {
      DataPathDesc cg;
      cg.name = std::string("cg").append(std::to_string(i));
      cg.grain = Grain::kCoarse;
      cg_.push_back(table_.add(cg));
    }
  }

  /// `within` and `placer` are weighted tenants of equal weight, so neither
  /// is ever a preferred victim; `other` has the policy the test picks.
  struct Tenants {
    TenantId within = kUnownedTenant;
    TenantId other = kUnownedTenant;
    TenantId placer = kUnownedTenant;
  };

  static Tenants register_tenants(FabricArbiter& arbiter,
                                  TenantPolicy other) {
    Tenants t;
    t.within = arbiter.register_tenant("within", weighted(1)).id;
    t.other = arbiter.register_tenant("other", other).id;
    t.placer = arbiter.register_tenant("placer", weighted(1)).id;
    return t;
  }

  static void install_as(FabricManager& fabric, TenantId tenant,
                         std::vector<DataPathId> dps, Cycles now) {
    fabric.set_active_tenant(tenant);
    fabric.install({{IseId{0}, KernelId{0}, std::move(dps)}}, now);
  }

  /// Leaves PRC 0 = fg3 (other, hottest), PRC 1 = fg1 (within, coldest)
  /// and PRC 2 = fg2 (other), so the native victim of the next load is
  /// within's PRC 1 and the coldest of other's PRCs is PRC 2, not PRC 0.
  Cycles occupy_prcs(FabricManager& fabric, const Tenants& t) const {
    const Cycles c = table_[fg_[0]].reconfig_cycles();
    install_as(fabric, t.within, {fg_[0], fg_[1]}, 0);
    install_as(fabric, t.other, {fg_[2]}, 10 * c);
    install_as(fabric, t.other, {fg_[2], fg_[3]}, 20 * c);
    return 30 * c;
  }

  /// Leaves fabrics 0 and 1 owned by within and fabric 2 by other, so the
  /// native victim of the next load is within's fabric 0.
  void occupy_cg(FabricManager& fabric, const Tenants& t) const {
    install_as(fabric, t.other, {cg_[0], cg_[1], cg_[2]}, 0);
    install_as(fabric, t.within, {cg_[3], cg_[4]}, 1000);
  }

  static std::vector<TraceEvent> quota_hits(const TraceRecorder& trace) {
    std::vector<TraceEvent> hits;
    for (const TraceEvent& e : trace.events()) {
      if (e.kind == TraceEventKind::kTenantQuotaHit) hits.push_back(e);
    }
    return hits;
  }

  DataPathTable table_;
  std::vector<DataPathId> fg_;
  std::vector<DataPathId> cg_;
};

TEST_F(QuotaRedirect, PrcGoesToTheColdestPreferredPrc) {
  FabricManager fabric(0, 3, &table_);
  FabricArbiter arbiter(fabric);
  TraceRecorder trace;
  CounterRegistry counters;
  fabric.attach_observability(&trace, &counters);
  const Tenants t = register_tenants(arbiter, best_effort());
  const Cycles now = occupy_prcs(fabric, t);
  ASSERT_EQ(fabric.owner(Grain::kFine, 1), t.within);
  ASSERT_TRUE(quota_hits(trace).empty());

  install_as(fabric, t.placer, {fg_[0]}, now);
  EXPECT_EQ(fabric.fg_fabric().prc(2).occupant, fg_[0]);
  EXPECT_EQ(fabric.owner(Grain::kFine, 2), t.placer);
  EXPECT_EQ(fabric.fg_fabric().prc(1).occupant, fg_[1]);  // within kept it
  EXPECT_EQ(fabric.fg_fabric().prc(0).occupant, fg_[3]);
  const std::vector<TraceEvent> hits = quota_hits(trace);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].track, kTrackFgBase + 2);
  EXPECT_EQ(hits[0].at, now);
  EXPECT_EQ(hits[0].arg0, t.other);
  EXPECT_EQ(hits[0].arg1, static_cast<std::uint32_t>(Grain::kFine));
  EXPECT_EQ(hits[0].v0, static_cast<double>(t.placer));
  EXPECT_EQ(counters.counter("tenant.quota_hit"), 1u);
  EXPECT_EQ(arbiter.stats(t.other).quota_redirects, 1u);
  EXPECT_EQ(arbiter.stats(t.within).quota_redirects, 0u);
  EXPECT_EQ(arbiter.stats(t.within).evictions_suffered, 1u);  // occupy_prcs
}

TEST_F(QuotaRedirect, CgGoesToTheFirstPreferredFabric) {
  FabricManager fabric(3, 0, &table_);
  FabricArbiter arbiter(fabric);
  TraceRecorder trace;
  CounterRegistry counters;
  fabric.attach_observability(&trace, &counters);
  const Tenants t = register_tenants(arbiter, best_effort());
  occupy_cg(fabric, t);
  ASSERT_EQ(fabric.owner(Grain::kCoarse, 0), t.within);
  ASSERT_EQ(fabric.owner(Grain::kCoarse, 1), t.within);
  ASSERT_EQ(fabric.owner(Grain::kCoarse, 2), t.other);
  ASSERT_TRUE(quota_hits(trace).empty());

  install_as(fabric, t.placer, {cg_[5]}, 2000);
  EXPECT_TRUE(fabric.cg_fabric(2).slot_of(cg_[5]).has_value());
  EXPECT_FALSE(fabric.cg_fabric(0).slot_of(cg_[5]).has_value());
  EXPECT_EQ(fabric.owner(Grain::kCoarse, 2), t.placer);
  EXPECT_EQ(fabric.owner(Grain::kCoarse, 0), t.within);
  const std::vector<TraceEvent> hits = quota_hits(trace);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].track, kTrackCgBase + 2);
  EXPECT_EQ(hits[0].at, 2000u);
  EXPECT_EQ(hits[0].arg0, t.other);
  EXPECT_EQ(hits[0].arg1, static_cast<std::uint32_t>(Grain::kCoarse));
  EXPECT_EQ(hits[0].v0, static_cast<double>(t.placer));
  EXPECT_EQ(counters.counter("tenant.quota_hit"), 1u);
  EXPECT_EQ(arbiter.stats(t.other).quota_redirects, 1u);
  EXPECT_EQ(arbiter.stats(t.within).quota_redirects, 0u);
}

TEST_F(QuotaRedirect, NoPreferredContainerKeepsTheNativeVictim) {
  // Every tenant weighted with one weight: nobody is a preferred victim.
  FabricManager fabric(3, 3, &table_);
  FabricArbiter arbiter(fabric);
  TraceRecorder trace;
  CounterRegistry counters;
  fabric.attach_observability(&trace, &counters);
  const Tenants t = register_tenants(arbiter, weighted(1));
  const Cycles now = occupy_prcs(fabric, t);
  occupy_cg(fabric, t);

  install_as(fabric, t.placer, {fg_[0], cg_[5]}, now);
  EXPECT_EQ(fabric.fg_fabric().prc(1).occupant, fg_[0]);
  EXPECT_EQ(fabric.owner(Grain::kFine, 1), t.placer);
  EXPECT_TRUE(fabric.cg_fabric(0).slot_of(cg_[5]).has_value());
  EXPECT_EQ(fabric.owner(Grain::kCoarse, 0), t.placer);
  EXPECT_EQ(fabric.owner(Grain::kCoarse, 2), t.other);
  EXPECT_TRUE(quota_hits(trace).empty());
  EXPECT_EQ(counters.counter("tenant.quota_hit"), 0u);
  for (TenantId id : {t.within, t.other, t.placer}) {
    EXPECT_EQ(arbiter.stats(id).quota_redirects, 0u);
  }
}

TEST(Arbiter, TenantEvictionsAreAttributedAndCounted) {
  // Three tenants with distinct kernels fight over a 1 PRC + 1 CG machine:
  // every installation destroys foreign state, and the fabric counters must
  // agree with the arbiter's per-tenant attribution.
  MultiTenantApp app = make_apps(3, 4);
  FabricManager fabric(1, 1, &app.library.data_paths());
  FabricArbiter arbiter(fabric);
  std::vector<FabricArbiter::Registration> regs;
  std::vector<std::unique_ptr<MRts>> systems;
  std::vector<Task> tasks(3);
  for (unsigned i = 0; i < 3; ++i) {
    regs.push_back(
        arbiter.register_tenant("T" + std::to_string(i), weighted(1 + i)));
    systems.push_back(
        std::make_unique<MRts>(app.library, arbiter.binding(regs[i].id)));
    tasks[i].name = "T" + std::to_string(i);
    tasks[i].rts = systems[i].get();
    tasks[i].trace = &app.traces[i];
    tasks[i].tenant = regs[i].id;
  }
  CounterRegistry counters;
  systems[0]->attach_observability(nullptr, &counters);  // claims the fabric
  const MultiTenantResult result = run_multi_tenant(tasks, &arbiter);
  EXPECT_GT(result.total_cycles, 0u);

  std::uint64_t caused = 0;
  std::uint64_t suffered = 0;
  for (const auto& reg : regs) {
    caused += arbiter.stats(reg.id).evictions_caused;
    suffered += arbiter.stats(reg.id).evictions_suffered;
  }
  EXPECT_GT(caused, 0u);
  EXPECT_EQ(caused, suffered);
  EXPECT_EQ(counters.counter("tenant.eviction"), caused);
}

TEST(Arbiter, AdmissionRevokedByQuarantinedCapacity) {
  MultiTenantApp app = make_apps(1, 4);
  FabricManager fabric(1, 2, &app.library.data_paths());
  FabricArbiter arbiter(fabric);
  const auto rt = arbiter.register_tenant("rt", reserved(2, 0));
  ASSERT_TRUE(rt.admitted);

  // Rate-1.0 injector: every FG load fails its CRC and every detection is
  // permanent, so the tenant's own loads quarantine its partition.
  MRts rts(app.library, arbiter.binding(rt.id));
  FaultModel model(FaultModelConfig::uniform(1.0, 7));
  RuntimeSystem& base = rts;
  ASSERT_TRUE(base.attach_fault_model(&model));
  run_application(rts, app.traces[0]);
  ASSERT_GT(model.stats().quarantined_prcs, 0u);

  // Live re-validation: the reservation no longer fits the usable capacity.
  EXPECT_FALSE(arbiter.admitted(rt.id));
  EXPECT_FALSE(arbiter.admission_reason(rt.id).empty());
  EXPECT_EQ(arbiter.binding(rt.id).fabric, nullptr);

  // run_multi_tenant bounces the task up front: zero blocks, reason carried.
  std::vector<Task> tasks(1);
  tasks[0].name = "rt";
  tasks[0].rts = &rts;
  tasks[0].trace = &app.traces[0];
  tasks[0].tenant = rt.id;
  const MultiTenantResult result = run_multi_tenant(tasks, &arbiter);
  ASSERT_EQ(result.tasks.size(), 1u);
  EXPECT_FALSE(result.tasks[0].admitted);
  EXPECT_FALSE(result.tasks[0].admission_reason.empty());
  EXPECT_TRUE(result.tasks[0].run.block_cycles.empty());
  EXPECT_EQ(result.total_cycles, 0u);
}

TEST(Arbiter, EqualWeightsNoReservationsReproduceTimeSlicedBitExactly) {
  // The equality gate: the arbitrated fabric with all-equal weights and no
  // reservations must reproduce the legacy unmanaged free-for-all
  // bit-exactly (same interleaving, same evictions, same cycle counts).
  MultiTenantApp app = make_apps(2, 6);

  FabricManager legacy_fabric(1, 2, &app.library.data_paths());
  MRts legacy_a(app.library, legacy_fabric);
  MRts legacy_b(app.library, legacy_fabric);
  const MultiTenantResult legacy = run_multi_tenant(
      {{"A", &legacy_a, &app.traces[0]}, {"B", &legacy_b, &app.traces[1]}});

  MultiTenantApp app2 = make_apps(2, 6);
  FabricManager arbitrated_fabric(1, 2, &app2.library.data_paths());
  FabricArbiter arbiter(arbitrated_fabric);
  const auto ta = arbiter.register_tenant("A", weighted(1));
  const auto tb = arbiter.register_tenant("B", weighted(1));
  MRts arb_a(app2.library, arbiter.binding(ta.id));
  MRts arb_b(app2.library, arbiter.binding(tb.id));
  std::vector<Task> tasks(2);
  tasks[0].name = "A";
  tasks[0].rts = &arb_a;
  tasks[0].trace = &app2.traces[0];
  tasks[0].tenant = ta.id;
  tasks[1].name = "B";
  tasks[1].rts = &arb_b;
  tasks[1].trace = &app2.traces[1];
  tasks[1].tenant = tb.id;
  const MultiTenantResult arbitrated = run_multi_tenant(tasks, &arbiter);

  EXPECT_EQ(arbitrated.total_cycles, legacy.total_cycles);
  ASSERT_EQ(arbitrated.tasks.size(), legacy.tasks.size());
  for (std::size_t i = 0; i < legacy.tasks.size(); ++i) {
    EXPECT_EQ(arbitrated.tasks[i].run.active_cycles,
              legacy.tasks[i].run.active_cycles);
    EXPECT_EQ(arbitrated.tasks[i].run.finished_at,
              legacy.tasks[i].run.finished_at);
    EXPECT_EQ(arbitrated.tasks[i].run.block_cycles,
              legacy.tasks[i].run.block_cycles);
    EXPECT_EQ(arbitrated.tasks[i].run.impl_executions,
              legacy.tasks[i].run.impl_executions);
  }
}

TEST(MultiTenantScheduler, PriorityOrdersReleasedTasks) {
  MultiTenantApp app = make_apps(2, 3);
  RiscOnlyRts rts_lo(app.library);
  RiscOnlyRts rts_hi(app.library);
  std::vector<Task> tasks(2);
  tasks[0].name = "lo";
  tasks[0].rts = &rts_lo;
  tasks[0].trace = &app.traces[0];
  tasks[0].priority = 0;
  tasks[1].name = "hi";
  tasks[1].rts = &rts_hi;
  tasks[1].trace = &app.traces[1];
  tasks[1].priority = 5;
  const MultiTenantResult r = run_multi_tenant(tasks);
  // The high-priority task runs all its blocks before "lo" gets the core.
  EXPECT_EQ(r.tasks[1].run.finished_at, r.tasks[1].run.active_cycles);
  EXPECT_EQ(r.tasks[0].run.finished_at, r.total_cycles);
  EXPECT_GT(r.tasks[0].run.finished_at, r.tasks[1].run.finished_at);
}

TEST(MultiTenantScheduler, DeadlinesAreReportedNotEnforced) {
  MultiTenantApp app = make_apps(2, 2);
  RiscOnlyRts rts_a(app.library);
  RiscOnlyRts rts_b(app.library);
  std::vector<Task> tasks(2);
  tasks[0].name = "tight";
  tasks[0].rts = &rts_a;
  tasks[0].trace = &app.traces[0];
  tasks[0].deadline = 1;  // unmeetable
  tasks[1].name = "loose";
  tasks[1].rts = &rts_b;
  tasks[1].trace = &app.traces[1];
  tasks[1].deadline = ~Cycles{0};
  const MultiTenantResult r = run_multi_tenant(tasks);
  EXPECT_FALSE(r.tasks[0].deadline_met);
  EXPECT_TRUE(r.tasks[1].deadline_met);
  // Both still ran to completion (deadlines are a report, not a kill).
  EXPECT_EQ(r.tasks[0].run.block_cycles.size(), 2u);
  EXPECT_EQ(r.tasks[1].run.block_cycles.size(), 2u);
  // Among equal priorities, the earlier deadline runs first.
  EXPECT_LT(r.tasks[0].run.finished_at, r.tasks[1].run.finished_at);
}

TEST(MultiTenantScheduler, ReleaseGapsIdleTheCore) {
  MultiTenantApp app = make_apps(1, 2);
  RiscOnlyRts rts(app.library);
  std::vector<Task> tasks(1);
  tasks[0].name = "late";
  tasks[0].rts = &rts;
  tasks[0].trace = &app.traces[0];
  tasks[0].release = 50000;
  const MultiTenantResult r = run_multi_tenant(tasks);
  // The clock jumps to the release, then the task runs back-to-back.
  EXPECT_EQ(r.tasks[0].run.finished_at,
            50000 + r.tasks[0].run.active_cycles);
  EXPECT_EQ(r.total_cycles, r.tasks[0].run.finished_at);
}

TEST(MultiTenantScheduler, TenantIdsRequireAnArbiter) {
  MultiTenantApp app = make_apps(1, 1);
  RiscOnlyRts rts(app.library);
  std::vector<Task> tasks(1);
  tasks[0].name = "t";
  tasks[0].rts = &rts;
  tasks[0].trace = &app.traces[0];
  tasks[0].tenant = TenantId{1};
  EXPECT_THROW(run_multi_tenant(tasks), std::invalid_argument);

  FabricManager fabric(1, 1, &app.library.data_paths());
  FabricArbiter arbiter(fabric);  // knows no tenant id 1
  EXPECT_THROW(run_multi_tenant(tasks, &arbiter), std::invalid_argument);
}

TEST(MultiTenantScheduler, JainFairnessIndex) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({3.0, 3.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 0.0}), 0.5);
  EXPECT_NEAR(jain_fairness_index({4.0, 1.0, 1.0}), 0.667, 1e-3);
  // Edge cases pinned by definition, not accident: a single tenant is
  // perfectly fair whatever its throughput (x^2 / (1 * x^2) = 1), including
  // a completely starved one, and the all-zero guard means the index is
  // never NaN — bench_multi_tenant / `run-multi` print it straight into
  // CSV/stdout.
  EXPECT_DOUBLE_EQ(jain_fairness_index({42.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0.0}), 1.0);
  EXPECT_FALSE(std::isnan(jain_fairness_index({0.0, 0.0, 0.0})));
  EXPECT_FALSE(std::isnan(jain_fairness_index({})));
}

/// One full multi-tenant scenario, with its own flight recorder and counter
/// registry attached.
struct DeterminismProbe {
  Cycles total_cycles = 0;
  std::vector<Cycles> finished_at;
  std::size_t trace_events = 0;
  std::uint64_t tenant_evictions = 0;

  bool operator==(const DeterminismProbe& o) const {
    return total_cycles == o.total_cycles && finished_at == o.finished_at &&
           trace_events == o.trace_events &&
           tenant_evictions == o.tenant_evictions;
  }
};

DeterminismProbe run_scenario(unsigned tenants) {
  MultiTenantApp app = make_apps(tenants, 4);
  FabricManager fabric(1, 2, &app.library.data_paths());
  FabricArbiter arbiter(fabric);
  TraceRecorder recorder;
  CounterRegistry counters;
  std::vector<FabricArbiter::Registration> regs;
  std::vector<std::unique_ptr<MRts>> systems;
  std::vector<Task> tasks(tenants);
  for (unsigned i = 0; i < tenants; ++i) {
    regs.push_back(
        arbiter.register_tenant(std::string("T").append(std::to_string(i)),
                                weighted(1 + i)));
    systems.push_back(
        std::make_unique<MRts>(app.library, arbiter.binding(regs[i].id)));
    systems[i]->attach_observability(&recorder, &counters);
    tasks[i].name = std::string("T").append(std::to_string(i));
    tasks[i].rts = systems[i].get();
    tasks[i].trace = &app.traces[i];
    tasks[i].tenant = regs[i].id;
    tasks[i].recorder = &recorder;
  }
  const MultiTenantResult result = run_multi_tenant(tasks, &arbiter);
  DeterminismProbe probe;
  probe.total_cycles = result.total_cycles;
  for (const auto& tr : result.tasks) {
    probe.finished_at.push_back(tr.run.finished_at);
  }
  probe.trace_events = recorder.size();
  probe.tenant_evictions = counters.counter("tenant.eviction");
  return probe;
}

// A second pass in the same process starts each scenario after a larger
// one has run, so state a run leaves behind (the simulator's static
// scratch) must not change the next run's outcome.
TEST(MultiTenantScheduler, DeterministicAcrossRuns) {
  const std::vector<unsigned> scenarios = {2, 3, 4, 6};
  std::vector<DeterminismProbe> first;
  for (const unsigned tenants : scenarios) {
    first.push_back(run_scenario(tenants));
  }
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_TRUE(run_scenario(scenarios[i]) == first[i])
        << "scenario " << scenarios[i] << " diverged on the second run";
  }
}

}  // namespace
}  // namespace mrts
