#pragma once
/// \file machine.h
/// Unified machine construction: one place that declares the simulated
/// topology (cores, PRCs, CG fabrics, interconnect, tenancy) and owns the
/// lifecycle of the objects realizing it — fabric, arbiter, RTS instances,
/// observability/fault attachment ordering. Before this existed every entry
/// point (mrts_cli verbs, the figure benches, ServeCore) hand-wired its own
/// FabricManager + FabricArbiter + MRts combination with its own attach
/// ordering; they now all declare a MachineConfig and ask the Machine for
/// runtime systems.
///
/// Bit-exactness contract: the Machine performs exactly the construction
/// sequence of the legacy call sites —
///   * kPrivate: each add_rts() is `MRts(lib, cg, prcs, config)`, a private
///     fabric per instance (the single-app benches and `mrts_cli run`);
///   * kShared: one machine-owned FabricManager, each add_rts() is
///     `MRts(lib, fabric, config)` (unmanaged sharing: run_multi_tenant
///     without an arbiter);
///   * kArbitrated: machine-owned FabricManager + FabricArbiter; tenants
///     register through the machine and each add_rts(tenant) is
///     `MRts(lib, arbiter.binding(tenant), config)` (run-multi, fig12,
///     ServeCore, the CMP layer).
/// attach_observability / attach_fault_model fan out over the owned
/// instances in creation order, which is precisely the order the migrated
/// call sites attached in (first attachment claims a shared fabric's event
/// stream — see MRts::attach_observability).

#include <memory>
#include <string>
#include <vector>

#include "arch/interconnect.h"
#include "rts/mrts.h"
#include "sim/arbiter.h"

namespace mrts {

/// How the machine's RTS instances relate to the reconfigurable fabric.
enum class Tenancy {
  kPrivate,     ///< every RTS owns a private fabric (single-app)
  kShared,      ///< one fabric, unmanaged free-for-all sharing
  kArbitrated,  ///< one fabric behind a FabricArbiter (multi-tenant / CMP)
};

struct MachineConfig {
  unsigned cores = 1;  ///< RISC cores (CMP scale-out; 1 = the paper machine)
  unsigned prcs = 4;
  unsigned cg_fabrics = 2;
  Tenancy tenancy = Tenancy::kPrivate;
  /// Core <-> fabric / intra-fabric timing topology. The default (all cores
  /// at hop distance 1) adds zero cycles over the legacy flat model.
  InterconnectParams interconnect;
  /// RTS configuration used by add_rts()/make_rts() overloads that do not
  /// pass their own.
  MRtsConfig rts;
};

/// Owns the machine topology and every machine-built RTS instance. Not
/// copyable; a sweep builds one Machine per point.
class Machine {
 public:
  /// \p lib must outlive the machine. Throws std::invalid_argument on a
  /// zero-core topology or invalid interconnect distances.
  Machine(const IseLibrary& lib, MachineConfig config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const { return config_; }
  const IseLibrary& library() const { return *lib_; }
  const Interconnect& interconnect() const { return interconnect_; }

  /// The shared fabric (kShared/kArbitrated only; throws std::logic_error
  /// for kPrivate machines, whose fabrics live inside their MRts instances).
  FabricManager& fabric();
  /// The arbiter (kArbitrated only; throws std::logic_error otherwise).
  FabricArbiter& arbiter();

  /// Registers a tenant on the arbitrated fabric (kArbitrated only; throws
  /// std::logic_error otherwise). Exactly FabricArbiter::register_tenant.
  FabricArbiter::Registration register_tenant(std::string name,
                                              TenantPolicy policy);

  /// Builds a machine-owned RTS instance wired according to the tenancy
  /// (see the file header for the exact constructions). The no-argument /
  /// tenant-only forms use config().rts. The tenant overloads require
  /// kArbitrated (std::logic_error otherwise) and throw
  /// std::invalid_argument for a non-admitted tenant (the admission
  /// bounce, unchanged from constructing MRts off a dead binding).
  RuntimeSystem& add_rts();
  RuntimeSystem& add_rts(const MRtsConfig& config);
  RuntimeSystem& add_rts(TenantId tenant);
  RuntimeSystem& add_rts(TenantId tenant, const MRtsConfig& config);

  /// Caller-owned variant for high-churn users (the serving layer builds and
  /// destroys one instance per job): same wiring as add_rts(tenant, config)
  /// but the machine keeps no reference. kArbitrated only.
  std::unique_ptr<MRts> make_rts(TenantId tenant, const MRtsConfig& config);

  std::size_t num_rts() const { return owned_.size(); }
  RuntimeSystem& rts(std::size_t i) { return *owned_[i]; }
  /// Concrete access for stats/tests (machine-built instances are MRts).
  MRts& mrts(std::size_t i) { return *owned_[i]; }

  /// Unified lifecycle: fans out over the owned instances in creation
  /// order. Call after all add_rts() calls, before running (the same
  /// construct -> attach -> run sequence every legacy call site used).
  void attach_observability(TraceRecorder* trace, CounterRegistry* counters);
  /// Returns true when any owned instance accepted the model.
  bool attach_fault_model(FaultModel* model);

 private:
  const IseLibrary* lib_;
  MachineConfig config_;
  Interconnect interconnect_;
  std::unique_ptr<FabricManager> fabric_;  ///< kShared/kArbitrated
  std::unique_ptr<FabricArbiter> arbiter_;  ///< kArbitrated
  std::vector<std::unique_ptr<MRts>> owned_;
};

}  // namespace mrts
