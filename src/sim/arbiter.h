#pragma once
/// \file arbiter.h
/// FabricArbiter: the policy engine behind the FabricArbitration hook
/// (arch/tenant.h). It turns a shared FabricManager into a multi-tenant
/// service: tasks register tenants with a share policy — *reserved* (hard
/// partition), *weighted* (soft quota with owner-aware eviction) or
/// *best-effort* — and the fabric consults the arbiter at every placement:
///
///  * accessibility: reserved tenants are confined to their partition and
///    nobody else may place into (or evict from) it; pool tenants share the
///    unpartitioned containers;
///  * eviction preference: when weights differ, evictions redirect onto
///    over-quota tenants' coldest containers; best-effort tenants are
///    preferred victims for entitled tenants. With all-equal weights and no
///    reservations the arbiter reports no preference at all, so the fabric's
///    native policy applies and the unarbitrated `run_multi_tenant`
///    free-for-all is reproduced bit-exactly (the equality gate in
///    tests/test_arbiter.cpp);
///  * admission control: a reserved tenant whose partition no longer fits
///    the usable (post-quarantine) capacity is bounced — admitted() is
///    re-validated live, so quarantines after registration revoke admission.
///
/// The arbiter attaches itself to the fabric on construction and detaches
/// in its destructor.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/fabric_manager.h"
#include "arch/tenant.h"
#include "util/types.h"

namespace mrts {

/// Per-tenant arbitration statistics (all cumulative since registration).
struct TenantStats {
  std::uint64_t evictions_caused = 0;    ///< foreign data paths it destroyed
  std::uint64_t evictions_suffered = 0;  ///< its data paths destroyed by others
  std::uint64_t quota_redirects = 0;     ///< evictions redirected onto it
  std::uint64_t quarantines_suffered = 0;  ///< its containers lost to faults
};

class FabricArbiter final : public FabricArbitration {
 public:
  /// Attaches itself as \p fabric's arbitration hook. Throws
  /// std::logic_error when the fabric already has a different hook.
  /// \p fabric must outlive this object.
  explicit FabricArbiter(FabricManager& fabric);
  ~FabricArbiter() override;

  FabricArbiter(const FabricArbiter&) = delete;
  FabricArbiter& operator=(const FabricArbiter&) = delete;

  struct Registration {
    TenantId id = kUnownedTenant;
    bool admitted = false;
    std::string reason;  ///< why admission failed (empty when admitted)
  };

  /// Registers a tenant. Reserved tenants get their partition assigned from
  /// the lowest-index unpartitioned, non-quarantined containers; when the
  /// usable capacity cannot fit the reservation the tenant is registered
  /// but not admitted (Registration::reason says why). Throws
  /// std::invalid_argument on a zero weight for a weighted tenant.
  Registration register_tenant(std::string name, TenantPolicy policy);

  /// Binding for MRts's tenant-bound constructor. The fabric pointer is
  /// null when \p id is unknown or the tenant is not (or no longer)
  /// admitted — constructing an MRts from it then throws, which is the
  /// admission bounce.
  TenantBinding binding(TenantId id) const;

  /// Retires a tenant slot once its job is done (the serving layer calls
  /// this after every completed/cancelled job so a resident arbiter survives
  /// unbounded tenant churn). A reserved tenant's partition containers
  /// return to the shared pool, the tenant stops counting toward the
  /// weighted-quota arithmetic, and admitted(id) becomes false; the id is
  /// never reused. Data paths the tenant still owns on the fabric stay
  /// installed — a released owner is treated like a best-effort tenant by
  /// prefer_evict, so leftovers are reclaimed first. Unknown or already
  /// released ids are ignored (idempotent).
  void release_tenant(TenantId id);

  /// True when release_tenant(id) was called for a known tenant.
  bool released(TenantId id) const;

  /// Live admission status: registration succeeded *and* a reserved
  /// tenant's partition still fits the usable post-quarantine capacity.
  bool admitted(TenantId id) const;
  /// Human-readable reason for !admitted(id) ("" when admitted).
  std::string admission_reason(TenantId id) const;

  bool known(TenantId id) const { return index_of(id) < tenants_.size(); }
  std::size_t num_tenants() const { return tenants_.size(); }
  const std::string& tenant_name(TenantId id) const;
  const TenantPolicy& policy(TenantId id) const;
  const TenantStats& stats(TenantId id) const;

  /// Partition containers of \p grain assigned to a reserved tenant
  /// (ascending; empty for pool tenants).
  std::vector<unsigned> partition(TenantId id, Grain grain) const;

  const FabricManager& fabric() const { return *fabric_; }

  // --- FabricArbitration (called back by the FabricManager) ---------------
  bool may_place(TenantId tenant, Grain grain, unsigned index) const override;
  bool prefer_evict(TenantId tenant, TenantId owner,
                    Grain grain) const override;
  unsigned visible(TenantId tenant, Grain grain) const override;
  void note_eviction(TenantId tenant, TenantId owner, Grain grain,
                     Cycles at) override;
  void note_quota_redirect(TenantId tenant, TenantId owner, Grain grain,
                           Cycles at) override;
  void note_quarantine(TenantId owner, Grain grain, Cycles at) override;

 private:
  struct Tenant {
    std::string name;
    TenantPolicy policy;
    bool registered_ok = true;  ///< registration-time admission
    bool released_slot = false;  ///< retired via release_tenant()
    std::string reject_reason;
    TenantStats stats;
  };

  /// Tenant ids are 1-based (0 = kUnownedTenant); returns tenants_.size()
  /// for unknown ids.
  std::size_t index_of(TenantId id) const {
    return id == kUnownedTenant ? tenants_.size()
                                : static_cast<std::size_t>(id) - 1;
  }
  const Tenant* find(TenantId id) const {
    const std::size_t i = index_of(id);
    return i < tenants_.size() ? &tenants_[i] : nullptr;
  }
  Tenant* find(TenantId id) {
    const std::size_t i = index_of(id);
    return i < tenants_.size() ? &tenants_[i] : nullptr;
  }

  std::vector<TenantId>& partition_of(Grain grain) {
    return partition_[static_cast<unsigned>(grain)];
  }
  const std::vector<TenantId>& partition_of(Grain grain) const {
    return partition_[static_cast<unsigned>(grain)];
  }
  /// Non-quarantined containers of \p grain whose partition owner is
  /// \p holder (kUnownedTenant: the shared pool).
  unsigned usable_partition(Grain grain, TenantId holder) const;
  /// Returns \p id's partition containers to the shared pool.
  void drop_partition(TenantId id);
  /// Sum of weights over all weighted tenants.
  std::uint64_t total_weight() const;
  /// Is \p owner (a weighted tenant) holding more than its soft quota?
  bool over_quota(const Tenant& owner, TenantId owner_id, Grain grain) const;

  FabricManager* fabric_;
  std::vector<Tenant> tenants_;
  /// Partition owner per container, indexed by Grain (kUnownedTenant =
  /// pool).
  std::array<std::vector<TenantId>, 2> partition_;
  /// All live weighted tenants share one weight: quota preference is off and
  /// the fabric's native eviction order applies (the legacy degenerate
  /// case). Maintained incrementally (weight -> live tenant count) so a
  /// resident server's unbounded register/release churn stays O(log n) per
  /// tenant instead of O(tenants) rescans.
  bool equal_weights_ = true;
  std::map<unsigned, std::size_t> live_weight_counts_;
  std::uint64_t total_weight_ = 0;
};

/// Jain's fairness index of \p xs: (Σx)² / (n·Σx²) in [1/n, 1]; 1.0 for an
/// empty or all-zero vector.
double jain_fairness_index(const std::vector<double>& xs);

}  // namespace mrts
