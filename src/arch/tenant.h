#pragma once
/// \file tenant.h
/// Multi-tenant arbitration contract of the reconfigurable fabric.
///
/// The paper's Section 1 scenario — "available fabric shared among various
/// tasks" — needs more than a shared FabricManager: a production runtime
/// arbitrates *who* may place data paths *where*. This header defines the
/// architecture-level half of that contract: tenant identities, share
/// policies, and the FabricArbitration hook the FabricManager consults at
/// every placement/eviction decision. The policy engine implementing the
/// hook (FabricArbiter) lives a layer up in sim/arbiter.h — arch code never
/// depends on sim code.
///
/// Scope of arbitration: *placement* (install/prefetch/monoCG loads and the
/// evictions they cause) is arbitrated; execution-time reads of already
/// configured data paths and CG context activation are not — configured
/// silicon is shareable, destroying another tenant's configuration is not.

#include <cstdint>

#include "util/types.h"

namespace mrts {

/// Identity of one fabric tenant. 0 (kUnownedTenant) means "nobody": the
/// single-app default, and the owner of every empty container.
using TenantId = std::uint32_t;
inline constexpr TenantId kUnownedTenant = 0;

/// How a tenant shares the fabric.
enum class TenantShare : std::uint8_t {
  /// Hard partition: the tenant is confined to its reserved containers and
  /// no other tenant may ever place into (or evict from) them.
  kReserved = 0,
  /// Soft quota proportional to weight. When weights differ, eviction
  /// prefers over-quota tenants' coldest data paths; with all-equal weights
  /// the fabric's native victim policy applies unchanged (the legacy
  /// free-for-all is the degenerate case of the arbitrated system).
  kWeighted,
  /// No entitlement: uses whatever is idle, evicted first.
  kBestEffort,
};

inline const char* to_string(TenantShare share) {
  switch (share) {
    case TenantShare::kReserved: return "reserved";
    case TenantShare::kWeighted: return "weighted";
    case TenantShare::kBestEffort: return "best-effort";
  }
  return "?";
}

/// Registration-time policy of one tenant.
struct TenantPolicy {
  TenantShare share = TenantShare::kWeighted;
  /// Soft-quota weight (kWeighted only, >= 1).
  unsigned weight = 1;
  /// Hard partition size (kReserved only).
  unsigned reserved_prcs = 0;
  unsigned reserved_cg = 0;
  /// Scheduling priority for run_multi_tenant (higher runs first).
  unsigned priority = 0;
};

/// Arbitration hook the FabricManager consults while placing data paths.
/// All queries are const and re-entrant: the implementation may read back
/// const state of the fabric that is calling it.
class FabricArbitration {
 public:
  virtual ~FabricArbitration() = default;

  /// May \p tenant place a data path into container \p index of \p grain?
  /// (Pool containers: yes for pool tenants; partition containers: owner
  /// only.)
  virtual bool may_place(TenantId tenant, Grain grain,
                         unsigned index) const = 0;

  /// Should an eviction on behalf of \p tenant prefer victims owned by
  /// \p owner (an over-quota or best-effort tenant)? Never called for empty
  /// containers, \p owner == kUnownedTenant, or \p owner == \p tenant.
  virtual bool prefer_evict(TenantId tenant, TenantId owner,
                            Grain grain) const = 0;

  /// Capacity of \p grain (post-quarantine) that \p tenant's selector may
  /// plan with.
  virtual unsigned visible(TenantId tenant, Grain grain) const = 0;

  /// Stats feedback from the fabric (the fabric also emits the
  /// tenant.eviction / tenant.quota_hit trace events and counters itself).
  virtual void note_eviction(TenantId tenant, TenantId owner, Grain grain,
                             Cycles at) = 0;
  virtual void note_quota_redirect(TenantId tenant, TenantId owner,
                                   Grain grain, Cycles at) = 0;
  virtual void note_quarantine(TenantId owner, Grain grain, Cycles at) = 0;
};

class FabricManager;

/// Binding of one run-time-system instance to a tenant slot of a shared
/// fabric — the explicit replacement for the old "pass a bare FabricManager&
/// and hope" shared-fabric construction. Obtained from
/// FabricArbiter::binding() after registering the tenant.
struct TenantBinding {
  FabricManager* fabric = nullptr;
  TenantId tenant = kUnownedTenant;
};

}  // namespace mrts
