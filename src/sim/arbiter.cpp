#include "sim/arbiter.h"

#include <stdexcept>

namespace mrts {

namespace {

/// Containers of \p grain a reserved tenant asks for.
unsigned reservation(const TenantPolicy& policy, Grain grain) {
  return grain == Grain::kFine ? policy.reserved_prcs : policy.reserved_cg;
}

}  // namespace

FabricArbiter::FabricArbiter(FabricManager& fabric)
    : fabric_(&fabric),
      partition_{std::vector<TenantId>(fabric.num_cg_fabrics(), kUnownedTenant),
                 std::vector<TenantId>(fabric.num_prcs(), kUnownedTenant)} {
  fabric_->attach_arbitration(this);
}

FabricArbiter::~FabricArbiter() { fabric_->attach_arbitration(nullptr); }

FabricArbiter::Registration FabricArbiter::register_tenant(
    std::string name, TenantPolicy policy) {
  if (policy.share == TenantShare::kWeighted && policy.weight == 0) {
    throw std::invalid_argument(
        "FabricArbiter::register_tenant: weighted tenant needs weight >= 1");
  }
  tenants_.push_back(Tenant{std::move(name), policy, true, false, "", {}});
  const TenantId id = static_cast<TenantId>(tenants_.size());
  Tenant& tenant = tenants_.back();

  if (policy.share == TenantShare::kReserved) {
    // Assign the partition from the lowest-index unpartitioned usable
    // containers; on failure roll the partial assignment back and register
    // the tenant as not admitted.
    bool fits = true;
    for (Grain grain : kGrains) {
      std::vector<TenantId>& partition = partition_of(grain);
      const unsigned wanted = reservation(policy, grain);
      unsigned taken = 0;
      for (unsigned i = 0; i < partition.size() && taken < wanted; ++i) {
        if (partition[i] == kUnownedTenant &&
            !fabric_->quarantined(grain, i)) {
          partition[i] = id;
          ++taken;
        }
      }
      fits = fits && taken == wanted;
    }
    if (!fits) {
      drop_partition(id);
      tenant.registered_ok = false;
      tenant.reject_reason =
          "reservation exceeds usable capacity (" +
          std::to_string(policy.reserved_prcs) + " PRCs, " +
          std::to_string(policy.reserved_cg) + " CG fabrics requested)";
    }
  }

  if (policy.share == TenantShare::kWeighted) {
    ++live_weight_counts_[policy.weight];
    total_weight_ += policy.weight;
    equal_weights_ = live_weight_counts_.size() <= 1;
  }

  Registration reg;
  reg.id = id;
  reg.admitted = tenant.registered_ok;
  reg.reason = tenant.reject_reason;
  return reg;
}

void FabricArbiter::release_tenant(TenantId id) {
  Tenant* t = find(id);
  if (t == nullptr || t->released_slot) return;
  t->released_slot = true;
  // Reserved partitions return to the shared pool; any data paths the tenant
  // still has installed there become pool-reclaimable immediately.
  if (t->policy.share == TenantShare::kReserved) drop_partition(id);
  if (t->policy.share == TenantShare::kWeighted) {
    const auto it = live_weight_counts_.find(t->policy.weight);
    if (it != live_weight_counts_.end() && --it->second == 0) {
      live_weight_counts_.erase(it);
    }
    total_weight_ -= t->policy.weight;
    equal_weights_ = live_weight_counts_.size() <= 1;
  }
}

void FabricArbiter::drop_partition(TenantId id) {
  for (auto& partition : partition_) {
    for (TenantId& owner : partition) {
      if (owner == id) owner = kUnownedTenant;
    }
  }
}

bool FabricArbiter::released(TenantId id) const {
  const Tenant* t = find(id);
  return t != nullptr && t->released_slot;
}

TenantBinding FabricArbiter::binding(TenantId id) const {
  if (!admitted(id)) return TenantBinding{};
  return TenantBinding{fabric_, id};
}

bool FabricArbiter::admitted(TenantId id) const {
  const Tenant* t = find(id);
  if (t == nullptr || !t->registered_ok || t->released_slot) return false;
  if (t->policy.share != TenantShare::kReserved) return true;
  // Quarantines after registration shrink the partition; the reservation
  // must still fit the usable capacity.
  for (Grain grain : kGrains) {
    if (usable_partition(grain, id) < reservation(t->policy, grain)) {
      return false;
    }
  }
  return true;
}

std::string FabricArbiter::admission_reason(TenantId id) const {
  const Tenant* t = find(id);
  if (t == nullptr) return "unknown tenant";
  if (t->released_slot) return "tenant slot released";
  if (!t->registered_ok) return t->reject_reason;
  if (!admitted(id)) {
    return "quarantined capacity no longer fits the reservation";
  }
  return "";
}

const std::string& FabricArbiter::tenant_name(TenantId id) const {
  const Tenant* t = find(id);
  if (t == nullptr) {
    throw std::out_of_range("FabricArbiter::tenant_name: unknown tenant");
  }
  return t->name;
}

const TenantPolicy& FabricArbiter::policy(TenantId id) const {
  const Tenant* t = find(id);
  if (t == nullptr) {
    throw std::out_of_range("FabricArbiter::policy: unknown tenant");
  }
  return t->policy;
}

const TenantStats& FabricArbiter::stats(TenantId id) const {
  const Tenant* t = find(id);
  if (t == nullptr) {
    throw std::out_of_range("FabricArbiter::stats: unknown tenant");
  }
  return t->stats;
}

std::vector<unsigned> FabricArbiter::partition(TenantId id,
                                               Grain grain) const {
  const std::vector<TenantId>& owners = partition_of(grain);
  std::vector<unsigned> out;
  for (unsigned i = 0; i < owners.size(); ++i) {
    if (owners[i] == id) out.push_back(i);
  }
  return out;
}

bool FabricArbiter::may_place(TenantId tenant, Grain grain,
                              unsigned index) const {
  const std::vector<TenantId>& partition = partition_of(grain);
  if (index >= partition.size()) return false;
  const Tenant* t = find(tenant);
  if (t != nullptr && t->policy.share == TenantShare::kReserved) {
    return partition[index] == tenant;
  }
  // Pool tenants (weighted/best-effort) and unmanaged users share the
  // unpartitioned containers.
  return partition[index] == kUnownedTenant;
}

bool FabricArbiter::prefer_evict(TenantId tenant, TenantId owner,
                                 Grain grain) const {
  const Tenant* o = find(owner);
  if (o == nullptr) return false;  // unmanaged owner: native order
  const Tenant* t = find(tenant);
  const TenantShare requester_share =
      t != nullptr ? t->policy.share : TenantShare::kBestEffort;
  // A released tenant's leftover data paths have no live entitlement:
  // reclaim them like best-effort holdings.
  if (o->released_slot) return requester_share != TenantShare::kBestEffort;
  switch (o->policy.share) {
    case TenantShare::kBestEffort:
      // Entitled tenants reclaim from best-effort ones first; between
      // best-effort peers there is no hierarchy.
      return requester_share != TenantShare::kBestEffort;
    case TenantShare::kWeighted:
      // Quota preference only exists when weights actually differ: with
      // all-equal weights every tenant has the same entitlement and the
      // fabric's native victim order applies (the legacy degenerate case).
      return !equal_weights_ && over_quota(*o, owner, grain);
    case TenantShare::kReserved:
      // Unreachable via placement (partitions are inaccessible to others),
      // and never preferred.
      return false;
  }
  return false;
}

unsigned FabricArbiter::usable_partition(Grain grain, TenantId holder) const {
  const std::vector<TenantId>& partition = partition_of(grain);
  unsigned n = 0;
  for (unsigned i = 0; i < partition.size(); ++i) {
    if (partition[i] == holder && !fabric_->quarantined(grain, i)) ++n;
  }
  return n;
}

std::uint64_t FabricArbiter::total_weight() const { return total_weight_; }

bool FabricArbiter::over_quota(const Tenant& owner, TenantId owner_id,
                               Grain grain) const {
  const std::uint64_t sum = total_weight();
  if (sum == 0) return false;
  const unsigned owned = fabric_->owned(grain, owner_id);
  // owned / pool > weight / sum, in integers.
  return static_cast<std::uint64_t>(owned) * sum >
         static_cast<std::uint64_t>(usable_partition(grain, kUnownedTenant)) *
             owner.policy.weight;
}

unsigned FabricArbiter::visible(TenantId tenant, Grain grain) const {
  const Tenant* t = find(tenant);
  // A reserved tenant plans with its partition. Soft quotas bias eviction,
  // not planning: pool tenants may plan with the whole pool.
  const bool partitioned =
      t != nullptr && t->policy.share == TenantShare::kReserved;
  return usable_partition(grain, partitioned ? tenant : kUnownedTenant);
}

void FabricArbiter::note_eviction(TenantId tenant, TenantId owner, Grain grain,
                                  Cycles at) {
  (void)grain;
  (void)at;
  if (Tenant* t = find(tenant)) ++t->stats.evictions_caused;
  if (Tenant* o = find(owner)) ++o->stats.evictions_suffered;
}

void FabricArbiter::note_quota_redirect(TenantId tenant, TenantId owner,
                                        Grain grain, Cycles at) {
  (void)tenant;
  (void)grain;
  (void)at;
  if (Tenant* o = find(owner)) ++o->stats.quota_redirects;
}

void FabricArbiter::note_quarantine(TenantId owner, Grain grain, Cycles at) {
  (void)grain;
  (void)at;
  if (Tenant* o = find(owner)) ++o->stats.quarantines_suffered;
}

double jain_fairness_index(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

}  // namespace mrts
