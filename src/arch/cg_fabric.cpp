#include "arch/cg_fabric.h"

#include <stdexcept>

#include "util/snapshot_io.h"

namespace mrts {

CgFabric::CgFabric(CgFabricParams params)
    : params_(params), contexts_(params.max_resident_contexts) {
  if (params.max_resident_contexts == 0) {
    throw std::invalid_argument("CgFabric: need at least one context slot");
  }
}

unsigned CgFabric::resident_count() const {
  unsigned n = 0;
  for (const auto& c : contexts_) {
    if (!c.empty()) ++n;
  }
  return n;
}

const CgContext& CgFabric::context(unsigned slot) const {
  if (slot >= contexts_.size()) throw std::out_of_range("CgFabric::context");
  return contexts_[slot];
}

unsigned CgFabric::load(DataPathId dp, Cycles ready_at, DataPathId keep) {
  // Reuse the slot if the data path is already resident (refresh).
  if (auto slot = slot_of(dp)) {
    contexts_[*slot].ready_at = std::min(contexts_[*slot].ready_at, ready_at);
    return *slot;
  }
  // Else first empty slot.
  for (unsigned i = 0; i < contexts_.size(); ++i) {
    if (contexts_[i].empty()) {
      contexts_[i] = CgContext{dp, ready_at};
      return i;
    }
  }
  // Else evict the context with the oldest ready time (pseudo-LRU), never
  // the protected one and not the active one if avoidable.
  std::optional<unsigned> victim;
  for (unsigned i = 0; i < contexts_.size(); ++i) {
    if (keep != kInvalidDataPath && contexts_[i].occupant == keep) continue;
    if (active_ && *active_ == i && contexts_.size() > 1) continue;
    if (!victim || contexts_[i].ready_at < contexts_[*victim].ready_at) {
      victim = i;
    }
  }
  if (!victim) {
    // Every other slot is active/protected; fall back to any non-protected.
    for (unsigned i = 0; i < contexts_.size(); ++i) {
      if (keep != kInvalidDataPath && contexts_[i].occupant == keep) continue;
      victim = i;
      break;
    }
  }
  if (!victim) throw std::logic_error("CgFabric::load: all slots protected");
  if (active_ && *active_ == *victim) active_.reset();
  contexts_[*victim] = CgContext{dp, ready_at};
  return *victim;
}

void CgFabric::evict(unsigned slot) {
  if (slot >= contexts_.size()) throw std::out_of_range("CgFabric::evict");
  contexts_[slot] = CgContext{};
  if (active_ && *active_ == slot) active_.reset();
}

void CgFabric::clear() {
  for (auto& c : contexts_) c = CgContext{};
  active_.reset();
}

bool CgFabric::holds(DataPathId dp, Cycles t) const {
  for (const auto& c : contexts_) {
    if (c.occupant == dp && c.ready_at <= t) return true;
  }
  return false;
}

std::optional<unsigned> CgFabric::slot_of(DataPathId dp) const {
  for (unsigned i = 0; i < contexts_.size(); ++i) {
    if (contexts_[i].occupant == dp) return i;
  }
  return std::nullopt;
}

Cycles CgFabric::activate(unsigned slot) {
  if (slot >= contexts_.size()) throw std::out_of_range("CgFabric::activate");
  if (contexts_[slot].empty()) {
    throw std::invalid_argument("CgFabric::activate: empty context");
  }
  if (active_ && *active_ == slot) return 0;
  active_ = slot;
  return params_.context_switch_cycles;
}

std::vector<Cycles> CgFabric::instance_ready_times(DataPathId dp) const {
  std::vector<Cycles> out;
  append_instance_ready_times(dp, out);
  return out;
}

void CgFabric::append_instance_ready_times(DataPathId dp,
                                           std::vector<Cycles>& out) const {
  for (const auto& c : contexts_) {
    if (c.occupant == dp) out.push_back(c.ready_at);
  }
}

template <typename Io, typename Self>
void CgFabric::walk(Io& io, Self& self) {
  io.count(self.contexts_.size(), "CG context count");
  for (auto& c : self.contexts_) {
    io.id(c.occupant);
    io.u64(c.ready_at);
  }
  bool has_active = self.active_.has_value();
  std::uint32_t slot = self.active_.value_or(0);
  io.boolean(has_active);
  const std::size_t slot_at = io.pos();
  io.u32(slot);
  if (has_active && slot >= self.contexts_.size()) {
    throw SnapshotError("snapshot active CG slot out of range", slot_at);
  }
  if constexpr (Io::kLoading) {
    self.active_ = has_active ? std::optional<unsigned>(slot) : std::nullopt;
  }
}

void CgFabric::save_state(SnapshotWriter& w) const { walk(w, *this); }
void CgFabric::load_state(SnapshotReader& r) { walk(r, *this); }

}  // namespace mrts
