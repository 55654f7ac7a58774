#include "arch/fg_fabric.h"

#include <algorithm>
#include <stdexcept>

#include "util/snapshot_io.h"

namespace mrts {

FgFabric::FgFabric(unsigned num_prcs) : prcs_(num_prcs) {}

const Prc& FgFabric::prc(unsigned index) const {
  if (index >= prcs_.size()) throw std::out_of_range("FgFabric::prc");
  return prcs_[index];
}

unsigned FgFabric::free_or_evictable(const std::vector<bool>& pinned) const {
  unsigned n = 0;
  for (unsigned i = 0; i < prcs_.size(); ++i) {
    if (i >= pinned.size() || !pinned[i]) ++n;
  }
  return n;
}

void FgFabric::place(unsigned index, DataPathId dp, Cycles ready_at) {
  if (index >= prcs_.size()) throw std::out_of_range("FgFabric::place");
  prcs_[index].occupant = dp;
  prcs_[index].ready_at = ready_at;
}

void FgFabric::evict(unsigned index) {
  if (index >= prcs_.size()) throw std::out_of_range("FgFabric::evict");
  prcs_[index] = Prc{};
}

std::optional<unsigned> FgFabric::find_instance(
    DataPathId dp, Cycles t, const std::vector<bool>& claimed) const {
  for (unsigned i = 0; i < prcs_.size(); ++i) {
    if (claimed.size() > i && claimed[i]) continue;
    if (prcs_[i].occupant == dp && prcs_[i].ready_at <= t) return i;
  }
  return std::nullopt;
}

std::optional<unsigned> FgFabric::find_victim(
    const std::vector<bool>& claimed) const {
  std::optional<unsigned> best;
  for (unsigned i = 0; i < prcs_.size(); ++i) {
    if (claimed.size() > i && claimed[i]) continue;
    if (prcs_[i].empty()) return i;
    if (!best || prcs_[i].ready_at < prcs_[*best].ready_at) best = i;
  }
  return best;
}

std::vector<Cycles> FgFabric::instance_ready_times(DataPathId dp) const {
  std::vector<Cycles> out;
  for (const auto& prc : prcs_) {
    if (prc.occupant == dp) out.push_back(prc.ready_at);
  }
  std::sort(out.begin(), out.end());
  return out;
}

template <typename Io, typename Self>
void FgFabric::walk(Io& io, Self& self) {
  io.count(self.prcs_.size(), "PRC count");
  for (auto& prc : self.prcs_) {
    io.id(prc.occupant);
    io.u64(prc.ready_at);
  }
}

void FgFabric::save_state(SnapshotWriter& w) const { walk(w, *this); }
void FgFabric::load_state(SnapshotReader& r) { walk(r, *this); }

}  // namespace mrts
