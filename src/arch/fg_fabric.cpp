#include "arch/fg_fabric.h"

#include <stdexcept>

#include "util/snapshot_io.h"

namespace mrts {

FgFabric::FgFabric(unsigned num_prcs) : prcs_(num_prcs) {}

const Prc& FgFabric::prc(unsigned index) const {
  if (index >= prcs_.size()) throw std::out_of_range("FgFabric::prc");
  return prcs_[index];
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
