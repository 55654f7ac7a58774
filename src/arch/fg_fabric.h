#pragma once
/// \file fg_fabric.h
/// Fine-grained reconfigurable fabric: an embedded FPGA (Virtex-4-like,
/// 100 MHz) partitioned into Partially Reconfigurable Containers (PRCs).
/// Each PRC can hold one data-path instance at a time; loading a new one
/// streams a partial bitstream over the single reconfiguration port.

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/data_path.h"
#include "util/types.h"

namespace mrts {

class SnapshotWriter;
class SnapshotReader;

/// State of one Partially Reconfigurable Container.
struct Prc {
  /// Data path currently mapped onto this PRC (or being loaded).
  DataPathId occupant = kInvalidDataPath;
  /// Cycle at which the occupant becomes usable; 0 for "since ever",
  /// kNeverCycles for an empty PRC.
  Cycles ready_at = kNeverCycles;

  bool empty() const { return occupant == kInvalidDataPath; }
  bool usable_at(Cycles t) const { return !empty() && ready_at <= t; }
};

/// The FG fabric as a set of PRCs with bookkeeping for placement queries.
/// Reconfiguration *scheduling* (the serialized port) lives in
/// ReconfigController; this class only stores the resulting placement.
class FgFabric {
 public:
  explicit FgFabric(unsigned num_prcs);

  unsigned num_prcs() const { return static_cast<unsigned>(prcs_.size()); }

  const Prc& prc(unsigned index) const;

  /// Number of PRCs whose occupant is not pinned (i.e. candidates for
  /// eviction) plus empty PRCs — the selector treats the whole fabric as
  /// available because old contents may always be overwritten.
  unsigned free_or_evictable(const std::vector<bool>& pinned) const;

  /// Places \p dp on PRC \p index, becoming usable at \p ready_at.
  /// Any previous occupant is evicted instantly (partial reconfiguration
  /// overwrites the region).
  void place(unsigned index, DataPathId dp, Cycles ready_at);

  /// Clears PRC \p index.
  void evict(unsigned index);

  /// Finds a PRC currently holding \p dp that is usable at \p t and not
  /// already claimed in \p claimed (bitmap sized num_prcs). Returns its index.
  std::optional<unsigned> find_instance(DataPathId dp, Cycles t,
                                        const std::vector<bool>& claimed) const;

  /// Finds an unclaimed PRC to overwrite: prefers empty PRCs, then the
  /// occupant with the oldest ready_at (pseudo-LRU).
  std::optional<unsigned> find_victim(const std::vector<bool>& claimed) const;

  /// Ready times of all instances of \p dp currently placed (including ones
  /// still being loaded), sorted ascending.
  std::vector<Cycles> instance_ready_times(DataPathId dp) const;

  /// Placement-exact capture/restore (rts/snapshot.h). load_state validates
  /// the stored PRC count against the live fabric before mutating.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  template <typename Io, typename Self>
  static void walk(Io& io, Self& self);

  std::vector<Prc> prcs_;
};

}  // namespace mrts
