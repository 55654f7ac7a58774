#pragma once
/// \file cg_fabric.h
/// Coarse-grained reconfigurable fabric element (CG-EDPE): a reconfigurable
/// ALU-array element with two ALUs, two 32x32-bit register files, a 32-bit
/// load/store unit and a context memory that stores up to 32 instructions of
/// 80 bits each (Section 5.1). A CG fabric can store multiple *contexts*
/// (loaded data-path programs) and switches between them in 2 cycles.

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/data_path.h"
#include "util/types.h"

namespace mrts {

class SnapshotWriter;
class SnapshotReader;

/// Architectural constants of one CG fabric (Section 5.1 of the paper).
struct CgFabricParams {
  unsigned instruction_bits = 80;
  unsigned context_memory_instructions = kCgContextMemoryInstructions;
  unsigned register_files = 2;
  unsigned registers_per_file = 32;
  unsigned register_width_bits = 32;
  Cycles context_switch_cycles = 2;
  Cycles alu_op_cycles = 1;       ///< add, sub, or, ...
  Cycles mul_cycles = 2;
  Cycles div_cycles = 10;
  Cycles load_store_cycles = 1;   ///< 32-bit LSU, virtually available
  Cycles inter_fabric_hop_cycles = 2;  ///< point-to-point CG<->CG link
  unsigned max_resident_contexts = 4;  ///< "can store multiple contexts"
};

/// One loaded context (a CG data-path program resident in context memory).
struct CgContext {
  DataPathId occupant = kInvalidDataPath;
  Cycles ready_at = kNeverCycles;

  bool empty() const { return occupant == kInvalidDataPath; }
  bool usable_at(Cycles t) const { return !empty() && ready_at <= t; }
};

/// State of one CG fabric: resident contexts plus the active one.
/// Like FgFabric this is pure placement state; scheduling of the (cheap)
/// context loads is done by ReconfigController.
class CgFabric {
 public:
  explicit CgFabric(CgFabricParams params = {});

  const CgFabricParams& params() const { return params_; }
  unsigned capacity() const { return params_.max_resident_contexts; }
  unsigned resident_count() const;

  const CgContext& context(unsigned slot) const;

  /// Loads \p dp into a context slot (reusing its existing slot, else an
  /// empty slot, else evicting the oldest context other than \p keep).
  /// Returns the slot used; throws std::logic_error when every slot holds
  /// \p keep (cannot happen with capacity > 1).
  unsigned load(DataPathId dp, Cycles ready_at,
                DataPathId keep = kInvalidDataPath);

  /// Removes the context in \p slot (e.g. a configuration upset whose repair
  /// load failed). Clears the active marker if that context was active.
  void evict(unsigned slot);

  /// Removes every resident context (fabric reset).
  void clear();

  /// True if \p dp is resident and usable at \p t.
  bool holds(DataPathId dp, Cycles t) const;

  /// Slot of \p dp if resident (usable or still loading).
  std::optional<unsigned> slot_of(DataPathId dp) const;

  /// Activates the context in \p slot; returns the switch penalty in cycles
  /// (0 when it is already active).
  Cycles activate(unsigned slot);

  std::optional<unsigned> active_slot() const { return active_; }

  /// Ready times of resident instances of \p dp (0 or 1 entries — the same
  /// data path is never loaded into two slots of one fabric).
  std::vector<Cycles> instance_ready_times(DataPathId dp) const;

  /// Allocation-free variant: appends the same ready times to \p out.
  void append_instance_ready_times(DataPathId dp,
                                   std::vector<Cycles>& out) const;

  /// Slot-exact capture/restore (rts/snapshot.h), including the active
  /// context marker — load() is policy-driven, so restore bypasses it.
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  template <typename Io, typename Self>
  static void walk(Io& io, Self& self);

  CgFabricParams params_;
  std::vector<CgContext> contexts_;
  std::optional<unsigned> active_;
};

}  // namespace mrts
