#pragma once
/// \file data_path.h
/// Data paths are the atomic hardware building blocks of Instruction Set
/// Extensions (ISEs). A data path is implemented either on the fine-grained
/// fabric (one or more Partially Reconfigurable Containers, PRCs, of the
/// embedded FPGA) or on the coarse-grained fabric (one CG ALU-array element).
///
/// Reconfiguration cost is derived from the architecture constants of
/// Section 5.1 of the paper:
///   * FG: bitstream bytes streamed at 67584 KB/s over the (single, shared)
///     reconfiguration port -> ~1.2 ms for a default ~81 KB PRC bitstream.
///   * CG: context instructions streamed into the context memory at
///     2 cycles/instruction -> ~0.15 us.

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace mrts {

/// Default bitstream size of one FG data path; chosen such that the
/// reconfiguration time at 67584 KB/s matches the paper's 1.2 ms figure
/// (1.2 ms * 67584 KiB/s = ~83 KiB).
inline constexpr std::uint64_t kDefaultFgBitstreamBytes = 83047;

/// Maximum number of instructions in a CG context memory (Section 5.1).
inline constexpr unsigned kCgContextMemoryInstructions = 32;

/// Cycles to stream one 80-bit CG instruction into the context memory.
inline constexpr Cycles kCgCyclesPerContextInstruction = 2;

/// Static description of one data path type.
struct DataPathDesc {
  DataPathId id = kInvalidDataPath;
  std::string name;
  Grain grain = Grain::kFine;

  /// Resource demand: number of PRCs (FG) or CG fabrics (CG) one instance
  /// occupies. Almost always 1.
  unsigned units = 1;

  /// FG only: partial bitstream size in bytes (per occupied PRC).
  std::uint64_t bitstream_bytes = kDefaultFgBitstreamBytes;

  /// CG only: number of 80-bit instructions in the context program.
  unsigned context_instructions = kCgContextMemoryInstructions;

  /// Reconfiguration time of one instance of this data path in core cycles.
  Cycles reconfig_cycles() const;
};

/// Flat registry of all data path types of an ISE library. DataPathId is an
/// index into this table.
///
/// add() also caches each data path's reconfig_cycles(): the table is
/// immutable once built, so the cache is exact, and the reconfiguration
/// planner reads it on every profit evaluation instead of redoing the
/// bitstream division.
class DataPathTable {
 public:
  /// Registers a data path; assigns and returns its id. Name must be unique
  /// within the table, and one instance must reconfigure in fewer than
  /// kNeverCycles cycles (both checked).
  DataPathId add(DataPathDesc desc);

  const DataPathDesc& operator[](DataPathId id) const;

  /// The next two skip the range check: they are for ids already validated
  /// against this table (an ISE's data paths are, by IseLibrary::add_ise).
  const DataPathDesc& unchecked(DataPathId id) const { return paths_[raw(id)]; }
  /// The cached DataPathDesc::reconfig_cycles() of \p id.
  Cycles reconfig_cycles(DataPathId id) const { return reconfig_[raw(id)]; }
  std::size_t size() const { return paths_.size(); }
  bool contains(DataPathId id) const { return raw(id) < paths_.size(); }

  /// Lookup by name; returns kInvalidDataPath if absent.
  DataPathId find(const std::string& name) const;

  auto begin() const { return paths_.begin(); }
  auto end() const { return paths_.end(); }

 private:
  std::vector<DataPathDesc> paths_;
  std::vector<Cycles> reconfig_;  ///< reconfig_cycles() per path, by id
};

}  // namespace mrts
