#include "arch/data_path.h"

#include <stdexcept>

namespace mrts {

namespace {

Cycles per_unit_reconfig_cycles(const DataPathDesc& desc) {
  if (desc.grain == Grain::kFine) {
    return fg_reconfig_cycles_for_bytes(desc.bitstream_bytes);
  }
  return static_cast<Cycles>(desc.context_instructions) *
         kCgCyclesPerContextInstruction;
}

}  // namespace

Cycles DataPathDesc::reconfig_cycles() const {
  return per_unit_reconfig_cycles(*this) * units;
}

DataPathId DataPathTable::add(DataPathDesc desc) {
  if (desc.name.empty()) {
    throw std::invalid_argument("DataPathTable::add: empty name");
  }
  if (find(desc.name) != kInvalidDataPath) {
    throw std::invalid_argument("DataPathTable::add: duplicate name " +
                                desc.name);
  }
  if (desc.units == 0) {
    throw std::invalid_argument("DataPathTable::add: zero units for " +
                                desc.name);
  }
  if (desc.grain == Grain::kCoarse &&
      desc.context_instructions > kCgContextMemoryInstructions) {
    throw std::invalid_argument(
        "DataPathTable::add: CG context program exceeds context memory for " +
        desc.name);
  }
  // One instance must load in fewer than kNeverCycles cycles. An FG
  // bitstream of 2^64 cycles or more is rejected before its conversion,
  // which would be undefined.
  if ((desc.grain == Grain::kFine &&
       !(fg_reconfig_cycles_rounded(desc.bitstream_bytes) < 0x1p64)) ||
      per_unit_reconfig_cycles(desc) > (kNeverCycles - 1) / desc.units) {
    throw std::invalid_argument(
        "DataPathTable::add: reconfiguration time out of range for " +
        desc.name);
  }
  desc.id = DataPathId{static_cast<std::uint32_t>(paths_.size())};
  reconfig_.push_back(desc.reconfig_cycles());
  paths_.push_back(std::move(desc));
  return paths_.back().id;
}

const DataPathDesc& DataPathTable::operator[](DataPathId id) const {
  if (!contains(id)) {
    throw std::out_of_range("DataPathTable: invalid data path id");
  }
  return paths_[raw(id)];
}

DataPathId DataPathTable::find(const std::string& name) const {
  for (const auto& dp : paths_) {
    if (dp.name == name) return dp.id;
  }
  return kInvalidDataPath;
}

}  // namespace mrts
