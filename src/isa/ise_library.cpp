#include "isa/ise_library.h"

#include <cstdint>
#include <limits>
#include <stdexcept>

namespace mrts {

KernelId IseLibrary::add_kernel(std::string name, Cycles sw_latency) {
  if (name.empty()) throw std::invalid_argument("IseLibrary: empty kernel name");
  if (find_kernel(name) != kInvalidKernel) {
    throw std::invalid_argument("IseLibrary: duplicate kernel " + name);
  }
  if (sw_latency == 0) {
    throw std::invalid_argument("IseLibrary: kernel " + name +
                                " needs a positive RISC-mode latency");
  }
  Kernel k;
  k.id = KernelId{static_cast<std::uint32_t>(kernels_.size())};
  k.name = std::move(name);
  k.sw_latency = sw_latency;
  kernels_.push_back(std::move(k));
  return kernels_.back().id;
}

IseId IseLibrary::add_ise(IseVariant variant) {
  if (raw(variant.kernel) >= kernels_.size()) {
    throw std::invalid_argument("IseLibrary::add_ise: unknown kernel");
  }
  if (find_ise(variant.name) != kInvalidIse) {
    throw std::invalid_argument("IseLibrary::add_ise: duplicate ISE " +
                                variant.name);
  }
  // Fill the resource-demand cache before validation so fits() is usable.
  // Summed in 64 bits: a demand that wrapped in `unsigned` would make an
  // ISE needing 2^32 + 1 PRCs fit on one.
  std::uint64_t fg_units = 0;
  std::uint64_t cg_units = 0;
  for (DataPathId dp : variant.data_paths) {
    const auto& desc = table_[dp];
    if (desc.grain == Grain::kFine) {
      fg_units += desc.units;
    } else {
      cg_units += desc.units;
    }
  }
  constexpr std::uint64_t kMaxUnits = std::numeric_limits<unsigned>::max();
  if (fg_units > kMaxUnits || cg_units > kMaxUnits) {
    throw std::invalid_argument("IseLibrary::add_ise: resource demand of " +
                                variant.name + " out of range");
  }
  variant.fg_units = static_cast<unsigned>(fg_units);
  variant.cg_units = static_cast<unsigned>(cg_units);
  variant.validate(table_);
  Kernel& k = kernels_[raw(variant.kernel)];
  if (variant.latency_after.front() != k.sw_latency) {
    throw std::invalid_argument(
        "IseLibrary::add_ise: latency_after[0] of " + variant.name +
        " must equal the kernel RISC-mode latency");
  }
  variant.id = IseId{static_cast<std::uint32_t>(ises_.size())};
  ises_.push_back(std::move(variant));
  const IseVariant& stored = ises_.back();
  if (stored.is_mono_cg) {
    if (k.mono_cg != kInvalidIse) {
      throw std::invalid_argument("IseLibrary::add_ise: kernel " + k.name +
                                  " already has a monoCG-Extension");
    }
    k.mono_cg = stored.id;
  } else {
    k.ises.push_back(stored.id);
  }
  return stored.id;
}

const Kernel& IseLibrary::kernel(KernelId id) const {
  if (raw(id) >= kernels_.size()) {
    throw std::out_of_range("IseLibrary::kernel: invalid id");
  }
  return kernels_[raw(id)];
}

const IseVariant& IseLibrary::ise(IseId id) const {
  if (raw(id) >= ises_.size()) {
    throw std::out_of_range("IseLibrary::ise: invalid id");
  }
  return ises_[raw(id)];
}

KernelId IseLibrary::find_kernel(const std::string& name) const {
  for (const auto& k : kernels_) {
    if (k.name == name) return k.id;
  }
  return kInvalidKernel;
}

IseId IseLibrary::find_ise(const std::string& name) const {
  for (const auto& v : ises_) {
    if (v.name == name) return v.id;
  }
  return kInvalidIse;
}

std::vector<IseId> IseLibrary::fitting_ises(KernelId kernel_id,
                                            unsigned total_prcs,
                                            unsigned total_cg) const {
  std::vector<IseId> out;
  for (IseId id : kernel(kernel_id).ises) {
    if (ise(id).fits(total_prcs, total_cg)) out.push_back(id);
  }
  return out;
}

}  // namespace mrts
