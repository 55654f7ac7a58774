#pragma once
/// \file ise_library.h
/// The compile-time prepared ISE library: the data-path registry, all
/// kernels and all ISE variants of an application. The library is immutable
/// input to every run-time system (mRTS and the baselines); it corresponds
/// to the output of the proprietary compile-time tool chain the paper refers
/// to ([18], [19]).
///
/// Once construction is finished, a library — including its DataPathTable —
/// is never mutated by any run-time system or simulator; all const queries
/// are pure reads with no internal caching, so one library instance may be
/// shared read-only by every point of a sweep. The non-const accessors exist
/// for the build phase only.

#include <string>
#include <vector>

#include "arch/data_path.h"
#include "isa/ise.h"
#include "isa/kernel.h"
#include "util/types.h"

namespace mrts {

class IseLibrary {
 public:
  // --- construction -------------------------------------------------------

  DataPathTable& data_paths() { return table_; }
  const DataPathTable& data_paths() const { return table_; }

  /// Registers a kernel; name must be unique.
  KernelId add_kernel(std::string name, Cycles sw_latency);

  /// Registers an ISE variant (validated). Fills the resource-demand cache,
  /// assigns an id and links the variant to its kernel.
  IseId add_ise(IseVariant variant);

  // --- queries -------------------------------------------------------------

  const Kernel& kernel(KernelId id) const;
  const IseVariant& ise(IseId id) const;

  std::size_t num_kernels() const { return kernels_.size(); }
  std::size_t num_ises() const { return ises_.size(); }

  KernelId find_kernel(const std::string& name) const;
  IseId find_ise(const std::string& name) const;

  /// Candidate ISEs of a kernel that fit the *total* machine capacity;
  /// non-fitting variants are filtered out at compile time (Section 4).
  std::vector<IseId> fitting_ises(KernelId kernel, unsigned total_prcs,
                                  unsigned total_cg) const;

  const std::vector<Kernel>& kernels() const { return kernels_; }
  const std::vector<IseVariant>& ises() const { return ises_; }

 private:
  DataPathTable table_;
  std::vector<Kernel> kernels_;
  std::vector<IseVariant> ises_;
};

}  // namespace mrts
