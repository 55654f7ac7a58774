#pragma once
/// \file cg_executor.h
/// Cycle-counting interpreter for CG context programs. Timing follows the
/// Section 5.1 parameters (1-cycle ALU, 2-cycle multiply, 10-cycle divide,
/// zero-overhead loops); memory operations go through the fabric's 32-bit
/// load/store unit into its scratch pad. Built into the `mrts_iss` library,
/// which only tests and examples link.

#include <cstdint>

#include "arch/cg_fabric.h"
#include "arch/scratchpad.h"
#include "cgsim/cg_isa.h"
#include "util/types.h"

namespace mrts::cgsim {

struct CgRunResult {
  Cycles cycles = 0;
  std::uint64_t instructions = 0;  ///< dynamic count, loop iterations included
  bool halted = false;
};

class CgExecutor {
 public:
  explicit CgExecutor(CgFabricParams params = {},
                      ScratchpadParams mem_params = {});

  const CgFabricParams& params() const { return params_; }
  Scratchpad& memory() { return mem_; }
  const Scratchpad& memory() const { return mem_; }

  std::uint32_t reg(unsigned index) const;
  void set_reg(unsigned index, std::uint32_t value);
  void reset_registers();

  /// Runs \p program until halt/end of context or \p max_steps dynamic
  /// instructions. Throws std::runtime_error on division by zero or a loop
  /// stack deeper than two (hardware limit).
  CgRunResult run(const CgContextProgram& program,
                  std::uint64_t max_steps = 10'000'000);

 private:
  CgFabricParams params_;
  Scratchpad mem_;
  std::uint32_t regs_[kNumCgRegisters] = {};
};

}  // namespace mrts::cgsim
