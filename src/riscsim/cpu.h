#pragma once
/// \file cpu.h
/// Cycle-counting interpreter for the core-processor model. Timing follows a
/// simple single-issue in-order pipeline: every instruction pays its base
/// cost, memory operations add the scratch-pad port time, and taken branches
/// pay a one-cycle redirect penalty (LEON-style delay-slot effect folded into
/// the taken path). Built into the `mrts_iss` library, which only tests and
/// examples link; no figure bench, tool or served job runs it.

#include <array>
#include <cstdint>
#include <vector>

#include "arch/scratchpad.h"
#include "riscsim/assembler.h"
#include "util/types.h"

namespace mrts::riscsim {

/// Number of distinct opcodes (kKexec is the last enumerator).
inline constexpr std::size_t kNumOpcodes =
    static_cast<std::size_t>(Op::kKexec) + 1;

struct RunResult {
  Cycles cycles = 0;
  std::uint64_t instructions = 0;
  bool halted = false;  ///< false when the step limit was hit
  /// Dynamic execution count per opcode (profiling input for the ISE
  /// identification pass).
  std::array<std::uint64_t, kNumOpcodes> op_counts{};

  std::uint64_t count(Op op) const {
    return op_counts[static_cast<std::size_t>(op)];
  }
};

/// Host-side handler for the coprocessor-interface instructions. The `now`
/// argument is the absolute cycle count at which the instruction issues.
class Coprocessor {
 public:
  virtual ~Coprocessor() = default;
  /// `trig`: an encoded trigger instruction (isa/trigger.h binary format)
  /// was delivered; returns the cycles the core is stalled (the blocking
  /// part of the RTS selection).
  virtual Cycles trigger(const std::vector<std::uint8_t>& bytes,
                         Cycles now) = 0;
  /// `kexec`: kernel \p kernel_id executes; returns its latency in cycles.
  virtual Cycles kernel(std::uint32_t kernel_id, Cycles now) = 0;
};

class Cpu {
 public:
  explicit Cpu(ScratchpadParams mem_params = {});

  /// Attaches the handler for wait/trig/kexec instructions. Without one,
  /// `wait` still works (pure delay) but trig/kexec throw std::runtime_error.
  void attach_coprocessor(Coprocessor* coprocessor) {
    coprocessor_ = coprocessor;
  }

  /// Resets registers and the program counter (memory contents are kept so
  /// tests can pre-load inputs).
  void reset_registers();

  Scratchpad& memory() { return mem_; }
  const Scratchpad& memory() const { return mem_; }

  std::uint32_t reg(unsigned index) const;
  void set_reg(unsigned index, std::uint32_t value);

  /// Executes \p program from instruction 0 until halt or \p max_steps.
  /// Throws std::runtime_error on division by zero or pc out of range.
  RunResult run(const Program& program, std::uint64_t max_steps = 10'000'000);

  /// Taken-branch penalty in cycles.
  static constexpr Cycles kBranchPenalty = 1;

 private:
  Scratchpad mem_;
  std::uint32_t regs_[kNumRegisters] = {};
  Coprocessor* coprocessor_ = nullptr;
};

}  // namespace mrts::riscsim
