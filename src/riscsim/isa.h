#pragma once
/// \file isa.h
/// Instruction set of the core-processor model: a SPARC-V8-flavoured 32-bit
/// RISC subset (the paper's core is a LEON). The simulator measures the
/// kernel micro-programs that examples/iss_calibration prints beside the
/// workload model's hand-set RISC latencies; it does not feed them.

#include <cstdint>
#include <string>

#include "util/types.h"

namespace mrts::riscsim {

inline constexpr unsigned kNumRegisters = 32;

enum class Op : std::uint8_t {
  kNop,
  kHalt,
  // ALU, register-register
  kAdd,
  kSub,
  kAnd,
  kOr,
  kXor,
  kSll,
  kSrl,
  kSra,
  kMul,   // 4 cycles (LEON hardware multiplier)
  kDiv,   // 35 cycles (iterative divider)
  kCmpLt, // rd = (rs1 < rs2), signed
  kCmpEq, // rd = (rs1 == rs2)
  kMin,
  kMax,
  kAbs,   // rd = |rs1|
  // ALU, register-immediate
  kAddi,
  kSubi,
  kAndi,
  kOri,
  kSlli,
  kSrli,
  kMovi,  // rd = imm
  // memory (scratch pad)
  kLdw,   // rd = mem32[rs1 + imm]
  kStw,   // mem32[rs1 + imm] = rs2
  kLdb,   // rd = zext(mem8[rs1 + imm])
  kStb,   // mem8[rs1 + imm] = rs2 & 0xff
  // control flow
  kBeq,   // if (rs1 == rs2) pc = target
  kBne,
  kBlt,   // signed
  kBge,
  kJmp,   // pc = target
  // coprocessor / run-time-system interface (Section 4: the application
  // binary embeds trigger instructions and accelerated kernel calls)
  kWait,  // advance time by imm cycles (models non-kernel software)
  kTrig,  // deliver the encoded trigger at mem[imm..imm+target) to the RTS
  kKexec, // execute kernel imm through the ECU; latency comes from the RTS
};

/// One decoded instruction. `target` is an instruction index (filled by the
/// assembler from labels).
struct Instr {
  Op op = Op::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;
  std::uint32_t target = 0;
};

/// Base execution cost of \p op in core cycles, excluding memory-port time
/// (added by the CPU from the scratch pad model) and branch penalties.
Cycles base_cycles(Op op);

/// True for instructions that read/write the scratch pad.
bool is_memory_op(Op op);

/// True for conditional/unconditional control transfers.
bool is_branch(Op op);

/// Mnemonic (lower case) of \p op, e.g. "add"; used by the assembler and
/// disassembler.
const char* mnemonic(Op op);

/// Parses a mnemonic; throws std::invalid_argument on unknown text.
Op op_from_mnemonic(const std::string& text);

/// True for the coprocessor-interface instructions (wait/trig/kexec).
bool is_coprocessor_op(Op op);

}  // namespace mrts::riscsim
