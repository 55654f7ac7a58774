#include "cgsim/cg_executor.h"

#include <stdexcept>
#include <vector>

namespace mrts::cgsim {
namespace {

std::int32_t s(std::uint32_t v) { return static_cast<std::int32_t>(v); }
std::uint32_t u(std::int32_t v) { return static_cast<std::uint32_t>(v); }

}  // namespace

CgExecutor::CgExecutor(CgFabricParams params, ScratchpadParams mem_params)
    : params_(params), mem_(mem_params) {}

std::uint32_t CgExecutor::reg(unsigned index) const {
  if (index >= kNumCgRegisters) throw std::out_of_range("CgExecutor::reg");
  return regs_[index];
}

void CgExecutor::set_reg(unsigned index, std::uint32_t value) {
  if (index >= kNumCgRegisters) throw std::out_of_range("CgExecutor::set_reg");
  regs_[index] = value;
}

void CgExecutor::reset_registers() {
  for (auto& r : regs_) r = 0;
}

CgRunResult CgExecutor::run(const CgContextProgram& program,
                            std::uint64_t max_steps) {
  program.validate();
  CgRunResult result;

  struct LoopFrame {
    std::size_t body_start;
    std::size_t body_end;  // one past the last body instruction
    std::int32_t remaining;
  };
  std::vector<LoopFrame> loops;

  std::size_t pc = 0;
  while (result.instructions < max_steps) {
    if (pc >= program.code.size()) {
      // Falling off the end of the context terminates the kernel (implicit
      // halt: the context has a fixed length).
      result.halted = true;
      return result;
    }
    const CgInstr& in = program.code[pc];
    ++result.instructions;
    result.cycles += cg_base_cycles(in.op, params_);

    std::size_t next_pc = pc + 1;
    switch (in.op) {
      case CgOp::kNop: break;
      case CgOp::kHalt:
        result.halted = true;
        return result;
      case CgOp::kAdd: regs_[in.rd] = regs_[in.rs1] + regs_[in.rs2]; break;
      case CgOp::kSub: regs_[in.rd] = regs_[in.rs1] - regs_[in.rs2]; break;
      case CgOp::kAnd: regs_[in.rd] = regs_[in.rs1] & regs_[in.rs2]; break;
      case CgOp::kOr: regs_[in.rd] = regs_[in.rs1] | regs_[in.rs2]; break;
      case CgOp::kXor: regs_[in.rd] = regs_[in.rs1] ^ regs_[in.rs2]; break;
      case CgOp::kShl: regs_[in.rd] = regs_[in.rs1] << (regs_[in.rs2] & 31); break;
      case CgOp::kShr: regs_[in.rd] = regs_[in.rs1] >> (regs_[in.rs2] & 31); break;
      case CgOp::kMul: regs_[in.rd] = regs_[in.rs1] * regs_[in.rs2]; break;
      case CgOp::kDiv:
        if (regs_[in.rs2] == 0) {
          throw std::runtime_error("cgsim: division by zero");
        }
        regs_[in.rd] = u(s(regs_[in.rs1]) / s(regs_[in.rs2]));
        break;
      case CgOp::kMac:
        regs_[in.rd] += regs_[in.rs1] * regs_[in.rs2];
        break;
      case CgOp::kMin:
        regs_[in.rd] =
            s(regs_[in.rs1]) < s(regs_[in.rs2]) ? regs_[in.rs1] : regs_[in.rs2];
        break;
      case CgOp::kMax:
        regs_[in.rd] =
            s(regs_[in.rs1]) > s(regs_[in.rs2]) ? regs_[in.rs1] : regs_[in.rs2];
        break;
      case CgOp::kAbs:
        regs_[in.rd] =
            s(regs_[in.rs1]) < 0 ? u(-s(regs_[in.rs1])) : regs_[in.rs1];
        break;
      case CgOp::kAddi: regs_[in.rd] = regs_[in.rs1] + u(in.imm); break;
      case CgOp::kShli: regs_[in.rd] = regs_[in.rs1] << (in.imm & 31); break;
      case CgOp::kShri: regs_[in.rd] = regs_[in.rs1] >> (in.imm & 31); break;
      case CgOp::kMovi: regs_[in.rd] = u(in.imm); break;
      case CgOp::kLd:
        regs_[in.rd] = mem_.read32(regs_[in.rs1] + u(in.imm));
        break;
      case CgOp::kSt:
        mem_.write32(regs_[in.rs1] + u(in.imm), regs_[in.rs2]);
        break;
      case CgOp::kLoop:
        if (loops.size() >= 2) {
          throw std::runtime_error("cgsim: hardware loop stack is 2 deep");
        }
        if (in.imm == 0) {
          next_pc = pc + 1 + in.aux;  // zero-trip loop: skip the body
        } else {
          loops.push_back({pc + 1, pc + 1 + in.aux, in.imm});
        }
        break;
    }

    // Zero-overhead loop back-edge: reaching the body end re-enters the body
    // without spending a cycle.
    while (!loops.empty() && next_pc == loops.back().body_end) {
      LoopFrame& frame = loops.back();
      if (--frame.remaining > 0) {
        next_pc = frame.body_start;
        break;
      }
      loops.pop_back();
    }
    pc = next_pc;
  }
  return result;
}

}  // namespace mrts::cgsim
