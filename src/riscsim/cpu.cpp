#include "riscsim/cpu.h"

#include <stdexcept>

namespace mrts::riscsim {
namespace {

std::int32_t s(std::uint32_t v) { return static_cast<std::int32_t>(v); }
std::uint32_t u(std::int32_t v) { return static_cast<std::uint32_t>(v); }

}  // namespace

Cpu::Cpu(ScratchpadParams mem_params) : mem_(mem_params) {}

void Cpu::reset_registers() {
  for (auto& r : regs_) r = 0;
}

std::uint32_t Cpu::reg(unsigned index) const {
  if (index >= kNumRegisters) throw std::out_of_range("Cpu::reg");
  return regs_[index];
}

void Cpu::set_reg(unsigned index, std::uint32_t value) {
  if (index >= kNumRegisters) throw std::out_of_range("Cpu::set_reg");
  regs_[index] = value;
  regs_[0] = 0;  // r0 is hard-wired to zero, SPARC %g0 style
}

RunResult Cpu::run(const Program& program, std::uint64_t max_steps) {
  RunResult result;
  std::uint32_t pc = 0;
  regs_[0] = 0;

  while (result.instructions < max_steps) {
    if (pc >= program.code.size()) {
      throw std::runtime_error("riscsim: pc out of range");
    }
    const Instr& in = program.code[pc];
    ++result.instructions;
    ++result.op_counts[static_cast<std::size_t>(in.op)];
    result.cycles += base_cycles(in.op);

    std::uint32_t next_pc = pc + 1;
    switch (in.op) {
      case Op::kNop: break;
      case Op::kHalt:
        result.halted = true;
        return result;
      case Op::kAdd: regs_[in.rd] = regs_[in.rs1] + regs_[in.rs2]; break;
      case Op::kSub: regs_[in.rd] = regs_[in.rs1] - regs_[in.rs2]; break;
      case Op::kAnd: regs_[in.rd] = regs_[in.rs1] & regs_[in.rs2]; break;
      case Op::kOr: regs_[in.rd] = regs_[in.rs1] | regs_[in.rs2]; break;
      case Op::kXor: regs_[in.rd] = regs_[in.rs1] ^ regs_[in.rs2]; break;
      case Op::kSll: regs_[in.rd] = regs_[in.rs1] << (regs_[in.rs2] & 31); break;
      case Op::kSrl: regs_[in.rd] = regs_[in.rs1] >> (regs_[in.rs2] & 31); break;
      case Op::kSra:
        regs_[in.rd] = u(s(regs_[in.rs1]) >> (regs_[in.rs2] & 31));
        break;
      case Op::kMul: regs_[in.rd] = regs_[in.rs1] * regs_[in.rs2]; break;
      case Op::kDiv:
        if (regs_[in.rs2] == 0) {
          throw std::runtime_error("riscsim: division by zero");
        }
        regs_[in.rd] = u(s(regs_[in.rs1]) / s(regs_[in.rs2]));
        break;
      case Op::kCmpLt:
        regs_[in.rd] = s(regs_[in.rs1]) < s(regs_[in.rs2]) ? 1 : 0;
        break;
      case Op::kCmpEq:
        regs_[in.rd] = regs_[in.rs1] == regs_[in.rs2] ? 1 : 0;
        break;
      case Op::kMin:
        regs_[in.rd] =
            s(regs_[in.rs1]) < s(regs_[in.rs2]) ? regs_[in.rs1] : regs_[in.rs2];
        break;
      case Op::kMax:
        regs_[in.rd] =
            s(regs_[in.rs1]) > s(regs_[in.rs2]) ? regs_[in.rs1] : regs_[in.rs2];
        break;
      case Op::kAbs:
        regs_[in.rd] = s(regs_[in.rs1]) < 0 ? u(-s(regs_[in.rs1])) : regs_[in.rs1];
        break;
      case Op::kAddi: regs_[in.rd] = regs_[in.rs1] + u(in.imm); break;
      case Op::kSubi: regs_[in.rd] = regs_[in.rs1] - u(in.imm); break;
      case Op::kAndi: regs_[in.rd] = regs_[in.rs1] & u(in.imm); break;
      case Op::kOri: regs_[in.rd] = regs_[in.rs1] | u(in.imm); break;
      case Op::kSlli: regs_[in.rd] = regs_[in.rs1] << (in.imm & 31); break;
      case Op::kSrli: regs_[in.rd] = regs_[in.rs1] >> (in.imm & 31); break;
      case Op::kMovi: regs_[in.rd] = u(in.imm); break;
      case Op::kLdw:
        regs_[in.rd] = mem_.read32(regs_[in.rs1] + u(in.imm));
        result.cycles += mem_.access_cycles(4);
        break;
      case Op::kStw:
        mem_.write32(regs_[in.rs1] + u(in.imm), regs_[in.rs2]);
        result.cycles += mem_.access_cycles(4);
        break;
      case Op::kLdb:
        regs_[in.rd] = mem_.read8(regs_[in.rs1] + u(in.imm));
        result.cycles += mem_.access_cycles(1);
        break;
      case Op::kStb:
        mem_.write8(regs_[in.rs1] + u(in.imm),
                    static_cast<std::uint8_t>(regs_[in.rs2]));
        result.cycles += mem_.access_cycles(1);
        break;
      case Op::kBeq:
        if (regs_[in.rs1] == regs_[in.rs2]) {
          next_pc = in.target;
          result.cycles += kBranchPenalty;
        }
        break;
      case Op::kBne:
        if (regs_[in.rs1] != regs_[in.rs2]) {
          next_pc = in.target;
          result.cycles += kBranchPenalty;
        }
        break;
      case Op::kBlt:
        if (s(regs_[in.rs1]) < s(regs_[in.rs2])) {
          next_pc = in.target;
          result.cycles += kBranchPenalty;
        }
        break;
      case Op::kBge:
        if (s(regs_[in.rs1]) >= s(regs_[in.rs2])) {
          next_pc = in.target;
          result.cycles += kBranchPenalty;
        }
        break;
      case Op::kJmp:
        next_pc = in.target;
        result.cycles += kBranchPenalty;
        break;
      case Op::kWait:
        result.cycles += static_cast<Cycles>(
            static_cast<std::uint32_t>(in.imm));
        break;
      case Op::kTrig: {
        if (coprocessor_ == nullptr) {
          throw std::runtime_error("riscsim: trig without a coprocessor");
        }
        const auto addr = static_cast<std::size_t>(
            static_cast<std::uint32_t>(in.imm));
        std::vector<std::uint8_t> bytes;
        bytes.reserve(in.target);
        for (std::uint32_t b = 0; b < in.target; ++b) {
          bytes.push_back(mem_.read8(addr + b));
        }
        result.cycles += coprocessor_->trigger(bytes, result.cycles);
        break;
      }
      case Op::kKexec:
        if (coprocessor_ == nullptr) {
          throw std::runtime_error("riscsim: kexec without a coprocessor");
        }
        result.cycles += coprocessor_->kernel(
            static_cast<std::uint32_t>(in.imm), result.cycles);
        break;
    }
    regs_[0] = 0;
    pc = next_pc;
  }
  return result;
}

}  // namespace mrts::riscsim
