#pragma once
/// \file assembler.h
/// Two-pass text assembler for the core-processor model (part of the
/// `mrts_iss` library). Syntax (one instruction per line, ';' or '#' starts
/// a comment):
///
///   label:
///     movi  r1, 16          ; rd, imm
///     add   r2, r3, r4      ; rd, rs1, rs2
///     addi  r2, r2, -1      ; rd, rs1, imm
///     abs   r5, r6          ; rd, rs1
///     ldw   r7, [r8+12]     ; rd, [base+offset]
///     stw   [r8+12], r7     ; [base+offset], rs2
///     beq   r1, r2, label   ; rs1, rs2, label
///     jmp   label
///     halt

#include <string>
#include <vector>

#include "riscsim/isa.h"

namespace mrts::riscsim {

struct Program {
  std::vector<Instr> code;
  /// Source line of each instruction (diagnostics).
  std::vector<unsigned> lines;
};

/// Assembles \p source; throws std::invalid_argument with line information
/// on any syntax error or unknown label.
Program assemble(const std::string& source);

/// Renders \p program back to text (labels become "L<index>:").
std::string disassemble(const Program& program);

}  // namespace mrts::riscsim
