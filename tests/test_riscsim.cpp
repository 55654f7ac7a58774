// Unit tests for the core-processor instruction-set simulator: assembler
// syntax/diagnostics, execution semantics, timing model (step-limit cutoffs
// and coprocessor issue cycles included) and the H.264 kernel
// micro-programs.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "riscsim/assembler.h"
#include "riscsim/cpu.h"
#include "riscsim/kernel_programs.h"
#include "util/rng.h"

namespace mrts::riscsim {
namespace {

RunResult run(Cpu& cpu, const std::string& asm_text) {
  return cpu.run(assemble(asm_text));
}

TEST(Assembler, ParsesAllOperandForms) {
  const Program p = assemble(R"(
    start:
      movi r1, 5
      addi r2, r1, -3
      add  r3, r1, r2
      abs  r4, r3
      ldw  r5, [r1+8]
      stw  [r1+8], r5
      beq  r1, r2, start
      jmp  end
    end:
      halt
  )");
  EXPECT_EQ(p.code.size(), 9u);
  EXPECT_EQ(p.code[0].op, Op::kMovi);
  EXPECT_EQ(p.code[6].target, 0u);
  EXPECT_EQ(p.code[7].target, 8u);
}

TEST(Assembler, DiagnosticsCarryLineNumbers) {
  try {
    assemble("movi r1, 1\nbogus r1, r2\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Assembler, RejectsBadInput) {
  EXPECT_THROW(assemble("add r1, r2"), std::invalid_argument);     // arity
  EXPECT_THROW(assemble("add r1, r2, r99"), std::invalid_argument); // register
  EXPECT_THROW(assemble("jmp nowhere"), std::invalid_argument);    // label
  EXPECT_THROW(assemble("x: x: halt"), std::invalid_argument);     // dup label
  EXPECT_THROW(assemble("ldw r1, r2"), std::invalid_argument);     // mem form
}

TEST(Assembler, DisassembleRoundTripReassembles) {
  const Program p = assemble(R"(
      movi r1, 3
    loop:
      subi r1, r1, 1
      bne  r1, r0, loop
      halt
  )");
  const Program p2 = assemble(disassemble(p));
  ASSERT_EQ(p2.code.size(), p.code.size());
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    EXPECT_EQ(p2.code[i].op, p.code[i].op) << i;
    EXPECT_EQ(p2.code[i].target, p.code[i].target) << i;
  }
}

TEST(Cpu, ArithmeticSemantics) {
  Cpu cpu;
  run(cpu, R"(
    movi r1, 7
    movi r2, -3
    add  r3, r1, r2   ; 4
    sub  r4, r1, r2   ; 10
    mul  r5, r1, r2   ; -21
    div  r6, r5, r1   ; -3
    abs  r7, r2       ; 3
    min  r8, r1, r2   ; -3
    max  r9, r1, r2   ; 7
    cmplt r10, r2, r1 ; 1
    cmpeq r11, r1, r1 ; 1
    halt
  )");
  EXPECT_EQ(cpu.reg(3), 4u);
  EXPECT_EQ(cpu.reg(4), 10u);
  EXPECT_EQ(static_cast<std::int32_t>(cpu.reg(5)), -21);
  EXPECT_EQ(static_cast<std::int32_t>(cpu.reg(6)), -3);
  EXPECT_EQ(cpu.reg(7), 3u);
  EXPECT_EQ(static_cast<std::int32_t>(cpu.reg(8)), -3);
  EXPECT_EQ(cpu.reg(9), 7u);
  EXPECT_EQ(cpu.reg(10), 1u);
  EXPECT_EQ(cpu.reg(11), 1u);
}

TEST(Cpu, RegisterZeroIsHardwired) {
  Cpu cpu;
  run(cpu, "movi r0, 55\nhalt\n");
  EXPECT_EQ(cpu.reg(0), 0u);
}

TEST(Cpu, LoopExecutesCorrectCount) {
  Cpu cpu;
  const RunResult r = run(cpu, R"(
      movi r1, 10
      movi r2, 0
    loop:
      addi r2, r2, 1
      subi r1, r1, 1
      bne  r1, r0, loop
      halt
  )");
  EXPECT_EQ(cpu.reg(2), 10u);
  EXPECT_TRUE(r.halted);
  // 2 movi + 10*(addi,subi,bne) + halt = 33 instructions.
  EXPECT_EQ(r.instructions, 33u);
}

TEST(Cpu, TimingChargesBranchPenaltyAndMemory) {
  Cpu cpu;
  // movi(1) + jmp(1+1 penalty) + halt(1) = 4 cycles.
  const RunResult r = run(cpu, "movi r1, 1\njmp l\nl: halt\n");
  EXPECT_EQ(r.cycles, 4u);

  Cpu cpu2;
  // movi(1) + ldw(1 + 1 mem) + halt(1) = 4.
  const RunResult r2 = run(cpu2, "movi r1, 0\nldw r2, [r1+0]\nhalt\n");
  EXPECT_EQ(r2.cycles, 4u);

  Cpu cpu3;
  // mul costs 4, div costs 35.
  const RunResult r3 =
      run(cpu3, "movi r1, 6\nmovi r2, 2\nmul r3, r1, r2\ndiv r4, r1, r2\nhalt\n");
  EXPECT_EQ(r3.cycles, 1u + 1u + 4u + 35u + 1u);
}

TEST(Cpu, MemoryRoundTrip) {
  Cpu cpu;
  run(cpu, R"(
    movi r1, 100
    movi r2, 12345
    stw  [r1+0], r2
    ldw  r3, [r1+0]
    stb  [r1+4], r2
    ldb  r4, [r1+4]
    halt
  )");
  EXPECT_EQ(cpu.reg(3), 12345u);
  EXPECT_EQ(cpu.reg(4), 12345u & 0xff);
}

TEST(Cpu, DivisionByZeroThrows) {
  Cpu cpu;
  EXPECT_THROW(run(cpu, "movi r1, 1\ndiv r2, r1, r0\nhalt\n"),
               std::runtime_error);
}

TEST(Cpu, StepLimitStopsRunaway) {
  Cpu cpu;
  const RunResult r = cpu.run(assemble("l: jmp l\n"), /*max_steps=*/100);
  EXPECT_FALSE(r.halted);
  EXPECT_EQ(r.instructions, 100u);
}

TEST(Cpu, RunningOffTheEndThrowsAfterTheBody) {
  // No halt: the body runs to completion, then the fetch past the last
  // instruction raises.
  Cpu cpu;
  try {
    run(cpu, "movi r2, 11\naddi r2, r2, 1\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "riscsim: pc out of range");
  }
  EXPECT_EQ(cpu.reg(2), 12u);
}

TEST(Cpu, MaxStepsCutoffIsCycleExact) {
  // addi (1 cycle), stw (1 + 1 memory), jmp (1 + 1 taken): 5 cycles per
  // 3-instruction iteration, r2 counts the addis, mem[16] the last store.
  const Program program = assemble(R"(
    loop:
      addi r2, r2, 1
      stw  [r4+16], r2
      jmp  loop
  )");
  struct Expected {
    std::uint64_t steps;
    Cycles cycles;
    std::uint32_t r2;
    std::uint32_t stored;
  };
  for (const Expected& e : {Expected{0, 0, 0, 0}, Expected{1, 1, 1, 0},
                            Expected{2, 3, 1, 1}, Expected{3, 5, 1, 1},
                            Expected{7, 11, 3, 2}, Expected{100, 166, 34, 33},
                            Expected{101, 168, 34, 34}}) {
    SCOPED_TRACE("max_steps " + std::to_string(e.steps));
    Cpu cpu;
    const RunResult r = cpu.run(program, e.steps);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.instructions, e.steps);
    EXPECT_EQ(r.cycles, e.cycles);
    EXPECT_EQ(cpu.reg(2), e.r2);
    EXPECT_EQ(cpu.memory().read32(16), e.stored);
  }
}

/// Coprocessor stub whose latencies depend on call order and whose log pins
/// the absolute issue cycle of every trig/kexec.
class RecordingCoprocessor : public Coprocessor {
 public:
  Cycles trigger(const std::vector<std::uint8_t>& bytes, Cycles now) override {
    triggers.emplace_back(bytes, now);
    return 40 + static_cast<Cycles>(bytes.size()) +
           static_cast<Cycles>(triggers.size() % 3);
  }
  Cycles kernel(std::uint32_t kernel_id, Cycles now) override {
    kernels.emplace_back(kernel_id, now);
    return 100 + kernel_id * 7 + static_cast<Cycles>(kernels.size() % 5);
  }
  std::vector<std::pair<std::vector<std::uint8_t>, Cycles>> triggers;
  std::vector<std::pair<std::uint32_t, Cycles>> kernels;
};

TEST(Cpu, CoprocessorCallsIssueAtExactCycles) {
  Cpu cpu;
  RecordingCoprocessor cop;
  cpu.attach_coprocessor(&cop);
  const std::vector<std::uint8_t> blob = {0xA0, 0xA1, 0xA2, 0xA3};
  for (std::size_t b = 0; b < blob.size(); ++b) {
    cpu.memory().write8(16 + b, blob[b]);
  }
  const RunResult r = run(cpu, R"(
    movi r3, 3
    loop:
      trig  16, 4
      wait  7
      kexec 2
      subi  r3, r3, 1
      bne   r3, r0, loop
    halt
  )");
  // trig and kexec cost only their coprocessor latency: trig 44 + n % 3 and
  // kexec 114 + n % 5 for the n-th call. Iteration 1 issues trig at 1 (after
  // movi), kexec at 1 + 45 + 7 = 53 and ends at 53 + 115 + 1 + 2 = 171;
  // iteration 2: trig at 171, kexec at 171 + 46 + 7 = 224, ends at
  // 224 + 116 + 3 = 343; iteration 3: trig at 343, kexec at 343 + 44 + 7 =
  // 394, then subi and the untaken bne reach 394 + 117 + 2 = 513; halt ends
  // the run at 514.
  using Call = std::pair<std::vector<std::uint8_t>, Cycles>;
  EXPECT_EQ(cop.triggers,
            (std::vector<Call>{{blob, 1}, {blob, 171}, {blob, 343}}));
  EXPECT_EQ(cop.kernels,
            (std::vector<std::pair<std::uint32_t, Cycles>>{
                {2, 53}, {2, 224}, {2, 394}}));
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.instructions, 17u);
  EXPECT_EQ(r.cycles, 514u);
}

TEST(KernelPrograms, AllAssembleAndHalt) {
  for (const auto& name : kernel_program_names()) {
    const RunResult r = measure_kernel(name);
    EXPECT_TRUE(r.halted) << name;
    EXPECT_GT(r.cycles, 0u) << name;
  }
}

TEST(KernelPrograms, MeasurementsAreDeterministic) {
  for (const auto& name : kernel_program_names()) {
    EXPECT_EQ(measure_kernel(name, 7).cycles, measure_kernel(name, 7).cycles)
        << name;
  }
}

TEST(KernelPrograms, Sad4x4MatchesReferenceComputation) {
  Cpu cpu;
  Rng rng(7);
  // Same preload as measure_kernel.
  for (std::size_t addr = 0; addr < 2048; ++addr) {
    cpu.memory().write8(addr, static_cast<std::uint8_t>(rng.next_below(256)));
  }
  // Reference SAD over the two 4x4 blocks (stride 16).
  std::uint32_t expected = 0;
  for (int row = 0; row < 4; ++row) {
    for (int col = 0; col < 4; ++col) {
      const int a = cpu.memory().read8(static_cast<std::size_t>(row * 16 + col));
      const int b =
          cpu.memory().read8(static_cast<std::size_t>(256 + row * 16 + col));
      expected += static_cast<std::uint32_t>(a > b ? a - b : b - a);
    }
  }
  cpu.run(kernel_program("sad_4x4"));
  EXPECT_EQ(cpu.reg(10), expected);
}

TEST(KernelPrograms, DeblockEdgeOnlyFiltersStrongEdges) {
  Cpu cpu;
  // Edge 0: |p0-q0| = 0 < alpha -> filtered. Edge 1: huge gradient -> skipped.
  const std::uint8_t pixels[16] = {10, 20, 20, 30,  // filtered
                                   0, 0, 255, 255,  // |p0-q0|=255 >= alpha
                                   50, 60, 60, 70,  // filtered
                                   90, 90, 90, 90};
  for (std::size_t i = 0; i < 16; ++i) cpu.memory().write8(1024 + i, pixels[i]);
  cpu.run(kernel_program("deblock_edge"));
  // Edge 1's pixels are untouched.
  EXPECT_EQ(cpu.memory().read8(1024 + 5), 0u);
  EXPECT_EQ(cpu.memory().read8(1024 + 6), 255u);
}

TEST(KernelPrograms, LatenciesAreInWorkloadModelRange) {
  // The workload model uses RISC latencies in the few-hundred-cycles range;
  // the measured micro-programs must be the same order of magnitude.
  for (const auto& name : kernel_program_names()) {
    const RunResult r = measure_kernel(name);
    EXPECT_GE(r.cycles, 20u) << name;
    EXPECT_LE(r.cycles, 2000u) << name;
  }
}

TEST(KernelPrograms, UnknownNameThrows) {
  EXPECT_THROW(kernel_program("nope"), std::invalid_argument);
  EXPECT_THROW(measure_kernel("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace mrts::riscsim
