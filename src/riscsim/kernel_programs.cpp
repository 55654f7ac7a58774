#include "riscsim/kernel_programs.h"

#include <map>
#include <stdexcept>

#include "util/rng.h"

namespace mrts::riscsim {
namespace {

/// 4x4 sum of absolute differences: two blocks at 0x000 and 0x100 (byte
/// samples, stride 16), result in r10.
const char* kSad4x4 = R"(
    movi r1, 0          ; src a
    movi r2, 256        ; src b
    movi r10, 0         ; sad
    movi r5, 0          ; row
    movi r6, 4          ; rows
row:
    movi r7, 0          ; col
    movi r8, 4          ; cols
col:
    ldb  r3, [r1+0]
    ldb  r4, [r2+0]
    sub  r3, r3, r4
    abs  r3, r3
    add  r10, r10, r3
    addi r1, r1, 1
    addi r2, r2, 1
    addi r7, r7, 1
    blt  r7, r8, col
    addi r1, r1, 12     ; stride 16 - 4
    addi r2, r2, 12
    addi r5, r5, 1
    blt  r5, r6, row
    halt
)";

/// One 4-point DCT butterfly row (H.264 integer transform), 4 words at
/// 0x200, coefficients written to 0x240.
const char* kDct4Row = R"(
    movi r1, 512
    ldw  r2, [r1+0]     ; p0
    ldw  r3, [r1+4]     ; p1
    ldw  r4, [r1+8]     ; p2
    ldw  r5, [r1+12]    ; p3
    add  r6, r2, r5     ; s0 = p0+p3
    add  r7, r3, r4     ; s1 = p1+p2
    sub  r8, r2, r5     ; d0 = p0-p3
    sub  r9, r3, r4     ; d1 = p1-p2
    add  r10, r6, r7    ; c0
    sub  r11, r6, r7    ; c2
    movi r12, 1
    sll  r13, r8, r12   ; 2*d0
    add  r13, r13, r9   ; c1 = 2*d0 + d1
    sll  r14, r9, r12
    sub  r14, r8, r14   ; c3 = d0 - 2*d1
    stw  [r1+64], r10
    stw  [r1+68], r13
    stw  [r1+72], r11
    stw  [r1+76], r14
    halt
)";

/// Quantization of 16 coefficients at 0x300 with multiplier/shift.
const char* kQuant16 = R"(
    movi r1, 768        ; coeffs
    movi r2, 0          ; i
    movi r3, 16
    movi r4, 20         ; quant multiplier
    movi r5, 14         ; shift... folded as immediate below
loop:
    ldw  r6, [r1+0]
    abs  r7, r6
    mul  r7, r7, r4
    srli r7, r7, 14
    cmplt r8, r6, r0    ; negative?
    beq  r8, r0, store
    sub  r7, r0, r7     ; restore sign
store:
    stw  [r1+0], r7
    addi r1, r1, 4
    addi r2, r2, 1
    blt  r2, r3, loop
    halt
)";

/// H.264-style edge filter on 4 pixel pairs (p1 p0 | q0 q1) at 0x400 with
/// clipping, conditional on |p0-q0| < alpha.
const char* kDeblockEdge = R"(
    movi r1, 1024       ; pixel base
    movi r2, 0          ; edge index
    movi r3, 4          ; edges
    movi r11, 40        ; alpha
    movi r12, 4         ; beta-ish clip
edge:
    ldb  r4, [r1+0]     ; p1
    ldb  r5, [r1+1]     ; p0
    ldb  r6, [r1+2]     ; q0
    ldb  r7, [r1+3]     ; q1
    sub  r8, r5, r6     ; p0-q0
    abs  r8, r8
    bge  r8, r11, next  ; filter only strong edges
    add  r9, r5, r6     ; p0+q0
    add  r9, r9, r4     ; +p1
    addi r9, r9, 2
    srli r9, r9, 2      ; (p1+p0+q0+2)>>2
    sub  r10, r9, r5    ; delta
    min  r10, r10, r12
    sub  r13, r0, r12
    max  r10, r10, r13  ; clip
    add  r5, r5, r10
    stb  [r1+1], r5
    add  r9, r6, r7
    add  r9, r9, r5
    addi r9, r9, 2
    srli r9, r9, 2
    sub  r10, r9, r6
    min  r10, r10, r12
    max  r10, r10, r13
    add  r6, r6, r10
    stb  [r1+2], r6
next:
    addi r1, r1, 4
    addi r2, r2, 1
    blt  r2, r3, edge
    halt
)";

/// Zig-zag reordering of 16 coefficients via an index table.
const char* kZigzag16 = R"(
    movi r1, 1280       ; src coeffs (words)
    movi r2, 1408       ; index table (bytes)
    movi r3, 1536       ; dst
    movi r4, 0
    movi r5, 16
loop:
    ldb  r6, [r2+0]     ; zig-zag index
    slli r6, r6, 2
    add  r7, r1, r6
    ldw  r8, [r7+0]
    stw  [r3+0], r8
    addi r2, r2, 1
    addi r3, r3, 4
    addi r4, r4, 1
    blt  r4, r5, loop
    halt
)";

/// 6-tap half-pel interpolation (H.264 MC) over 8 output pixels at 0x800:
/// out[i] = clip((in[i-2] - 5 in[i-1] + 20 in[i] + 20 in[i+1] - 5 in[i+2]
///                + in[i+3] + 16) >> 5).
const char* kMcSixtap = R"(
    movi r1, 2048       ; input pixels (bytes), offset +2 for the taps
    movi r2, 2112       ; output
    movi r3, 0          ; i
    movi r4, 8          ; outputs
    movi r14, 20
    movi r15, 5
loop:
    ldb  r5, [r1+0]     ; in[i-2]
    ldb  r6, [r1+1]
    ldb  r7, [r1+2]
    ldb  r8, [r1+3]
    ldb  r9, [r1+4]
    ldb  r10, [r1+5]
    mul  r6, r6, r15
    mul  r7, r7, r14
    mul  r8, r8, r14
    mul  r9, r9, r15
    add  r11, r5, r10
    add  r11, r11, r7
    add  r11, r11, r8
    sub  r11, r11, r6
    sub  r11, r11, r9
    addi r11, r11, 16
    srli r11, r11, 5
    movi r12, 255
    min  r11, r11, r12
    max  r11, r11, r0   ; clip to [0,255]
    stb  [r2+0], r11
    addi r1, r1, 1
    addi r2, r2, 1
    addi r3, r3, 1
    blt  r3, r4, loop
    halt
)";

/// Intra 4x4 DC prediction: mean of 8 neighbour pixels at 0x900, fill the
/// 4x4 block at 0x940.
const char* kIntraDc = R"(
    movi r1, 2304       ; neighbours (bytes)
    movi r10, 0         ; sum
    movi r2, 0
    movi r3, 8
sum:
    ldb  r4, [r1+0]
    add  r10, r10, r4
    addi r1, r1, 1
    addi r2, r2, 1
    blt  r2, r3, sum
    addi r10, r10, 4
    srli r10, r10, 3    ; dc = (sum + 4) >> 3
    movi r1, 2368       ; block
    movi r2, 0
    movi r3, 16
fill:
    stb  [r1+0], r10
    addi r1, r1, 1
    addi r2, r2, 1
    blt  r2, r3, fill
    halt
)";

/// Exp-Golomb-style bit packing of 8 small values at 0xa00 into a bit buffer
/// register (the CAVLC-flavoured bit-twiddling workload).
const char* kBitpack = R"(
    movi r1, 2560       ; values (words)
    movi r10, 0          ; bit buffer
    movi r11, 0         ; bits used
    movi r2, 0
    movi r3, 8
loop:
    ldw  r4, [r1+0]
    andi r4, r4, 15     ; 4-bit symbols
    ; leading-one position by linear scan (bit-serial control work)
    movi r5, 0          ; length
    or   r6, r4, r0
scan:
    beq  r6, r0, emit
    srli r6, r6, 1
    addi r5, r5, 1
    jmp  scan
emit:
    addi r5, r5, 1      ; length+1 bits
    sll  r10, r10, r5
    or   r10, r10, r4
    add  r11, r11, r5
    addi r1, r1, 4
    addi r2, r2, 1
    blt  r2, r3, loop
    stw  [r1+64], r10
    stw  [r1+68], r11
    halt
)";

/// 4-point Hadamard butterfly (SATD inner step) on words at 0x700.
const char* kHadamard4 = R"(
    movi r1, 1792
    ldw  r2, [r1+0]
    ldw  r3, [r1+4]
    ldw  r4, [r1+8]
    ldw  r5, [r1+12]
    add  r6, r2, r3
    sub  r7, r2, r3
    add  r8, r4, r5
    sub  r9, r4, r5
    add  r10, r6, r8
    sub  r11, r6, r8
    add  r12, r7, r9
    sub  r13, r7, r9
    abs  r10, r10
    abs  r11, r11
    abs  r12, r12
    abs  r13, r13
    add  r10, r10, r11
    add  r12, r12, r13
    add  r10, r10, r12  ; satd partial
    stw  [r1+32], r10
    halt
)";

const std::map<std::string, const char*>& sources() {
  static const std::map<std::string, const char*> map = {
      {"sad_4x4", kSad4x4},       {"dct4_row", kDct4Row},
      {"quant_16", kQuant16},     {"deblock_edge", kDeblockEdge},
      {"zigzag_16", kZigzag16},   {"hadamard_4", kHadamard4},
      {"mc_sixtap", kMcSixtap},   {"intra_dc", kIntraDc},
      {"bitpack", kBitpack},
  };
  return map;
}

}  // namespace

std::vector<std::string> kernel_program_names() {
  std::vector<std::string> names;
  names.reserve(sources().size());
  for (const auto& [name, src] : sources()) names.push_back(name);
  return names;
}

const Program& kernel_program(const std::string& name) {
  // Assembled on first use. References stay valid because std::map never
  // relocates its nodes.
  static std::map<std::string, Program> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    const auto src = sources().find(name);
    if (src == sources().end()) {
      throw std::invalid_argument("riscsim: unknown kernel program " + name);
    }
    it = cache.emplace(name, assemble(src->second)).first;
  }
  return it->second;
}

RunResult measure_kernel(const std::string& name, std::uint64_t seed) {
  Cpu cpu;
  Rng rng(seed);
  // Deterministic pseudo-random inputs: pixel bytes everywhere, and a valid
  // zig-zag index table at 0x580 (1408).
  for (std::size_t addr = 0; addr < 4096; ++addr) {
    cpu.memory().write8(addr, static_cast<std::uint8_t>(rng.next_below(256)));
  }
  static constexpr std::uint8_t kZigzagOrder[16] = {
      0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15};
  for (std::size_t i = 0; i < 16; ++i) {
    cpu.memory().write8(1408 + i, kZigzagOrder[i]);
  }
  // Word arrays used by transform kernels: small signed residuals.
  for (std::size_t i = 0; i < 64; ++i) {
    const auto v = static_cast<std::uint32_t>(rng.uniform_int(-64, 64));
    cpu.memory().write32(512 + 4 * i, v);
    cpu.memory().write32(768 + 4 * i, v);
    cpu.memory().write32(1280 + 4 * i, v);
    cpu.memory().write32(1792 + 4 * i, v);
  }
  return cpu.run(kernel_program(name));
}

}  // namespace mrts::riscsim
