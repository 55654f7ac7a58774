#include "cgsim/cg_kernel_programs.h"

#include <map>
#include <stdexcept>

#include "cgsim/cg_assembler.h"
#include "util/rng.h"

namespace mrts::cgsim {
namespace {

/// SAD over 16 pixel pairs: words at 0x000 (a) and 0x100 (b), result r10.
const char* kSimdAbsdiff = R"(
    movi r1, 0
    movi r2, 256
    movi r10, 0
    loop 16
      ld   r3, [r1+0]
      ld   r4, [r2+0]
      sub  r3, r3, r4
      abs  r3, r3
      add  r10, r10, r3
      addi r1, r1, 4
      addi r2, r2, 4
    endl
    halt
)";

/// Four 4-point butterflies (one 4x4 transform stage), words at 0x200.
const char* kButterfly4 = R"(
    movi r1, 512
    loop 4
      ld   r2, [r1+0]
      ld   r3, [r1+4]
      ld   r4, [r1+8]
      ld   r5, [r1+12]
      add  r6, r2, r5
      add  r7, r3, r4
      sub  r8, r2, r5
      sub  r9, r3, r4
      add  r10, r6, r7
      sub  r11, r6, r7
      shli r12, r8, 1
      add  r12, r12, r9
      shli r13, r9, 1
      sub  r13, r8, r13
      st   [r1+0], r10
      st   [r1+4], r12
      st   [r1+8], r11
      st   [r1+12], r13
      addi r1, r1, 16
    endl
    halt
)";

/// Deblocking filter taps on 8 edges: 4 words per edge at 0x400
/// (p1 p0 q0 q1), filtered p0/q0 written back.
const char* kFilterMac = R"(
    movi r1, 1024
    movi r12, 4         ; clip bound
    movi r13, -4
    loop 8
      ld   r4, [r1+0]   ; p1
      ld   r5, [r1+4]   ; p0
      ld   r6, [r1+8]   ; q0
      ld   r7, [r1+12]  ; q1
      add  r8, r4, r5
      add  r8, r8, r6
      addi r8, r8, 2
      shri r8, r8, 2
      sub  r9, r8, r5
      min  r9, r9, r12
      max  r9, r9, r13
      add  r5, r5, r9
      st   [r1+4], r5
      add  r8, r7, r6
      add  r8, r8, r5
      addi r8, r8, 2
      shri r8, r8, 2
      sub  r9, r8, r6
      min  r9, r9, r12
      max  r9, r9, r13
      add  r6, r6, r9
      st   [r1+8], r6
      addi r1, r1, 16
    endl
    halt
)";

/// 6-tap interpolation via multiply-accumulate over 8 outputs; inputs are
/// words at 0x000, outputs at 0x300. The MAC path and zero-overhead loop are
/// exactly what the CG fabric is built for.
const char* kSixtapMac = R"(
    movi r1, 0          ; input words
    movi r2, 768        ; output
    movi r20, 1
    movi r21, -5
    movi r22, 20
    loop 8
      movi r10, 16      ; rounding bias
      ld   r3, [r1+0]
      mac  r10, r3, r20
      ld   r3, [r1+4]
      mac  r10, r3, r21
      ld   r3, [r1+8]
      mac  r10, r3, r22
      ld   r3, [r1+12]
      mac  r10, r3, r22
      ld   r3, [r1+16]
      mac  r10, r3, r21
      ld   r3, [r1+20]
      mac  r10, r3, r20
      shri r10, r10, 5
      st   [r2+0], r10
      addi r1, r1, 4
      addi r2, r2, 4
    endl
    halt
)";

/// Viterbi-style add-compare-select over 8 trellis states: metrics at 0x400,
/// branch metrics in registers, survivors written back.
const char* kAcsMin = R"(
    movi r1, 1024       ; path metrics (words)
    movi r20, 3         ; branch metric 0
    movi r21, 7         ; branch metric 1
    loop 8
      ld   r2, [r1+0]
      ld   r3, [r1+4]
      add  r2, r2, r20
      add  r3, r3, r21
      min  r4, r2, r3
      st   [r1+0], r4
      addi r1, r1, 4
    endl
    halt
)";

/// Quantization multiply-shift over 16 coefficients at 0x600.
const char* kQuantMulshift = R"(
    movi r1, 1536
    movi r4, 20
    loop 16
      ld   r2, [r1+0]
      abs  r3, r2
      mul  r3, r3, r4
      shri r3, r3, 14
      st   [r1+0], r3
      addi r1, r1, 4
    endl
    halt
)";

const std::map<std::string, const char*>& sources() {
  static const std::map<std::string, const char*> map = {
      {"simd_absdiff", kSimdAbsdiff},
      {"butterfly4", kButterfly4},
      {"filter_mac", kFilterMac},
      {"quant_mulshift", kQuantMulshift},
      {"sixtap_mac", kSixtapMac},
      {"acs_min", kAcsMin},
  };
  return map;
}

}  // namespace

std::vector<std::string> cg_kernel_program_names() {
  std::vector<std::string> names;
  names.reserve(sources().size());
  for (const auto& [name, src] : sources()) names.push_back(name);
  return names;
}

const CgContextProgram& cg_kernel_program(const std::string& name) {
  // Assembled on first use. References stay valid because std::map never
  // relocates its nodes.
  static std::map<std::string, CgContextProgram> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    const auto src = sources().find(name);
    if (src == sources().end()) {
      throw std::invalid_argument("cgsim: unknown kernel program " + name);
    }
    it = cache.emplace(name, cg_assemble(name, src->second)).first;
  }
  return it->second;
}

CgRunResult measure_cg_kernel(const std::string& name, std::uint64_t seed) {
  CgExecutor exec;
  Rng rng(seed);
  for (std::size_t i = 0; i < 512; ++i) {
    exec.memory().write32(
        4 * i, static_cast<std::uint32_t>(rng.uniform_int(0, 255)));
  }
  return exec.run(cg_kernel_program(name));
}

}  // namespace mrts::cgsim
