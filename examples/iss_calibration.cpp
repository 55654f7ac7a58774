// Sanity check for the latency tables: runs the H.264 kernel micro-programs
// on the core-processor instruction-set simulator (riscsim) and the CG
// context programs on the CG-fabric executor (cgsim), printing the measured
// cycle counts next to the workload model's hand-set latency table. The table
// is not derived from these runs: in the paper its numbers come from
// place-and-route and ASIC synthesis (Section 5.1); here they are set by hand
// in workload/h264_app.cpp, and this program shows they are of the same order
// as real instruction sequences under the published timing parameters. It
// links the `mrts_iss` library.
//
// Usage: ./build/examples/iss_calibration

#include <cstdio>

#include "cgsim/cg_kernel_programs.h"
#include "isa/ise_identify.h"
#include "riscsim/kernel_programs.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/h264_app.h"

using namespace mrts;

int main() {
  // --- RISC-mode micro-programs ---------------------------------------------
  TextTable risc_table(
      {"micro-program", "instructions", "cycles", "CPI", "work items"});
  struct Item {
    const char* program;
    unsigned work_items;  // e.g. pixels or coefficients processed
  };
  const Item items[] = {
      {"sad_4x4", 16},     {"dct4_row", 4},    {"quant_16", 16},
      {"deblock_edge", 4}, {"zigzag_16", 16},  {"hadamard_4", 4},
  };
  for (const auto& item : items) {
    const auto r = riscsim::measure_kernel(item.program);
    risc_table.add_values(
        item.program, r.instructions, r.cycles,
        static_cast<double>(r.cycles) / static_cast<double>(r.instructions),
        item.work_items);
  }
  std::printf("Core processor (LEON-like, 400 MHz) micro-program "
              "measurements:\n%s",
              risc_table.render().c_str());

  // --- CG context programs --------------------------------------------------
  TextTable cg_table({"context program", "instructions (dyn)", "cycles",
                      "context bytes", "stream time [us]"});
  for (const auto& name : cgsim::cg_kernel_program_names()) {
    const auto& program = cgsim::cg_kernel_program(name);
    const auto r = cgsim::measure_cg_kernel(name);
    // Streaming into the context memory costs 2 cycles per 80-bit
    // instruction (Section 5.1).
    const double stream_us =
        static_cast<double>(program.code.size()) * 2.0 / kCoreClockHz * 1e6;
    cg_table.add_values(name, r.instructions, r.cycles,
                        program.stream_bytes(), format_double(stream_us, 3));
  }
  std::printf("\nCG fabric (400 MHz, 80-bit instructions, zero-overhead "
              "loops) context-program measurements:\n%s",
              cg_table.render().c_str());

  // --- relate to the workload model's latency table -------------------------
  const H264Application app = build_h264_application({});
  TextTable model({"kernel", "model RISC latency", "note"});
  struct Pair {
    const char* kernel;
    const char* note;
  };
  const Pair pairs[] = {
      {"SAD", "≈ sad_4x4 per 4x4 sub-block x 16 sub-blocks / search step"},
      {"DCT4", "≈ dct4_row x 8 rows+cols per 4x4 block batch"},
      {"QUANT", "≈ quant_16 x blocks per macroblock partition"},
      {"LF_FILTER", "≈ deblock_edge x edges per filtering call"},
      {"SCAN", "≈ zigzag_16 per coded block"},
      {"SATD", "≈ hadamard_4 x 2 stages x rows + SAD tree"},
  };
  for (const auto& p : pairs) {
    const Kernel& k = app.library.kernel(app.library.find_kernel(p.kernel));
    model.add_values(p.kernel, k.sw_latency, p.note);
  }
  std::printf("\nWorkload-model latency table (per kernel execution):\n%s",
              model.render().c_str());
  std::printf("\nThe model's few-hundred-cycle kernel latencies correspond "
              "to small batches of the measured micro-programs; the CG "
              "programs process a work item in ~6-10 cycles vs ~20-40 on the "
              "core, matching the CG-ISE speedups of the ISE library.\n");

  // --- automatic ISE identification ----------------------------------------
  // Closing the loop: profile each micro-program and derive an ISE build
  // specification (the toy version of the paper's compile-time tool chain).
  TextTable ident({"micro-program", "sw cycles", "ctrl fraction",
                   "FG ctrl speedup", "CG data speedup", "variants"});
  for (const auto& item : items) {
    riscsim::Cpu cpu;
    Rng rng(7);
    for (std::size_t addr = 0; addr < 2048; ++addr) {
      cpu.memory().write8(addr,
                          static_cast<std::uint8_t>(rng.next_below(256)));
    }
    const IseBuildSpec spec = identify_ise_spec(
        item.program, riscsim::kernel_program(item.program), cpu);
    IseLibrary lib;
    const KernelId k = build_kernel_ises(lib, spec);
    ident.add_values(item.program, spec.sw_latency,
                     format_double(spec.control_fraction, 2),
                     format_double(spec.fg_control_speedup, 1),
                     format_double(spec.cg_data_speedup, 1),
                     lib.kernel(k).ises.size());
  }
  std::printf("\nAutomatically identified ISE specifications (profile -> "
              "IseBuildSpec -> variant family):\n%s",
              ident.render().c_str());
  return 0;
}
