// Two tasks sharing one reconfigurable processor — the "available fabric
// shared among various tasks" scenario of Section 1, which compile-time
// selection schemes cannot handle. An H.264 encoder and an AES-like crypto
// task time-share the core (round-robin, one functional block per slice);
// each task's own MRts instance is bound to the SAME FabricManager, so one
// task's installation evicts the other's data paths and every selection
// runs against whatever the fabric currently holds.
//
// Usage: ./build/examples/multi_task_sharing

#include <cstdio>

#include "baselines/risc_only_rts.h"
#include "isa/ise_builder.h"
#include "rts/mrts.h"
#include "sim/app_simulator.h"
#include "sim/metrics.h"
#include "sim/multi_app.h"
#include "util/table.h"
#include "workload/workload_gen.h"

using namespace mrts;

namespace {

/// The crypto task: an AES-like round kernel, 10 work batches.
void add_crypto_task(IseLibrary& library, ApplicationTrace& trace,
                     unsigned batches) {
  IseBuildSpec aes;
  aes.kernel_name = "AES_ROUND";
  aes.sw_latency = 1400;
  aes.control_fraction = 0.55;
  aes.fg_control_speedup = 14.0;
  aes.cg_data_speedup = 4.5;
  aes.fg_data_path_names = {"sbox_fg", "shiftrows_fg"};
  aes.cg_data_path_names = {"mixcol_mac_cg"};
  aes.fg_control_dps = 1;
  aes.cg_data_dps = 1;
  const KernelId kernel = build_kernel_ises(library, aes);

  Rng rng(99);
  trace.name = "crypto";
  for (unsigned b = 0; b < batches; ++b) {
    FunctionalBlockInstance inst = make_block_instance(
        FunctionalBlockId{10}, /*macroblocks=*/800,
        {{kernel, 4.0, 40, 0.15}}, /*entry_gap=*/500, /*tail_gap=*/500, rng);
    stamp_programmed_trigger(inst, library);
    trace.blocks.push_back(std::move(inst));
  }
}

/// The "video" task in the same library: a deblocking-like filter kernel.
void add_video_task(IseLibrary& library, ApplicationTrace& trace,
                    unsigned frames) {
  IseBuildSpec lf;
  lf.kernel_name = "FILTER";
  lf.sw_latency = 560;
  lf.control_fraction = 0.40;
  lf.fg_data_path_names = {"filt_ctrl_fg", "filt_taps_fg"};
  lf.cg_data_path_names = {"filt_mac_cg"};
  lf.fg_control_dps = 1;
  lf.cg_data_dps = 1;
  const KernelId filter = build_kernel_ises(library, lf);

  IseBuildSpec cond;
  cond.kernel_name = "COND";
  cond.sw_latency = 340;
  cond.control_fraction = 0.9;
  cond.fg_data_path_names = {"cond_bs_fg"};
  cond.cg_data_path_names = {"cond_mask_cg"};
  const KernelId condition = build_kernel_ises(library, cond);

  Rng rng(7);
  trace.name = "video";
  for (unsigned f = 0; f < frames; ++f) {
    // Per-frame workload variation, as in the H.264 model.
    const double level = 0.4 + 0.3 * ((f * 2654435761u) % 100) / 100.0;
    FunctionalBlockInstance inst = make_block_instance(
        FunctionalBlockId{0}, /*macroblocks=*/396,
        {{condition, 4.0 + 8.0 * level, 13, 0.15},
         {filter, 6.0 + 12.0 * level, 22, 0.15}},
        400, 400, rng);
    stamp_programmed_trigger(inst, library);
    trace.blocks.push_back(std::move(inst));
  }
}

Cycles risc_cycles(const IseLibrary& library, const ApplicationTrace& trace) {
  RiscOnlyRts rts(library);
  return run_application(rts, trace).total_cycles;
}

}  // namespace

int main() {
  // Both tasks' ISE libraries live in one combined library (one data-path
  // namespace = one physical fabric).
  IseLibrary library;
  ApplicationTrace video;
  ApplicationTrace crypto;
  add_video_task(library, video, /*frames=*/10);
  add_crypto_task(library, crypto, /*batches=*/10);

  const Cycles video_risc = risc_cycles(library, video);
  const Cycles crypto_risc = risc_cycles(library, crypto);

  // --- each task alone on the 2 PRC + 2 CG fabric --------------------------
  MRts alone_video(library, 2, 2);
  const Cycles video_alone = run_application(alone_video, video).total_cycles;
  MRts alone_crypto(library, 2, 2);
  const Cycles crypto_alone =
      run_application(alone_crypto, crypto).total_cycles;

  // --- both tasks sharing the fabric ----------------------------------------
  FabricManager shared(2, 2, &library.data_paths());
  MRts rts_video(library, shared);
  MRts rts_crypto(library, shared);
  const MultiTenantResult shared_run = run_multi_tenant(
      {{"video", &rts_video, &video}, {"crypto", &rts_crypto, &crypto}});

  TextTable table({"task", "RISC [Mcyc]", "alone [Mcyc]", "alone speedup",
                   "shared [Mcyc]", "shared speedup"});
  table.add_values("video", format_mcycles(video_risc),
                   format_mcycles(video_alone),
                   speedup(video_risc, video_alone),
                   format_mcycles(shared_run.tasks[0].run.active_cycles),
                   speedup(video_risc, shared_run.tasks[0].run.active_cycles));
  table.add_values("crypto", format_mcycles(crypto_risc),
                   format_mcycles(crypto_alone),
                   speedup(crypto_risc, crypto_alone),
                   format_mcycles(shared_run.tasks[1].run.active_cycles),
                   speedup(crypto_risc, shared_run.tasks[1].run.active_cycles));
  std::printf("Two tasks on one 2 PRC + 2 CG reconfigurable processor "
              "(round-robin per functional block):\n%s",
              table.render().c_str());

  const Cycles risc_total = video_risc + crypto_risc;
  std::printf("\nCombined timeline: %s Mcycles vs %s Mcycles all-RISC "
              "(%.2fx).\n",
              format_mcycles(shared_run.total_cycles).c_str(),
              format_mcycles(risc_total).c_str(),
              speedup(risc_total, shared_run.total_cycles));
  std::printf("Sharing costs each task some speedup (the other task's "
              "installations evict data paths and occupy the FG "
              "reconfiguration port), but both stay well above RISC mode — "
              "the run-time selection adapts to whatever fabric is left.\n");
  return 0;
}
