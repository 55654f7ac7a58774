#pragma once
/// \file mrts.h
/// Umbrella header: the whole public API of the mRTS library.
/// Fine-grained includes (e.g. "rts/mrts.h") keep compile times lower; this
/// header is for quick starts and example code. The instruction-set
/// simulators (riscsim, cgsim, sim/iss_bridge.h, isa/ise_identify.h) live in
/// the separate `mrts_iss` library (CMake target `mrts::iss`) and are
/// included one header at a time.

// Architecture model
#include "arch/cg_fabric.h"
#include "arch/data_path.h"
#include "arch/fabric_manager.h"
#include "arch/fg_fabric.h"
#include "arch/interconnect.h"
#include "arch/reconfig_controller.h"
#include "arch/scratchpad.h"
#include "arch/tenant.h"

// ISE model
#include "isa/ise.h"
#include "isa/ise_builder.h"
#include "isa/ise_library.h"
#include "isa/kernel.h"
#include "isa/library_io.h"
#include "isa/trigger.h"

// Run-time systems
#include "baselines/morpheus4s_rts.h"
#include "baselines/offline_optimal_rts.h"
#include "baselines/rispp_rts.h"
#include "baselines/risc_only_rts.h"
#include "rts/ecu.h"
#include "rts/migration.h"
#include "rts/mpu.h"
#include "rts/mrts.h"
#include "rts/snapshot.h"
#include "rts/profit.h"
#include "rts/reconfig_plan.h"
#include "rts/rts_interface.h"
#include "rts/selector_heuristic.h"
#include "rts/selector_optimal.h"

// Simulation & workloads
#include "sim/app_simulator.h"
#include "sim/arbiter.h"
#include "sim/cmp.h"
#include "sim/energy.h"
#include "sim/fb_simulator.h"
#include "sim/machine.h"
#include "sim/metrics.h"
#include "sim/multi_app.h"
#include "sim/schedule.h"
#include "workload/content_model.h"
#include "workload/deblocking_case_study.h"
#include "workload/h264_app.h"
#include "workload/sdr_app.h"
#include "workload/workload_gen.h"

// Observability (flight recorder + counters + trace analysis)
#include "obs/analysis.h"
#include "obs/critical_path.h"
#include "obs/cycle_accounting.h"
#include "obs/occupancy.h"
#include "obs/report_io.h"
#include "obs/run_report.h"
#include "util/counters.h"
#include "util/trace.h"
