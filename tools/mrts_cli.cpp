// mrts_cli — command-line driver for the mRTS library: library inspection,
// one-shot ISE selection, whole-application runs under every run-time system
// (with tracing, run reports, fault injection and checkpoint/restore),
// multi-tenant and CMP runs, and trace analysis.
//
// Every verb, positional and flag is one row of the CliSpec table below
// (util/cli_spec.h): the table parses argv, checks every value and renders
// `mrts_cli --help` / `mrts_cli <verb> --help`. docs/CLI.md describes each
// verb in prose.
//
// Exit code 0 on success, 1 on usage errors (unknown verb or flag, repeated
// or valueless flag, wrong argument count), 2 on input/runtime errors
// (malformed values, unreadable files, bad content).

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mrts.h"
#include "util/cli_spec.h"
#include "util/fastpath.h"
#include "util/table.h"

namespace {

using namespace mrts;

const CliSpec& cli_spec();

int cmd_info(const CliArgs& args) {
  const IseLibrary lib = load_library(args.positionals[0]);
  std::printf("%zu data paths, %zu kernels, %zu ISE variants\n\n",
              lib.data_paths().size(), lib.num_kernels(), lib.num_ises());
  TextTable table({"kernel", "sw cycles", "variant", "PRCs", "CG",
                   "full latency", "speedup", "reconfig [ms]"});
  for (const auto& kernel : lib.kernels()) {
    auto add = [&](IseId id) {
      const IseVariant& v = lib.ise(id);
      table.add_values(
          kernel.name, kernel.sw_latency, v.name, v.fg_units, v.cg_units,
          v.full_latency(), speedup(v.risc_latency(), v.full_latency()),
          format_double(
              cycles_to_ms(v.worst_case_reconfig_cycles(lib.data_paths())),
              3));
    };
    for (IseId id : kernel.ises) add(id);
    if (kernel.has_mono_cg()) add(kernel.mono_cg);
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

/// Strict parser for the value part of a `KERNEL=e[,tf,tb]` trigger spec.
/// Every token must parse in full: `1.5x`, `inf`, `nan`, empty tokens and
/// negative counts are input errors (exit 2), never silently truncated.
bool parse_trigger_values(const std::string& text, TriggerEntry* entry) {
  std::vector<std::string> tokens;
  std::size_t begin = 0;
  while (true) {
    const std::size_t comma = text.find(',', begin);
    tokens.push_back(text.substr(begin, comma - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  if (tokens.size() > 3) return false;
  const std::string& e_text = tokens[0];
  const char* e_end = e_text.data() + e_text.size();
  double e = 0.0;
  const auto [ptr, ec] = std::from_chars(e_text.data(), e_end, e);
  if (e_text.empty() || ec != std::errc{} || ptr != e_end ||
      !std::isfinite(e) || e < 0.0) {
    return false;
  }
  entry->expected_executions = e;
  return (tokens.size() < 2 ||
          parse_count(tokens[1], 0, kCliMaxCount, &entry->time_to_first)) &&
         (tokens.size() < 3 ||
          parse_count(tokens[2], 0, kCliMaxCount, &entry->time_between));
}

int cmd_select(const CliArgs& args) {
  const IseLibrary lib = load_library(args.positionals[0]);
  TriggerInstruction ti;
  ti.functional_block = FunctionalBlockId{0};
  for (std::size_t i = 3; i < args.positionals.size(); ++i) {
    const std::string& spec = args.positionals[i];
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad trigger entry '%s' (expected KERNEL=e[,tf,tb])\n",
                   spec.c_str());
      return 2;
    }
    const KernelId k = lib.find_kernel(spec.substr(0, eq));
    if (k == kInvalidKernel) {
      std::fprintf(stderr, "unknown kernel '%s'\n",
                   spec.substr(0, eq).c_str());
      return 2;
    }
    TriggerEntry entry;
    entry.kernel = k;
    entry.time_to_first = 500;
    entry.time_between = 100;
    if (!parse_trigger_values(spec.substr(eq + 1), &entry)) {
      std::fprintf(stderr,
                   "bad trigger entry '%s' (expected KERNEL=e[,tf,tb] with "
                   "finite non-negative numbers)\n",
                   spec.c_str());
      return 2;
    }
    ti.entries.push_back(entry);
  }

  const HeuristicSelector selector(lib);
  ReconfigPlanner planner(lib.data_paths(),
                          static_cast<unsigned>(args["prcs"].count),
                          static_cast<unsigned>(args["cg"].count), 0);
  std::string trace;
  const SelectionResult result =
      selector.select_with_trace(ti, planner, trace);
  std::printf("%s\n", trace.c_str());
  std::printf("selected %zu ISE(s), total expected profit %.0f cycles, "
              "selection overhead ~%llu cycles\n",
              result.selected.size(), result.total_profit,
              static_cast<unsigned long long>(result.overhead_cycles));
  return 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void print_counters(const CounterRegistry& counters) {
  if (counters.counters().empty() && counters.histograms().empty()) return;
  std::printf("\nmRTS counters:\n");
  TextTable table({"counter", "value"});
  for (const auto& [name, value] : counters.counters()) {
    table.add_values(name, value);
  }
  std::printf("%s", table.render().c_str());
  if (!counters.histograms().empty()) {
    TextTable hist({"histogram", "count", "mean", "min", "max"});
    for (const auto& [name, h] : counters.histograms()) {
      hist.add_values(name, h.count(), format_double(h.mean(), 2),
                      format_double(h.min(), 2), format_double(h.max(), 2));
    }
    std::printf("%s", hist.render().c_str());
  }
}

/// One built-in workload, owning storage selected by build_workload.
struct Workload {
  IseLibrary const* lib = nullptr;
  ApplicationTrace const* trace = nullptr;
  H264Application h264;
  SdrApplication sdr;
};

bool build_workload(const std::string& which, unsigned frames, Workload* w) {
  if (which == "h264") {
    H264AppParams params;
    params.frames = frames;
    w->h264 = build_h264_application(params);
    w->lib = &w->h264.library;
    w->trace = &w->h264.trace;
    return true;
  }
  if (which == "sdr") {
    SdrAppParams params;
    params.bursts = frames;
    w->sdr = build_sdr_application(params);
    w->lib = &w->sdr.library;
    w->trace = &w->sdr.trace;
    return true;
  }
  return false;
}

/// The `run` comparison, shared with `restore`: every run parameter comes
/// from the CheckpointMeta (the `run` verb builds one from its arguments,
/// `restore` decodes one from the snapshot), so a resumed run replays the
/// exact same code path — byte-identical stdout, trace and report. With
/// \p resume set, the mRTS leg continues from the snapshot instead of
/// starting fresh; the (deterministic) baselines simply re-run.
int run_compare(const CheckpointMeta& meta,
                const std::vector<std::uint8_t>* resume) {
  Workload w;
  if (!build_workload(meta.app, meta.frames, &w)) return cli_spec().usage();
  const IseLibrary* lib = w.lib;
  const ApplicationTrace* trace = w.trace;

  RiscOnlyRts risc(*lib);
  const AppRunResult risc_run = run_application(risc, *trace);
  const auto profile = profile_application(*trace, *lib);

  const bool traced = !meta.trace_path.empty();
  // --report needs the event stream too; the recorder stays in memory when
  // only a report was asked for.
  const bool instrument = traced || !meta.report_path.empty();
  TraceRecorder recorder;
  CounterRegistry counters;

  TextTable table({"run-time system", "Mcycles", "speedup"});
  // Every system runs through the uniform RuntimeSystem lifecycle API:
  // attach_observability is a base-interface call (default no-op for systems
  // without instrumentation), so no concrete-type special casing is needed.
  auto report = [&](RuntimeSystem& rts, bool instrument = false) {
    if (instrument) rts.attach_observability(&recorder, &counters);
    const AppRunResult r =
        run_application(rts, *trace, instrument ? &recorder : nullptr);
    table.add_values(r.rts_name, format_mcycles(r.total_cycles),
                     speedup(risc_run.total_cycles, r.total_cycles));
  };
  report(risc);

  MRtsConfig mrts_config;
  mrts_config.fault = meta.fault;  // baselines stay fault-free for comparison
  // Private-tenancy machine (sim/machine.h): performs the legacy
  // `MRts(lib, cg, prcs, config)` construction and owns the attach ordering.
  MachineConfig machine_config;
  machine_config.prcs = meta.prcs;
  machine_config.cg_fabrics = meta.cg;
  Machine machine(*lib, machine_config);
  machine.add_rts(mrts_config);
  MRts& mrts_rts = machine.mrts(0);
  // The mRTS leg runs resumably: restored from the snapshot when resuming,
  // stopped at every absolute N-cycle boundary when checkpointing. The
  // checkpoint grid is a pure function of the cycle cursor, so a run that is
  // killed and restored (even repeatedly) still checkpoints at the same
  // cycles and converges to the same final state.
  if (instrument) machine.attach_observability(&recorder, &counters);
  TraceRecorder* rec = instrument ? &recorder : nullptr;
  CounterRegistry* ctr = instrument ? &counters : nullptr;
  AppRunProgress progress;
  std::uint64_t sequence = 0;
  if (resume != nullptr) {
    apply_snapshot(*resume, mrts_rts, progress, rec, ctr);
    sequence = meta.sequence;
  }
  if (meta.checkpoint_every > 0) {
    while (true) {
      const Cycles stop = (progress.cursor / meta.checkpoint_every + 1) *
                          meta.checkpoint_every;
      if (run_application_portion(mrts_rts, *trace, progress, rec, stop)) {
        break;
      }
      ++sequence;
      // The save marker goes in *before* the image is built so the snapshot
      // contains its own marker: a restore from checkpoint k then replays
      // markers 1..k and the trace stays identical to the uninterrupted run.
      if (rec != nullptr) {
        rec->record({TraceEventKind::kSnapshotSave, kTrackApp, progress.cursor,
                     0, static_cast<std::uint32_t>(sequence), 0, 0.0, 0.0});
      }
      CheckpointMeta snap_meta = meta;
      snap_meta.sequence = sequence;
      const std::vector<std::uint8_t> bytes =
          build_snapshot(snap_meta, mrts_rts, progress, rec, ctr);
      if (!write_snapshot_file(meta.checkpoint_path, bytes)) {
        std::fprintf(stderr, "error: cannot write checkpoint file '%s'\n",
                     meta.checkpoint_path.c_str());
        return 2;
      }
    }
  } else {
    run_application_portion(mrts_rts, *trace, progress, rec);
  }
  table.add_values(progress.partial.rts_name,
                   format_mcycles(progress.partial.total_cycles),
                   speedup(risc_run.total_cycles,
                           progress.partial.total_cycles));

  RisppRts rispp(*lib, meta.cg, meta.prcs);
  report(rispp);
  Morpheus4sRts morpheus(*lib, meta.cg, meta.prcs, profile);
  report(morpheus);
  OfflineOptimalRts offline(*lib, meta.cg, meta.prcs, profile);
  report(offline);

  std::printf("%s on %u PRCs + %u CG fabrics, %u frames/bursts:\n%s",
              meta.app.c_str(), meta.prcs, meta.cg, meta.frames,
              table.render().c_str());

  if (mrts_rts.fault_model() != nullptr) {
    const FaultStats& fs = mrts_rts.fault_model()->stats();
    std::printf(
        "\nfault injection (mRTS run only): seed %llu, %llu fault(s) "
        "injected\n"
        "  load CRC failures %llu, retries %llu, abandoned loads %llu\n"
        "  transient upsets %llu, scrub repairs %llu, quarantined PRCs %llu, "
        "quarantined CG %llu\n",
        static_cast<unsigned long long>(meta.fault.seed),
        static_cast<unsigned long long>(fs.injected),
        static_cast<unsigned long long>(fs.load_failures),
        static_cast<unsigned long long>(fs.retries),
        static_cast<unsigned long long>(fs.failed_loads),
        static_cast<unsigned long long>(fs.transient_upsets),
        static_cast<unsigned long long>(fs.scrub_repairs),
        static_cast<unsigned long long>(fs.quarantined_prcs),
        static_cast<unsigned long long>(fs.quarantined_cg));
  }

  if (meta.checkpoint_every > 0) {
    // `sequence` counts the run's whole checkpoint stream (a resumed run
    // continues the numbering from the snapshot), so interrupted and
    // uninterrupted runs print the same total.
    std::printf("\ncheckpoint stream: %llu snapshot(s) every %llu cycles -> "
                "%s\n",
                static_cast<unsigned long long>(sequence),
                static_cast<unsigned long long>(meta.checkpoint_every),
                meta.checkpoint_path.c_str());
  }

  if (traced) {
    const bool jsonl = ends_with(meta.trace_path, ".jsonl");
    const bool ok =
        jsonl ? write_trace_jsonl_file(meta.trace_path, recorder.events(), lib)
              : write_chrome_trace_file(meta.trace_path, recorder.events(),
                                        lib);
    if (!ok) {
      std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                   meta.trace_path.c_str());
      return 2;
    }
    std::printf("\nwrote %zu trace events to %s (%s)\n", recorder.size(),
                meta.trace_path.c_str(),
                jsonl ? "JSON Lines" : "Chrome trace-event JSON");
    print_counters(counters);
  }
  if (!meta.report_path.empty()) {
    obs::AnalysisConfig config;
    config.num_prcs = meta.prcs;
    config.num_cg = meta.cg;
    const obs::RunReport run_report =
        obs::analyze_trace(recorder.events(), config);
    if (!obs::write_report_file(meta.report_path, run_report)) {
      std::fprintf(stderr, "error: cannot write report file '%s'\n",
                   meta.report_path.c_str());
      return 2;
    }
    std::printf("\nwrote run report (%zu events analyzed) to %s\n",
                run_report.total_events, meta.report_path.c_str());
  }
  return 0;
}

/// The run parameters the `run` and `checkpoint` verbs share.
CheckpointMeta run_meta(const CliArgs& args) {
  if (args["--no-bb-cache"].given) set_fastpath_enabled(false);
  CheckpointMeta meta;
  meta.app = args.positionals[0];
  meta.prcs = static_cast<unsigned>(args["prcs"].count);
  meta.cg = static_cast<unsigned>(args["cg"].count);
  meta.frames = static_cast<unsigned>(args["frames"].count);
  const double fault_rate = args["--fault-rate"].probability;
  if (fault_rate > 0.0) {  // default meta.fault: fault-free
    meta.fault = FaultModelConfig::uniform(
        fault_rate, args["--fault-seed"].count,
        static_cast<unsigned>(args["--max-retries"].count));
  }
  meta.trace_path = args["--trace"].text;
  meta.report_path = args["--report"].text;
  return meta;
}

int cmd_run(const CliArgs& args) {
  // --checkpoint-every and --checkpoint come as a pair.
  if (args["--checkpoint-every"].given != args["--checkpoint"].given) {
    return cli_spec().usage();
  }
  CheckpointMeta meta = run_meta(args);
  meta.checkpoint_every = args["--checkpoint-every"].count;
  meta.checkpoint_path = args["--checkpoint"].text;
  return run_compare(meta, nullptr);
}

/// The `checkpoint` verb: run only the mRTS leg up to --at-cycle and write a
/// one-shot snapshot. No baselines run and no save marker is recorded — the
/// later `restore` then produces output byte-identical to a plain `run`
/// (the crash-soak check diffs exactly that).
int cmd_checkpoint(const CliArgs& args) {
  if (!args["--at-cycle"].given || !args["--out"].given) {
    return cli_spec().usage();
  }
  CheckpointMeta meta = run_meta(args);
  meta.checkpoint_path = args["--out"].text;
  const Cycles at_cycle = args["--at-cycle"].count;
  Workload w;
  if (!build_workload(meta.app, meta.frames, &w)) return cli_spec().usage();

  const bool instrument =
      !meta.trace_path.empty() || !meta.report_path.empty();
  TraceRecorder recorder;
  CounterRegistry counters;
  MRtsConfig mrts_config;
  mrts_config.fault = meta.fault;
  MachineConfig machine_config;
  machine_config.prcs = meta.prcs;
  machine_config.cg_fabrics = meta.cg;
  Machine machine(*w.lib, machine_config);
  machine.add_rts(mrts_config);
  MRts& rts = machine.mrts(0);
  if (instrument) machine.attach_observability(&recorder, &counters);

  AppRunProgress progress;
  if (run_application_portion(rts, *w.trace, progress,
                              instrument ? &recorder : nullptr, at_cycle)) {
    std::fprintf(stderr,
                 "error: run completed at cycle %llu, before --at-cycle %llu; "
                 "nothing left to checkpoint\n",
                 static_cast<unsigned long long>(progress.cursor),
                 static_cast<unsigned long long>(at_cycle));
    return 2;
  }
  const std::vector<std::uint8_t> bytes =
      build_snapshot(meta, rts, progress, instrument ? &recorder : nullptr,
                     instrument ? &counters : nullptr);
  if (!write_snapshot_file(meta.checkpoint_path, bytes)) {
    std::fprintf(stderr, "error: cannot write snapshot file '%s'\n",
                 meta.checkpoint_path.c_str());
    return 2;
  }
  std::printf("checkpointed %s at cycle %llu (block %zu/%zu) to %s "
              "(%zu bytes)\n",
              meta.app.c_str(),
              static_cast<unsigned long long>(progress.cursor),
              progress.next_block, w.trace->blocks.size(),
              meta.checkpoint_path.c_str(), bytes.size());
  return 0;
}

/// One `NAME=POLICY[:ARG][@PRIO]` task spec of the run-multi verb.
struct TaskSpec {
  std::string name;
  TenantPolicy policy;
};

/// parse_count into one of TenantPolicy's unsigned fields.
bool parse_bounded(const std::string& s, std::uint64_t max, unsigned* out) {
  std::uint64_t v = 0;
  if (!parse_count(s, 0, max, &v)) return false;
  *out = static_cast<unsigned>(v);
  return true;
}

/// Parses a run-multi task spec. Malformed specs are input errors (exit 2):
/// the caller prints \p err and bails, nothing is silently defaulted.
bool parse_task_spec(const std::string& spec, TaskSpec* out,
                     std::string* err) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    *err = "expected NAME=POLICY[:ARG][@PRIO]";
    return false;
  }
  out->name = spec.substr(0, eq);
  std::string rest = spec.substr(eq + 1);

  const std::size_t at = rest.find('@');
  if (at != std::string::npos) {
    if (!parse_bounded(rest.substr(at + 1), 1000000, &out->policy.priority)) {
      *err = "bad priority '" + rest.substr(at + 1) +
             "' (expected an integer in [0,1000000])";
      return false;
    }
    rest = rest.substr(0, at);
  }

  const std::size_t colon = rest.find(':');
  const std::string policy = rest.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? "" : rest.substr(colon + 1);
  if (policy == "weighted") {
    out->policy.share = TenantShare::kWeighted;
    out->policy.weight = 1;
    if (!arg.empty() && !parse_bounded(arg, 1000, &out->policy.weight)) {
      *err = "bad weight '" + arg + "' (expected an integer in [0,1000])";
      return false;
    }
    if (out->policy.weight == 0) {
      *err = "weighted tenants need a weight >= 1";
      return false;
    }
  } else if (policy == "reserved") {
    out->policy.share = TenantShare::kReserved;
    const std::size_t plus = arg.find('+');
    if (plus == std::string::npos ||
        !parse_bounded(arg.substr(0, plus), 1000, &out->policy.reserved_prcs) ||
        !parse_bounded(arg.substr(plus + 1), 1000, &out->policy.reserved_cg)) {
      *err = "bad reservation '" + arg + "' (expected <prcs>+<cg>, e.g. 2+1)";
      return false;
    }
    if (out->policy.reserved_prcs + out->policy.reserved_cg == 0) {
      *err = "reserved tenants need a non-empty reservation";
      return false;
    }
  } else if (policy == "best-effort") {
    out->policy.share = TenantShare::kBestEffort;
    if (!arg.empty()) {
      *err = "best-effort takes no ':" + arg + "' argument";
      return false;
    }
  } else {
    *err = "unknown policy '" + policy +
           "' (expected weighted, reserved or best-effort)";
    return false;
  }
  return true;
}

/// Parses the NAME=POLICY[:ARG][@PRIO] spec arguments shared by run-multi
/// and run-cmp (exit-code-2 diagnostics on malformed or duplicate specs).
bool parse_task_specs(const std::vector<std::string>& spec_args,
                      std::vector<TaskSpec>* specs) {
  for (const std::string& raw_spec : spec_args) {
    TaskSpec spec;
    std::string err;
    if (!parse_task_spec(raw_spec, &spec, &err)) {
      std::fprintf(stderr, "error: bad task spec '%s': %s\n",
                   raw_spec.c_str(), err.c_str());
      return false;
    }
    for (const TaskSpec& prev : *specs) {
      if (prev.name == spec.name) {
        std::fprintf(stderr, "error: duplicate task name '%s'\n",
                     spec.name.c_str());
        return false;
      }
    }
    specs->push_back(std::move(spec));
  }
  return true;
}

/// One synthetic kernel + application per task, all built into one combined
/// library so every MRts shares the fabric's data-path table. Trace i is
/// seeded by its spec index, so the same spec list always regenerates the
/// same workload (the run-multi/run-cmp determinism contract).
void build_synthetic_workload(const std::vector<TaskSpec>& specs,
                              unsigned blocks, IseLibrary* combined,
                              std::vector<ApplicationTrace>* traces) {
  std::vector<KernelId> kernels;
  for (const TaskSpec& spec : specs) {
    IseBuildSpec build;
    build.kernel_name = spec.name;
    build.sw_latency = 700;
    build.control_fraction = 0.4;
    build.fg_data_path_names = {spec.name + "_ctrl_fg", spec.name + "_dp_fg"};
    build.cg_data_path_names = {spec.name + "_mac_cg"};
    build.fg_control_dps = 1;
    build.cg_data_dps = 1;
    kernels.push_back(build_kernel_ises(*combined, build));
  }
  traces->resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Rng rng(1000 + i);
    for (unsigned b = 0; b < blocks; ++b) {
      FunctionalBlockInstance inst = make_block_instance(
          FunctionalBlockId{0}, /*macroblocks=*/400, {{kernels[i], 8.0, 25, 0.1}},
          /*entry_gap=*/200, /*tail_gap=*/200, rng);
      stamp_programmed_trigger(inst, *combined);
      (*traces)[i].blocks.push_back(std::move(inst));
    }
  }
}

int cmd_run_multi(const CliArgs& args) {
  const auto prcs = static_cast<unsigned>(args["prcs"].count);
  const auto cg = static_cast<unsigned>(args["cg"].count);
  const auto blocks = static_cast<unsigned>(args["blocks"].count);
  std::vector<TaskSpec> specs;
  if (!parse_task_specs({args.positionals.begin() + 3, args.positionals.end()},
                        &specs)) {
    return 2;
  }

  IseLibrary combined;
  std::vector<ApplicationTrace> traces;
  build_synthetic_workload(specs, blocks, &combined, &traces);

  // One arbitrated machine (sim/machine.h) owns the shared fabric, the
  // arbiter and every tenant-bound MRts, replacing the hand-built
  // FabricManager/FabricArbiter/MRts wiring.
  MachineConfig machine_config;
  machine_config.prcs = prcs;
  machine_config.cg_fabrics = cg;
  machine_config.tenancy = Tenancy::kArbitrated;
  Machine machine(combined, machine_config);
  FabricArbiter& arbiter = machine.arbiter();
  std::vector<FabricArbiter::Registration> regs;
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    regs.push_back(machine.register_tenant(specs[i].name, specs[i].policy));
    if (!regs.back().admitted) continue;  // bounced: reported below
    Task task;
    task.name = specs[i].name;
    task.rts = &machine.add_rts(regs[i].id);
    task.trace = &traces[i];
    task.priority = specs[i].policy.priority;
    task.tenant = regs[i].id;
    tasks.push_back(std::move(task));
  }
  const MultiTenantResult result = run_multi_tenant(tasks, &arbiter);

  TextTable table({"task", "policy", "prio", "status", "blocks", "Mcycles",
                   "blocks/Mcyc", "evicted others", "evicted by others",
                   "quota redirects"});
  auto policy_text = [](const TenantPolicy& p) {
    std::string policy = std::string(to_string(p.share));
    if (p.share == TenantShare::kWeighted) {
      policy += ":" + std::to_string(p.weight);
    } else if (p.share == TenantShare::kReserved) {
      policy += ":" + std::to_string(p.reserved_prcs) + "+" +
                std::to_string(p.reserved_cg);
    }
    return policy;
  };
  std::vector<double> throughputs;
  std::uint64_t total_blocks = 0;
  std::vector<std::size_t> bounced;
  for (std::size_t i = 0, next_result = 0; i < specs.size(); ++i) {
    const TenantPolicy& p = specs[i].policy;
    if (!regs[i].admitted) {
      bounced.push_back(i);
      continue;
    }
    const MultiTenantTaskResult& tr = result.tasks[next_result++];
    const TenantStats& stats = arbiter.stats(regs[i].id);
    const double throughput =
        tr.run.active_cycles == 0
            ? 0.0
            : static_cast<double>(tr.run.block_cycles.size()) * 1e6 /
                  static_cast<double>(tr.run.active_cycles);
    throughputs.push_back(throughput);
    total_blocks += tr.run.block_cycles.size();
    table.add_values(specs[i].name, policy_text(p), p.priority, "ok",
                     tr.run.block_cycles.size(),
                     format_mcycles(tr.run.active_cycles),
                     format_double(throughput, 2), stats.evictions_caused,
                     stats.evictions_suffered, stats.quota_redirects);
  }
  // Bounced-tenant diagnostics sort by name (not registration order): the
  // rows are stable under spec reordering, so smoke-test diffs don't churn.
  std::sort(bounced.begin(), bounced.end(),
            [&specs](std::size_t a, std::size_t b) {
              return specs[a].name < specs[b].name;
            });
  for (const std::size_t i : bounced) {
    table.add_values(specs[i].name, policy_text(specs[i].policy),
                     specs[i].policy.priority, "bounced: " + regs[i].reason, 0,
                     "-", "-", "-", "-", "-");
  }
  std::printf("%u PRCs + %u CG fabrics, %u blocks/task, %zu task(s):\n%s",
              prcs, cg, blocks, specs.size(), table.render().c_str());
  if (result.total_cycles > 0) {
    std::printf("\ntotal %s Mcycles, aggregate throughput %.2f blocks/Mcyc, "
                "Jain fairness index %.4f\n",
                format_mcycles(result.total_cycles).c_str(),
                static_cast<double>(total_blocks) * 1e6 /
                    static_cast<double>(result.total_cycles),
                jain_fairness_index(throughputs));
  }
  return 0;
}

int cmd_run_cmp(const CliArgs& args) {
  const auto cores = static_cast<unsigned>(args["cores"].count);
  const auto prcs = static_cast<unsigned>(args["prcs"].count);
  const auto cg = static_cast<unsigned>(args["cg"].count);
  const auto blocks = static_cast<unsigned>(args["blocks"].count);
  const auto hop_stride = static_cast<unsigned>(args["--hop-stride"].count);
  const auto transfers_per_block =
      static_cast<unsigned>(args["--transfers-per-block"].count);
  const std::vector<std::string> spec_args(args.positionals.begin() + 4,
                                           args.positionals.end());
  if (spec_args.size() > cores) {
    std::fprintf(stderr,
                 "error: %zu task spec(s) for %u core(s) (one task per core)\n",
                 spec_args.size(), cores);
    return 2;
  }
  // Spec i runs on core i; unspecified cores run the default
  // `core<i>=weighted:1` tenant. Duplicate names (including collisions with
  // the defaults) are caught by parse_task_specs.
  std::vector<std::string> padded = spec_args;
  for (std::size_t i = padded.size(); i < cores; ++i) {
    padded.push_back("core" + std::to_string(i) + "=weighted:1");
  }
  std::vector<TaskSpec> specs;
  if (!parse_task_specs(padded, &specs)) return 2;

  IseLibrary combined;
  std::vector<ApplicationTrace> traces;
  build_synthetic_workload(specs, blocks, &combined, &traces);

  MachineConfig machine_config;
  machine_config.cores = cores;
  machine_config.prcs = prcs;
  machine_config.cg_fabrics = cg;
  machine_config.tenancy = Tenancy::kArbitrated;
  machine_config.interconnect =
      InterconnectParams::linear_chain(cores, hop_stride);
  Machine machine(combined, machine_config);
  const Interconnect& icn = machine.interconnect();

  std::vector<FabricArbiter::Registration> regs;
  std::vector<CmpCore> cmp_cores(cores);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    regs.push_back(machine.register_tenant(specs[i].name, specs[i].policy));
    if (!regs.back().admitted) continue;  // bounced: core idles, reported below
    Task task;
    task.name = specs[i].name;
    task.rts = &machine.add_rts(regs[i].id);
    task.trace = &traces[i];
    task.priority = specs[i].policy.priority;
    task.tenant = regs[i].id;
    cmp_cores[i].tasks.push_back(std::move(task));
  }
  CmpParams params;
  params.transfers_per_block = transfers_per_block;
  params.fabric = &machine.fabric();
  const CmpResult result = run_cmp(cmp_cores, icn, &machine.arbiter(), params);

  TextTable table({"core", "hops", "task", "status", "blocks", "Mcycles",
                   "blocks/Mcyc", "xfer cyc", "port wait"});
  std::vector<double> throughputs;
  std::uint64_t total_blocks = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const unsigned hops = icn.core_distance(static_cast<unsigned>(i));
    if (!regs[i].admitted) {
      table.add_values(i, hops, specs[i].name, "bounced: " + regs[i].reason,
                       0, "-", "-", "-", "-");
      throughputs.push_back(0.0);
      continue;
    }
    const CmpCoreResult& cr = result.cores[i];
    const TaskRunResult& tr = cr.run.tasks[0].run;
    const double throughput =
        tr.active_cycles == 0
            ? 0.0
            : static_cast<double>(tr.block_cycles.size()) * 1e6 /
                  static_cast<double>(tr.active_cycles);
    throughputs.push_back(throughput);
    total_blocks += tr.block_cycles.size();
    table.add_values(i, hops, specs[i].name, "ok", tr.block_cycles.size(),
                     format_mcycles(tr.active_cycles),
                     format_double(throughput, 2), cr.interconnect_cycles,
                     cr.port_wait_cycles);
  }
  std::printf("%u core(s) sharing %u PRCs + %u CG fabrics, %u blocks/core, "
              "hop stride %u, %u transfer(s)/block:\n%s",
              cores, prcs, cg, blocks, hop_stride, transfers_per_block,
              table.render().c_str());
  if (result.total_cycles > 0) {
    std::printf("\nmakespan %s Mcycles, aggregate throughput %.2f "
                "blocks/Mcyc, Jain fairness index %.4f\n",
                format_mcycles(result.total_cycles).c_str(),
                static_cast<double>(total_blocks) * 1e6 /
                    static_cast<double>(result.total_cycles),
                jain_fairness_index(throughputs));
  }
  return 0;
}

int cmd_trace_summary(const CliArgs& args) {
  const std::string& path = args.positionals[0];
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return 2;
  }
  const TraceSummary summary = summarize_trace_jsonl(in);
  if (summary.parse_errors > 0) {
    std::fprintf(stderr,
                 "error: %zu malformed line(s) in '%s' (first at line %zu)\n",
                 summary.parse_errors, path.c_str(), summary.first_bad_line);
    return 2;
  }
  std::printf("%zu events", summary.total_events);
  if (summary.total_events > 0) {
    std::printf(", cycles %llu..%llu",
                static_cast<unsigned long long>(summary.first_cycle),
                static_cast<unsigned long long>(summary.last_cycle));
  }
  std::printf("\n");
  if (summary.span_durations.count() > 0) {
    const Histogram& h = summary.span_durations;
    std::printf(
        "span durations: %llu spans, p50 %s, p90 %s, p99 %s, max %s cycles\n",
        static_cast<unsigned long long>(h.count()),
        format_double(h.percentile(0.50), 0).c_str(),
        format_double(h.percentile(0.90), 0).c_str(),
        format_double(h.percentile(0.99), 0).c_str(),
        format_double(h.max(), 0).c_str());
  }
  // Rows sort by kind *name*, not enum order: the table then matches the
  // (alphabetical) counter table — e.g. the reconfig.retry row lands next to
  // the reconfig.retry counter — and stays stable when new enum values are
  // appended. The counter order is pinned by tests/test_trace.cpp.
  std::map<std::string, std::size_t> rows;
  for (std::size_t i = 0; i < kNumTraceEventKinds; ++i) {
    if (summary.per_kind[i] == 0) continue;
    rows[to_string(static_cast<TraceEventKind>(i))] = summary.per_kind[i];
  }
  TextTable table({"kind", "events"});
  for (const auto& [kind, events] : rows) table.add_values(kind, events);
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_trace_analyze(const CliArgs& args) {
  const std::string& path = args.positionals[0];
  const std::string& out_path = args["--out"].text;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return 2;
  }
  const ParsedTrace parsed = parse_trace_jsonl(in);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: malformed trace line %zu in '%s'\n",
                 parsed.bad_line, path.c_str());
    return 2;
  }
  const obs::RunReport report = obs::analyze_trace(parsed.events);
  if (out_path.empty()) {
    std::ostringstream os;
    obs::write_report_markdown(os, report);
    std::printf("%s", os.str().c_str());
    return 0;
  }
  if (!obs::write_report_file(out_path, report)) {
    std::fprintf(stderr, "error: cannot write report file '%s'\n",
                 out_path.c_str());
    return 2;
  }
  std::printf("wrote run report (%zu events analyzed) to %s\n",
              report.total_events, out_path.c_str());
  return 0;
}

int cmd_restore(const CliArgs& args) {
  std::vector<std::uint8_t> bytes;
  std::string err;
  if (!read_snapshot_file(args.positionals[0], &bytes, &err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  // Throws SnapshotError (exit 2) on truncated/corrupt/wrong-version
  // images, before any runtime state exists to damage.
  const CheckpointMeta meta = read_snapshot_meta(bytes);
  return run_compare(meta, &bytes);
}

const CliSpec& cli_spec() {
  static const CliSpec spec = [] {
    CliSpec s("mrts_cli", "command-line driver for the mRTS library");
    const CliArg library =
        cli_text("library.txt", "", "ISE library (isa/library_io.h format)");
    const std::vector<CliArg> run_positionals = {
        cli_text("h264|sdr", "", "built-in workload"),
        cli_count("prcs", "", 0, 1024, "2", "PRCs of the fabric"),
        cli_count("cg", "", 0, 1024, "2", "CG fabrics"),
        cli_count("frames", "", 1, 100000, "8", "h264 frames or sdr bursts"),
    };
    const std::vector<CliArg> run_flags = {
        cli_text("--trace", "<file>",
                 "record the mRTS run's flight recorder (.jsonl = JSON "
                 "Lines, anything else = Chrome trace-event JSON)"),
        cli_text("--report", "<file>",
                 "analyze the mRTS run's trace in memory and write the "
                 "RunReport (.json / .csv / anything else = markdown)"),
        cli_probability("--fault-rate", "<p>", "0",
                        "enable the deterministic fault injector"),
        cli_count("--fault-seed", "<n>", 0, kCliMaxCount, "42", "fault seed"),
        cli_count("--max-retries", "<n>", 0, 1000, "3", "per-load retries"),
        cli_switch("--no-bb-cache",
                   "run the per-event frame loop instead of the batched "
                   "fast path (outputs stay bit-identical)"),
    };
    const std::vector<CliArg> machine_positionals = {
        cli_count("prcs", "", 1, 1024, "", "PRCs of the shared fabric"),
        cli_count("cg", "", 1, 1024, "", "CG fabrics of the shared fabric"),
        cli_count("blocks", "", 1, 100000, "", "functional blocks per task"),
    };

    CliVerb& info = s.add_verb(
        "info", "print the kernels and ISE variants of a library file",
        cmd_info);
    info.positionals = {library};

    CliVerb& select = s.add_verb(
        "select",
        "run one heuristic selection for the given trigger forecast on an "
        "idle machine",
        cmd_select);
    select.positionals = {
        library,
        cli_count("prcs", "", 0, 1024, "", "PRCs of the idle fabric"),
        cli_count("cg", "", 0, 1024, "", "CG fabrics of the idle fabric"),
    };
    select.rest = "KERNEL=e[,tf,tb]";
    select.rest_required = true;

    CliVerb& run = s.add_verb(
        "run",
        "run a built-in workload under every run-time system and print the "
        "comparison summary",
        cmd_run);
    run.positionals = run_positionals;
    run.flags = run_flags;
    run.flags.push_back(cli_count(
        "--checkpoint-every", "<cycles>", 1, kCliMaxCount, "",
        "write a whole-runtime snapshot every N cycles; needs --checkpoint"));
    run.flags.push_back(cli_text(
        "--checkpoint", "<file>",
        "snapshot file for --checkpoint-every (atomically overwritten)"));

    CliVerb& checkpoint = s.add_verb(
        "checkpoint",
        "run the mRTS leg up to --at-cycle and write a one-shot snapshot",
        cmd_checkpoint);
    checkpoint.positionals = run_positionals;
    checkpoint.flags = run_flags;
    checkpoint.flags.push_back(cli_count("--at-cycle", "<c>", 1, kCliMaxCount,
                                         "", "required: checkpoint cycle"));
    checkpoint.flags.push_back(
        cli_text("--out", "<file>", "required: snapshot output file"));

    CliVerb& restore = s.add_verb(
        "restore",
        "resume a checkpointed run in a fresh process and finish it "
        "bit-identically",
        cmd_restore);
    restore.positionals = {cli_text("snapshot", "", "snapshot file")};

    CliVerb& run_multi = s.add_verb(
        "run-multi",
        "multi-tenant simulation behind a FabricArbiter; POLICY is "
        "weighted[:W] | reserved:<P>+<C> | best-effort",
        cmd_run_multi);
    run_multi.positionals = machine_positionals;
    run_multi.rest = "NAME=POLICY[:ARG][@PRIO]";
    run_multi.rest_required = true;

    CliVerb& run_cmp = s.add_verb(
        "run-cmp",
        "CMP simulation: one task per core sharing one fabric pool over the "
        "modeled interconnect; specs map to cores in order (default "
        "core<i>=weighted:1)",
        cmd_run_cmp);
    run_cmp.positionals = machine_positionals;
    run_cmp.positionals.insert(
        run_cmp.positionals.begin(),
        cli_count("cores", "", 1, 1024, "", "RISC cores, one task each"));
    run_cmp.rest = "NAME=POLICY[:ARG][@PRIO]";
    run_cmp.flags = {
        cli_count("--hop-stride", "<n>", 0, 1024, "0",
                  "core i sits 1 + i*n interconnect hops from the fabric; "
                  "0 = flat topology"),
        cli_count("--transfers-per-block", "<n>", 0, 1024, "2",
                  "operand transfers charged per functional block"),
    };

    const CliArg trace = cli_text("trace.jsonl", "", "JSON Lines trace");
    CliVerb& summary = s.add_verb(
        "trace-summary",
        "validate a JSONL trace and print per-kind event counts plus "
        "span-duration percentiles",
        cmd_trace_summary);
    summary.positionals = {trace};

    CliVerb& analyze = s.add_verb(
        "trace-analyze",
        "run the obs/ analysis engine over a saved JSONL trace",
        cmd_trace_analyze);
    analyze.positionals = {trace};
    analyze.flags = {cli_text("--out", "<file>",
                              "write the report to a file (.json / .csv / "
                              "anything else = markdown) instead of stdout")};
    return s;
  }();
  return spec;
}

}  // namespace

int main(int argc, char** argv) { return cli_spec().run(argc, argv); }
