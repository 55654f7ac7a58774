// mrts_serve — the persistent mRTS job-ingestion server.
//
//   mrts_serve --socket <path> [shape/limit flags]
//       Serve mrts.wire.v1 (docs/PROTOCOL.md) on an AF_UNIX socket: accept
//       tenant jobs, admit them through the resident FabricArbiter, run
//       admitted jobs on one resident fabric and stream each job's
//       RunReport JSON + counter deltas back to its client. SIGINT/SIGTERM
//       drain the queue and shut down cleanly; --exit-after bounds the run
//       for CI. docs/SERVING.md describes the lifecycle, threading model
//       and determinism contract.
//
//   mrts_serve --replay <joblog> [--out <file>]
//       Replay a job log (mrts.joblog.v1, written via --job-log) through a
//       fresh sim core and print every job's final record. Byte-identical
//       to what the live server streamed for the same log — the serve-smoke
//       CI job diffs the two.
//
// Exit code 0 on success, 1 on usage errors, 2 on input/runtime errors.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "serve/serve_core.h"
#include "serve/server.h"
#include "util/cli_spec.h"

namespace {

using namespace mrts;
using namespace mrts::serve;

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

int run_replay(const std::string& joblog_path, const std::string& out_path) {
  std::ifstream in(joblog_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", joblog_path.c_str());
    return 2;
  }
  const ReplayResult result = replay_job_log(in);
  if (!result.ok) {
    std::fprintf(stderr, "error: %s\n", result.error.c_str());
    return 2;
  }
  std::ostringstream os;
  for (const ReplayJob& job : result.jobs) write_replay_record(os, job);
  if (out_path.empty()) {
    std::fputs(os.str().c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 2;
  }
  out << os.str();
  return 0;
}

int serve_main(const CliArgs& args);

/// The flag row of ServeConfig field \p key: `--` + key with `-` for `_`,
/// bounded by the table replay_job_log checks job-log headers against.
CliArg config_flag(const char* key, std::uint64_t fallback, const char* help) {
  const ServeConfigBound& bound = serve_config_bound(key);
  std::string flag = std::string("--").append(key);
  std::replace(flag.begin(), flag.end(), '_', '-');
  return cli_count(flag, "<n>", bound.lo, bound.hi, std::to_string(fallback),
                   help);
}

const CliSpec& cli_spec() {
  static const CliSpec spec = [] {
    CliSpec s("mrts_serve", "persistent mRTS job-ingestion server "
                            "(mrts.wire.v1 over AF_UNIX)");
    const ServerConfig defaults;
    CliVerb& main_verb = s.add_verb("", "", serve_main);
    main_verb.flags = {
        cli_text("--socket", "<path>",
                 "AF_UNIX socket path to serve on (required unless "
                 "--replay)"),
        config_flag("prcs", defaults.core.prcs,
                    "resident fabric: FG containers"),
        config_flag("cg", defaults.core.cg, "resident fabric: CG fabrics"),
        config_flag("job_classes", defaults.core.job_classes,
                    "synthetic kernel classes"),
        config_flag("max_blocks", defaults.core.max_blocks,
                    "per-job functional-block ceiling"),
        config_flag("macroblocks", defaults.core.macroblocks,
                    "macroblock-loop length per block"),
        config_flag("max_queue", defaults.core.max_queue,
                    "queued-job ceiling"),
        config_flag("retain_jobs", defaults.core.retain_jobs,
                    "polled finished-job records kept for late status polls"),
        cli_count("--exit-after", "<sessions>", 0, 1u << 30,
                  std::to_string(defaults.exit_after_sessions),
                  "exit once this many sessions have closed; 0 = run until "
                  "SIGINT/SIGTERM"),
        cli_text("--job-log", "<file>",
                 "write the mrts.joblog.v1 operation log at shutdown"),
        cli_text("--replay", "<joblog>",
                 "replay a job log through a fresh sim core instead of "
                 "serving"),
        cli_text("--out", "<file>", "replay output file; default stdout"),
        cli_switch("--quiet", "suppress the shutdown accounting summary"),
    };
    return s;
  }();
  return spec;
}

int serve_main(const CliArgs& args) {
  if (!args["--replay"].text.empty()) {
    return run_replay(args["--replay"].text, args["--out"].text);
  }
  ServerConfig config;
  config.socket_path = args["--socket"].text;
  if (config.socket_path.empty()) return cli_spec().usage();
  config.job_log_path = args["--job-log"].text;
  config.quiet = args["--quiet"].given;
  config.core.prcs = static_cast<unsigned>(args["--prcs"].count);
  config.core.cg = static_cast<unsigned>(args["--cg"].count);
  config.core.job_classes = static_cast<unsigned>(args["--job-classes"].count);
  config.core.max_blocks = static_cast<unsigned>(args["--max-blocks"].count);
  config.core.macroblocks = static_cast<unsigned>(args["--macroblocks"].count);
  config.core.max_queue = args["--max-queue"].count;
  config.core.retain_jobs = args["--retain-jobs"].count;
  config.exit_after_sessions = args["--exit-after"].count;

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  // A client tearing down mid-write must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);

  Server server(std::move(config));
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "error: cannot listen: %s\n", err.c_str());
    return 2;
  }
  return server.run(&g_stop);
}

}  // namespace

int main(int argc, char** argv) { return cli_spec().run(argc, argv); }
