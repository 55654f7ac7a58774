// mrts_loadgen — churn load generator for mrts_serve.
//
//   mrts_loadgen --socket <path> --cycles <n> [--seed <n>] [flags]
//       Drive <n> tenant connect/submit/poll/disconnect cycles against a
//       running mrts_serve. Each cycle opens a fresh connection, negotiates
//       HELLO, submits a deterministic pseudo-random job mix (share policy,
//       weight/reservation, job class, block count all derived from
//       --seed), polls every job to its final state, records it, and says
//       DISCONNECT — with optional cancel and hard-drop cycles mixed in to
//       stress queue cleanup. The acceptance bar for the serving layer is
//       10,000+ cycles against one resident fabric with zero leaked
//       sessions/fds on the server's shutdown summary.
//
//       --save-reports writes one record per job (same format as
//       `mrts_serve --replay`), so CI can diff live-served reports against
//       a job-log replay byte for byte.
//
// Exit code 0 when every cycle completed, 1 on usage errors, 2 on
// connection/protocol failures.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/serve_core.h"
#include "util/cli_spec.h"
#include "util/rng.h"

namespace {

using namespace mrts;
using namespace mrts::serve;

const CliSpec& cli_spec();

/// Deterministic job mix: mostly weighted pool tenants, some best-effort,
/// an occasional reservation (a few of which are oversized on purpose, to
/// exercise the admission-bounce path end to end).
SubmitFrame make_job(Rng& rng, const HelloOkFrame& shape, std::uint64_t cycle,
                     std::uint64_t index) {
  SubmitFrame job;
  job.name = "lg" + std::to_string(cycle) + "_" + std::to_string(index);
  const std::uint64_t mix = rng.next_u64() % 10;
  if (mix < 6) {
    job.share = static_cast<std::uint8_t>(WireShare::kWeighted);
    job.weight = 1 + static_cast<std::uint32_t>(rng.next_u64() % 4);
  } else if (mix < 8) {
    job.share = static_cast<std::uint8_t>(WireShare::kBestEffort);
  } else {
    job.share = static_cast<std::uint8_t>(WireShare::kReserved);
    // 1..prcs+1: the +1 cases do not fit and must bounce with a reason.
    job.reserved_prcs =
        1 + static_cast<std::uint32_t>(rng.next_u64() % (shape.prcs + 1));
    job.reserved_cg = static_cast<std::uint32_t>(rng.next_u64() % 2);
  }
  job.priority = static_cast<std::uint32_t>(rng.next_u64() % 3);
  job.job_class =
      static_cast<std::uint32_t>(rng.next_u64() % shape.job_classes);
  job.blocks = 1 + static_cast<std::uint32_t>(rng.next_u64() % 2);
  job.seed = rng.next_u64();
  return job;
}

/// Converts a JOB_STATUS answer into the shared replay-record form.
ReplayJob to_record(const JobStatusFrame& status) {
  ReplayJob record;
  record.id = status.job_id;
  switch (static_cast<WireJobState>(status.state)) {
    case WireJobState::kQueued:
    case WireJobState::kRunning:
      record.state = JobState::kQueued;
      break;
    case WireJobState::kDone:
      record.state = JobState::kDone;
      break;
    case WireJobState::kBounced:
      record.state = JobState::kBounced;
      break;
    case WireJobState::kCancelled:
      record.state = JobState::kCancelled;
      break;
  }
  record.reason = status.reason;
  record.admitted_at = status.admitted_at;
  record.finished_at = status.finished_at;
  record.report_json = status.report_json;
  record.counters_delta = status.counters_delta;
  return record;
}

int loadgen_main(const CliArgs& args) {
  const std::string& socket_path = args["--socket"].text;
  if (socket_path.empty() || !args["--cycles"].given) return cli_spec().usage();
  const std::uint64_t cycles = args["--cycles"].count;
  const std::uint64_t jobs_per_cycle = args["--jobs-per-cycle"].count;
  const std::uint64_t cancel_every = args["--cancel-every"].count;
  const std::uint64_t drop_every = args["--drop-every"].count;
  const std::string& save_reports = args["--save-reports"].text;

  std::ofstream reports;
  if (!save_reports.empty()) {
    reports.open(save_reports);
    if (!reports) {
      std::fprintf(stderr, "error: cannot write '%s'\n", save_reports.c_str());
      return 2;
    }
  }

  Rng rng(args["--seed"].count);
  std::uint64_t jobs_done = 0;
  std::uint64_t jobs_bounced = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t dropped_cycles = 0;

  for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
    Client client;
    std::string err;
    if (!client.connect_to(socket_path, &err)) {
      std::fprintf(stderr, "error: cycle %llu: %s\n",
                   static_cast<unsigned long long>(cycle), err.c_str());
      return 2;
    }
    HelloOkFrame shape;
    if (!client.hello(&shape, &err)) {
      std::fprintf(stderr, "error: cycle %llu: HELLO failed: %s\n",
                   static_cast<unsigned long long>(cycle), err.c_str());
      return 2;
    }

    const bool drop = drop_every != 0 && (cycle + 1) % drop_every == 0;
    const bool cancel_last =
        !drop && cancel_every != 0 && (cycle + 1) % cancel_every == 0;

    std::vector<std::uint64_t> job_ids;
    for (std::uint64_t j = 0; j < jobs_per_cycle; ++j) {
      const SubmitFrame spec = make_job(rng, shape, cycle, j);
      SubmitOkFrame ok;
      if (!client.submit(spec, &ok, &err)) {
        std::fprintf(stderr, "error: cycle %llu: SUBMIT failed: %s\n",
                     static_cast<unsigned long long>(cycle), err.c_str());
        return 2;
      }
      job_ids.push_back(ok.job_id);
    }

    if (drop) {
      // Simulated client crash: the server must auto-cancel what is still
      // queued and account the session as closed, not leaked.
      client.close_now();
      ++dropped_cycles;
      continue;
    }

    if (cancel_last && !job_ids.empty()) {
      CancelOkFrame cancel_ok;
      if (!client.cancel(job_ids.back(), &cancel_ok, &err)) {
        std::fprintf(stderr, "error: cycle %llu: CANCEL failed: %s\n",
                     static_cast<unsigned long long>(cycle), err.c_str());
        return 2;
      }
    }

    for (std::uint64_t id : job_ids) {
      JobStatusFrame status;
      if (!client.poll_until_final(id, &status, &err)) {
        std::fprintf(stderr, "error: cycle %llu: POLL failed: %s\n",
                     static_cast<unsigned long long>(cycle), err.c_str());
        return 2;
      }
      switch (static_cast<WireJobState>(status.state)) {
        case WireJobState::kDone:
          ++jobs_done;
          break;
        case WireJobState::kBounced:
          ++jobs_bounced;
          break;
        case WireJobState::kCancelled:
          ++jobs_cancelled;
          break;
        default:
          break;
      }
      if (reports.is_open()) {
        std::ostringstream os;
        write_replay_record(os, to_record(status));
        reports << os.str();
      }
    }

    ByeFrame bye;
    if (!client.disconnect(&bye, &err)) {
      std::fprintf(stderr, "error: cycle %llu: DISCONNECT failed: %s\n",
                   static_cast<unsigned long long>(cycle), err.c_str());
      return 2;
    }
  }

  if (!args["--quiet"].given) {
    std::printf(
        "mrts_loadgen: %llu cycles complete (%llu dropped), jobs done=%llu "
        "bounced=%llu cancelled=%llu\n",
        static_cast<unsigned long long>(cycles),
        static_cast<unsigned long long>(dropped_cycles),
        static_cast<unsigned long long>(jobs_done),
        static_cast<unsigned long long>(jobs_bounced),
        static_cast<unsigned long long>(jobs_cancelled));
  }
  return 0;
}

const CliSpec& cli_spec() {
  static const CliSpec spec = [] {
    CliSpec s("mrts_loadgen",
              "tenant connect/submit/disconnect churn generator for "
              "mrts_serve");
    CliVerb& main_verb = s.add_verb("", "", loadgen_main);
    main_verb.flags = {
        cli_text("--socket", "<path>", "mrts_serve AF_UNIX socket (required)"),
        cli_count("--cycles", "<n>", 1, 100000000, "",
                  "connect/submit/disconnect cycles (required)"),
        cli_count("--seed", "<n>", 0, kCliMaxCount, "1", "job-mix seed"),
        cli_count("--jobs-per-cycle", "<n>", 1, 64, "1",
                  "SUBMITs per connection"),
        cli_count("--cancel-every", "<n>", 0, 1u << 30, "0",
                  "every n-th cycle cancels its last job instead of waiting; "
                  "0 = never"),
        cli_count("--drop-every", "<n>", 0, 1u << 30, "0",
                  "every n-th cycle closes the socket without DISCONNECT to "
                  "exercise server-side cleanup; 0 = never"),
        cli_text("--save-reports", "<file>",
                 "append every job's final record (mrts_serve --replay "
                 "format)"),
        cli_switch("--quiet", "suppress the completion summary"),
    };
    return s;
  }();
  return spec;
}

}  // namespace

int main(int argc, char** argv) { return cli_spec().run(argc, argv); }
