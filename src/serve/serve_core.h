#pragma once
/// \file serve_core.h
/// ServeCore: the deterministic sim side of `mrts_serve`. One resident
/// fabric + FabricArbiter + ISE library serve an unbounded stream of tenant
/// jobs: submit() runs admission control and queues the job, run_next()
/// executes the FIFO head through the event-driven multi-tenant scheduler
/// (sim/multi_app.h) and turns its trace slice into a RunReport JSON plus a
/// counter delta. The core has zero socket, thread or wall-clock
/// dependencies — everything it produces is a deterministic function of the
/// (submit, run, cancel) operation sequence, which it also records as a
/// replayable job log (`mrts.joblog.v1`, see docs/SERVING.md). The I/O
/// shell (serve/server.h) is a thin untrusted-bytes frontend over this
/// class; tests drive the core directly.

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arch/fabric_manager.h"
#include "isa/ise_library.h"
#include "serve/wire.h"
#include "sim/arbiter.h"
#include "sim/machine.h"
#include "util/counters.h"
#include "util/trace.h"
#include "util/types.h"

namespace mrts::serve {

/// Shape of the resident service. The defaults are the documented
/// `mrts_serve` defaults (docs/SERVING.md); the job log header pins them so
/// replays reconstruct the same core.
struct ServeConfig {
  unsigned prcs = 6;          ///< resident fabric: FG containers
  unsigned cg = 2;            ///< resident fabric: CG fabrics
  unsigned job_classes = 4;   ///< synthetic kernel classes, SUBMIT job_class < this
  unsigned max_blocks = 64;   ///< SUBMIT blocks must be in [1, max_blocks]
  unsigned macroblocks = 24;  ///< macroblock loop length per functional block
  std::size_t max_queue = 256;  ///< queued-job ceiling (kQueueFull beyond)
  /// Finished job records kept around for late polls after their payload
  /// was delivered. A record is retired once a status() poll has seen its
  /// final state (for done jobs: once the report-carrying poll happened);
  /// the oldest retired records beyond this bound are reclaimed FIFO, after
  /// which their id polls as kUnknownJob. Bounds resident memory under an
  /// unbounded job stream; never reclaims undelivered reports or queued
  /// jobs, and never fires during a job-log replay (replays do not poll).
  std::size_t retain_jobs = 1024;
};

/// The accepted range of a ServeConfig field, by its job-log header key
/// (`prcs`; the `mrts_serve` flag is `--prcs`, with `-` for `_`).
/// replay_job_log checks every header value against it and mrts_serve's
/// flag rows take their bounds from it, so a replay accepts exactly the
/// configurations a server can run. ServeCore's constructor checks none of
/// them: perfbench builds a reference core with zero PRCs.
struct ServeConfigBound {
  const char* key;
  std::uint64_t lo;
  std::uint64_t hi;
};

inline constexpr ServeConfigBound kServeConfigBounds[] = {
    {"prcs", 1, 1024},          {"cg", 1, 1024},
    {"job_classes", 1, 64},     {"max_blocks", 1, 100000},
    {"macroblocks", 1, 100000}, {"max_queue", 1, 1000000},
    {"retain_jobs", 0, 1000000},
};

/// The row of kServeConfigBounds for \p key; throws std::invalid_argument
/// for a key the table lacks.
const ServeConfigBound& serve_config_bound(std::string_view key);

/// Job lifecycle inside the core. v1 runs jobs one at a time, so there is
/// no resident kRunning state — a job goes kQueued -> kDone atomically from
/// the client's point of view (WireJobState::kRunning stays reserved).
enum class JobState : std::uint8_t {
  kQueued = 0,
  kDone = 1,
  kBounced = 2,
  kCancelled = 3,
};

const char* to_string(JobState state);
WireJobState to_wire(JobState state);

/// One accepted job and everything the protocol can ask about it.
struct JobRecord {
  std::uint64_t id = 0;
  std::uint32_t owner = 0;  ///< opaque session tag (0 in replays)
  SubmitFrame spec;
  JobState state = JobState::kQueued;
  TenantId tenant = kUnownedTenant;
  std::string reason;        ///< bounce/cancel reason ("" otherwise)
  Cycles admitted_at = 0;    ///< absolute sim cycle (done jobs)
  Cycles finished_at = 0;    ///< absolute sim cycle (done jobs)
  /// Final report, delivered exactly once: the first status() after
  /// completion carries them, then they are freed (report_delivered).
  std::string report_json;     ///< obs/report_io.h JSON of the job's trace
  std::string counters_delta;  ///< "name +delta" lines, sorted by name
  bool report_delivered = false;
  /// Queued for FIFO reclaim (ServeConfig::retain_jobs): the record's final
  /// state has been polled and it holds no undelivered payload.
  bool retired = false;
};

class ServeCore {
 public:
  explicit ServeCore(const ServeConfig& config = {});
  ~ServeCore();

  ServeCore(const ServeCore&) = delete;
  ServeCore& operator=(const ServeCore&) = delete;

  const ServeConfig& config() const { return config_; }

  /// Validates a SUBMIT payload against the documented field ranges
  /// (docs/PROTOCOL.md): tenant-name charset/length, share enum, weight
  /// [1, 1000], priority <= 1000000, job_class < config.job_classes,
  /// blocks [1, config.max_blocks]. False fills \p err with the
  /// client-visible kBadSpec detail.
  bool validate_spec(const SubmitFrame& spec, std::string* err) const;

  /// Admission + enqueue. \p spec must have passed validate_spec. Returns
  /// the job id (ids start at 1 and are never reused). The job is either
  /// kQueued (admitted) or kBounced immediately (record's reason carries
  /// the arbiter's verdict). Returns 0 without creating a job when the
  /// queue is full or the core is draining — the caller maps that to
  /// kQueueFull / kShuttingDown.
  std::uint64_t submit(std::uint32_t owner, const SubmitFrame& spec);

  /// Executes the FIFO head job to completion on the resident fabric and
  /// builds its report. Returns false when the queue is empty.
  bool run_next();
  /// Drains the whole queue.
  void run_all();

  /// Cancels a queued job. Ownership is enforced when \p owner is nonzero
  /// (a job may only be cancelled by the session that submitted it; replay
  /// cancels with owner 0 bypass the check). Sets \p error to kUnknownJob /
  /// kForeignJob on rejection; returns true with *cancelled = false when
  /// the job exists but already left the queue ("too late").
  bool cancel(std::uint64_t job_id, std::uint32_t owner, bool* cancelled,
              WireError* error);

  /// Cancels every queued job owned by \p owner (session teardown); returns
  /// how many were cancelled.
  std::uint64_t cancel_all(std::uint32_t owner);

  /// Job lookup (nullptr for unknown ids).
  const JobRecord* job(std::uint64_t job_id) const;
  /// Queue position of a queued job: 0 = next to run.
  std::uint64_t queue_position(std::uint64_t job_id) const;

  /// Builds the JOB_STATUS answer for a poll. The first poll of a finished
  /// job carries the report (report_included = 1) and frees it; later polls
  /// repeat the metadata only. False when the job id is unknown.
  bool status(std::uint64_t job_id, JobStatusFrame* out);

  /// Stops accepting submissions (kShuttingDown); queued jobs still run.
  void begin_drain() { draining_ = true; }
  bool draining() const { return draining_; }

  std::size_t queue_depth() const { return queue_.size(); }
  /// Ids handed out so far (ids are dense from 1, never reused). Counts
  /// records even after the retention GC reclaimed them.
  std::size_t jobs_created() const {
    return static_cast<std::size_t>(next_job_id_ - 1);
  }
  /// Records currently resident in memory; bounded by the queue depth plus
  /// undelivered results plus ServeConfig::retain_jobs retired records.
  std::size_t resident_jobs() const { return jobs_.size(); }
  /// Lifetime per-final-state tallies (survive record reclamation).
  std::uint64_t jobs_done() const { return done_; }
  std::uint64_t jobs_bounced() const { return bounced_; }
  std::uint64_t jobs_cancelled() const { return cancelled_; }
  Cycles clock() const { return clock_; }
  const FabricArbiter& arbiter() const { return machine_->arbiter(); }
  /// The flight recorder every job runs with; it holds the last job's
  /// trace slice (run_next clears it before each job).
  const TraceRecorder& recorder() const { return recorder_; }
  /// The counter registry every job runs with: running totals since the
  /// core was built (a job's counters_delta is its change to them).
  const CounterRegistry& counters() const { return counters_; }

  /// The operation log: header line plus one line per submit/run/cancel, in
  /// execution order (`mrts.joblog.v1`, docs/SERVING.md). Feeding it to
  /// replay_job_log() reproduces every report byte-identically.
  const std::vector<std::string>& job_log() const { return log_; }

 private:
  struct JobWorkload;

  void run_job(JobRecord& job);
  void log_submit(const JobRecord& job);
  /// Marks a polled terminal record for FIFO reclaim and evicts the oldest
  /// retired records beyond ServeConfig::retain_jobs.
  void retire(JobRecord& job);

  ServeConfig config_;
  bool draining_ = false;
  Cycles clock_ = 0;  ///< logical sim clock, advances by each job's span

  IseLibrary library_;
  std::vector<KernelId> kernels_;  ///< one per job class
  // recorder_/counters_ before machine_: the machine's fabric holds
  // pointers to them once the first job attaches observability.
  TraceRecorder recorder_;
  CounterRegistry counters_;
  /// The resident topology (sim/machine.h, arbitrated tenancy): owns the
  /// shared fabric + arbiter and builds the per-job MRts instances.
  std::unique_ptr<Machine> machine_;

  std::map<std::uint64_t, JobRecord> jobs_;
  std::deque<std::uint64_t> queue_;
  std::deque<std::uint64_t> retired_;  ///< reclaim order (oldest first)
  std::uint64_t next_job_id_ = 1;
  std::uint64_t done_ = 0;
  std::uint64_t bounced_ = 0;
  std::uint64_t cancelled_ = 0;
  std::vector<std::string> log_;
};

/// One job's outcome as seen by a replay consumer.
struct ReplayJob {
  std::uint64_t id = 0;
  JobState state = JobState::kDone;
  std::string reason;
  Cycles admitted_at = 0;
  Cycles finished_at = 0;
  std::string report_json;
  std::string counters_delta;
};

struct ReplayResult {
  bool ok = false;
  std::string error;  ///< parse/config error when !ok
  ServeConfig config;
  std::vector<ReplayJob> jobs;  ///< ascending job id
};

/// Replays a `mrts.joblog.v1` stream through a fresh ServeCore built from
/// the log's header config and returns every job's final state + report.
/// Deterministic: the same log produces byte-identical reports, which is
/// what the serve-smoke CI job asserts against the reports the live server
/// streamed to its clients.
ReplayResult replay_job_log(std::istream& in);

/// Canonical one-job-per-record text form used to compare live-served
/// reports against a replay (CI's byte-identity check): a "== job <id>
/// <state>" header line, the bounce/cancel reason when present, then the
/// report JSON and counter-delta blocks.
void write_replay_record(std::ostream& os, const ReplayJob& job);

}  // namespace mrts::serve
