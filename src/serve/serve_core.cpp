#include "serve/serve_core.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <iterator>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "isa/ise_builder.h"
#include "obs/report_io.h"
#include "obs/run_report.h"
#include "rts/mrts.h"
#include "sim/multi_app.h"
#include "util/rng.h"
#include "workload/workload_gen.h"

namespace mrts::serve {

namespace {

constexpr std::uint32_t kMaxWeight = 1000;
constexpr std::uint32_t kMaxPriority = 1000000;
constexpr std::size_t kMaxTenantName = 64;

bool valid_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '.' || c == '-';
}

TenantShare to_share(std::uint8_t wire_share) {
  switch (static_cast<WireShare>(wire_share)) {
    case WireShare::kWeighted:
      return TenantShare::kWeighted;
    case WireShare::kReserved:
      return TenantShare::kReserved;
    case WireShare::kBestEffort:
      return TenantShare::kBestEffort;
  }
  return TenantShare::kBestEffort;
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kDone:
      return "done";
    case JobState::kBounced:
      return "bounced";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "?";
}

WireJobState to_wire(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return WireJobState::kQueued;
    case JobState::kDone:
      return WireJobState::kDone;
    case JobState::kBounced:
      return WireJobState::kBounced;
    case JobState::kCancelled:
      return WireJobState::kCancelled;
  }
  return WireJobState::kQueued;
}

ServeCore::ServeCore(const ServeConfig& config) : config_(config) {
  // One synthetic kernel per job class, with per-class acceleration
  // characteristics so classes genuinely differ in FG/CG/MG trade-offs
  // (same construction as `mrts_cli run-multi`, parameter-swept per class).
  for (unsigned k = 0; k < config_.job_classes; ++k) {
    const std::string tag = "jc" + std::to_string(k);
    IseBuildSpec build;
    build.kernel_name = tag;
    build.sw_latency = 600 + 120 * k;
    build.control_fraction = 0.25 + 0.1 * (k % 5);
    build.fg_data_path_names = {tag + "_ctrl_fg", tag + "_dp_fg"};
    build.cg_data_path_names = {tag + "_mac_cg"};
    build.fg_control_dps = 1;
    build.cg_data_dps = 1;
    kernels_.push_back(build_kernel_ises(library_, build));
  }
  MachineConfig machine_config;
  machine_config.prcs = config_.prcs;
  machine_config.cg_fabrics = config_.cg;
  machine_config.tenancy = Tenancy::kArbitrated;
  machine_ = std::make_unique<Machine>(library_, machine_config);

  std::ostringstream header;
  header << "mrts.joblog.v1 prcs=" << config_.prcs << " cg=" << config_.cg
         << " job_classes=" << config_.job_classes
         << " max_blocks=" << config_.max_blocks
         << " macroblocks=" << config_.macroblocks
         << " max_queue=" << config_.max_queue
         << " retain_jobs=" << config_.retain_jobs;
  log_.push_back(header.str());
}

ServeCore::~ServeCore() {
  // The machine's fabric holds recorder_/counters_ pointers once a job
  // attached them; the machine destroys arbiter-then-fabric itself. Member
  // order (recorder_/counters_ before machine_... reversed on destruction)
  // keeps every raw pointer valid until its holder is gone.
}

bool ServeCore::validate_spec(const SubmitFrame& spec, std::string* err) const {
  auto fail = [err](const std::string& why) {
    if (err != nullptr) *err = why;
    return false;
  };
  if (spec.name.empty() || spec.name.size() > kMaxTenantName) {
    return fail("tenant name must be 1..64 characters");
  }
  for (char c : spec.name) {
    if (!valid_name_char(c)) {
      return fail("tenant name may only contain [A-Za-z0-9_.-]");
    }
  }
  if (spec.share > static_cast<std::uint8_t>(WireShare::kBestEffort)) {
    return fail("share must be 0 (weighted), 1 (reserved) or 2 (best-effort)");
  }
  if (static_cast<WireShare>(spec.share) == WireShare::kWeighted &&
      (spec.weight == 0 || spec.weight > kMaxWeight)) {
    return fail("weight must be in [1, 1000]");
  }
  if (spec.priority > kMaxPriority) {
    return fail("priority must be <= 1000000");
  }
  if (spec.job_class >= config_.job_classes) {
    return fail("job_class must be < " + std::to_string(config_.job_classes));
  }
  if (spec.blocks == 0 || spec.blocks > config_.max_blocks) {
    return fail("blocks must be in [1, " + std::to_string(config_.max_blocks) +
                "]");
  }
  return true;
}

void ServeCore::log_submit(const JobRecord& job) {
  std::ostringstream line;
  line << "submit " << job.id << ' ' << job.spec.name << ' '
       << static_cast<unsigned>(job.spec.share) << ' ' << job.spec.weight
       << ' ' << job.spec.reserved_prcs << ' ' << job.spec.reserved_cg << ' '
       << job.spec.priority << ' ' << job.spec.job_class << ' '
       << job.spec.blocks << ' ' << job.spec.seed;
  log_.push_back(line.str());
}

std::uint64_t ServeCore::submit(std::uint32_t owner, const SubmitFrame& spec) {
  if (draining_ || queue_.size() >= config_.max_queue) return 0;

  const std::uint64_t id = next_job_id_++;
  JobRecord& job = jobs_[id];
  job.id = id;
  job.owner = owner;
  job.spec = spec;
  log_submit(job);

  TenantPolicy policy;
  policy.share = to_share(spec.share);
  policy.weight = spec.weight;
  policy.reserved_prcs = spec.reserved_prcs;
  policy.reserved_cg = spec.reserved_cg;
  policy.priority = spec.priority;
  const FabricArbiter::Registration reg =
      machine_->register_tenant(spec.name, policy);
  job.tenant = reg.id;
  if (!reg.admitted) {
    job.state = JobState::kBounced;
    job.reason = reg.reason;
    ++bounced_;
    machine_->arbiter().release_tenant(reg.id);
    return id;
  }
  queue_.push_back(id);
  return id;
}

void ServeCore::run_job(JobRecord& job) {
  // Each job gets its own trace slice: the recorder restarts empty, so the
  // report is a function of this job alone (plus whatever residual fabric
  // state previous tenants left — that is the point of a resident fabric).
  recorder_.clear();
  const auto counters_before = counters_.counters();

  ApplicationTrace trace;
  Rng rng(job.spec.seed);
  for (std::uint32_t b = 0; b < job.spec.blocks; ++b) {
    FunctionalBlockInstance inst = make_block_instance(
        FunctionalBlockId{0}, config_.macroblocks,
        {{kernels_[job.spec.job_class], 8.0, 25, 0.1}},
        /*entry_gap=*/200, /*tail_gap=*/200, rng);
    stamp_programmed_trigger(inst, library_);
    trace.blocks.push_back(std::move(inst));
  }

  // Caller-owned machine build (sim/machine.h make_rts): the instance dies
  // with this job, exactly like the hand-constructed MRts it replaces.
  const std::unique_ptr<MRts> rts = machine_->make_rts(job.tenant, {});
  rts->attach_observability(&recorder_, &counters_);

  Task task;
  task.name = job.spec.name;
  task.rts = rts.get();
  task.trace = &trace;
  task.recorder = &recorder_;
  task.priority = job.spec.priority;
  task.tenant = job.tenant;
  const MultiTenantResult result =
      run_multi_tenant({task}, &machine_->arbiter(), clock_);
  clock_ += result.total_cycles;

  const MultiTenantTaskResult& tr = result.tasks.front();
  if (!tr.admitted) {
    // Admission revoked between submit and run (e.g. quarantine shrank a
    // reservation): surfaced exactly like a submit-time bounce.
    job.state = JobState::kBounced;
    job.reason = tr.admission_reason;
    ++bounced_;
    machine_->arbiter().release_tenant(job.tenant);
    return;
  }

  job.admitted_at = tr.admitted_at;
  job.finished_at = tr.run.finished_at;

  obs::AnalysisConfig analysis;
  analysis.num_prcs = config_.prcs;
  analysis.num_cg = config_.cg;
  job.report_json =
      obs::report_json(obs::analyze_trace(recorder_.events(), analysis));

  std::string& delta = job.counters_delta;
  for (const auto& [name, value] : counters_.counters()) {
    const auto it = counters_before.find(name);
    const std::uint64_t before = it == counters_before.end() ? 0 : it->second;
    if (value == before) continue;
    char digits[24];
    const auto res =
        std::to_chars(digits, digits + sizeof digits, value - before);
    delta.append(name).append(" +").append(digits, res.ptr).push_back('\n');
  }

  machine_->arbiter().release_tenant(job.tenant);
  job.state = JobState::kDone;
  ++done_;
}

bool ServeCore::run_next() {
  if (queue_.empty()) return false;
  const std::uint64_t id = queue_.front();
  queue_.pop_front();
  log_.push_back("run " + std::to_string(id));
  run_job(jobs_.at(id));
  return true;
}

void ServeCore::run_all() {
  while (run_next()) {
  }
}

bool ServeCore::cancel(std::uint64_t job_id, std::uint32_t owner,
                       bool* cancelled, WireError* error) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    if (error != nullptr) *error = WireError::kUnknownJob;
    return false;
  }
  JobRecord& job = it->second;
  if (owner != 0 && job.owner != owner) {
    if (error != nullptr) *error = WireError::kForeignJob;
    return false;
  }
  if (job.state != JobState::kQueued) {
    if (cancelled != nullptr) *cancelled = false;  // too late
    return true;
  }
  queue_.erase(std::find(queue_.begin(), queue_.end(), job_id));
  machine_->arbiter().release_tenant(job.tenant);
  job.state = JobState::kCancelled;
  ++cancelled_;
  job.reason = "cancelled by client";
  log_.push_back("cancel " + std::to_string(job_id));
  if (cancelled != nullptr) *cancelled = true;
  return true;
}

std::uint64_t ServeCore::cancel_all(std::uint32_t owner) {
  std::vector<std::uint64_t> owned;
  for (std::uint64_t id : queue_) {
    if (jobs_.at(id).owner == owner) owned.push_back(id);
  }
  for (std::uint64_t id : owned) {
    bool was_cancelled = false;
    cancel(id, owner, &was_cancelled, nullptr);
  }
  return owned.size();
}

const JobRecord* ServeCore::job(std::uint64_t job_id) const {
  const auto it = jobs_.find(job_id);
  return it == jobs_.end() ? nullptr : &it->second;
}

std::uint64_t ServeCore::queue_position(std::uint64_t job_id) const {
  const auto it = std::find(queue_.begin(), queue_.end(), job_id);
  return it == queue_.end()
             ? 0
             : static_cast<std::uint64_t>(it - queue_.begin());
}

bool ServeCore::status(std::uint64_t job_id, JobStatusFrame* out) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  JobRecord& job = it->second;
  *out = JobStatusFrame{};
  out->job_id = job_id;
  out->state = static_cast<std::uint8_t>(to_wire(job.state));
  out->reason = job.reason;
  switch (job.state) {
    case JobState::kQueued:
      out->queue_position = queue_position(job_id);
      break;
    case JobState::kDone:
      out->admitted_at = job.admitted_at;
      out->finished_at = job.finished_at;
      out->latency_cycles = job.finished_at - job.admitted_at;
      if (!job.report_delivered) {
        out->report_included = 1;
        out->report_json = std::move(job.report_json);
        out->counters_delta = std::move(job.counters_delta);
        job.report_json.clear();
        job.counters_delta.clear();
        job.report_delivered = true;
      }
      break;
    case JobState::kBounced:
    case JobState::kCancelled:
      break;
  }
  // The poll has now seen the record's final state (for done jobs that
  // includes the report payload, delivered just above): mark it for FIFO
  // reclaim. May erase `job` itself when retain_jobs is 0 — nothing below
  // touches it.
  if (job.state != JobState::kQueued && !job.retired &&
      (job.state != JobState::kDone || job.report_delivered)) {
    retire(job);
  }
  return true;
}

void ServeCore::retire(JobRecord& job) {
  job.retired = true;
  retired_.push_back(job.id);
  while (retired_.size() > config_.retain_jobs) {
    jobs_.erase(retired_.front());
    retired_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Job-log replay
// ---------------------------------------------------------------------------

namespace {

/// Parses \p text as a decimal integer in [0, \p max], where \p max is the
/// widest value the destination field holds; false on anything else
/// (empty, a sign or other non-digit, overflow, a value above max).
bool parse_uint(std::string_view text, std::uint64_t max, std::uint64_t* out) {
  std::uint64_t n = 0;
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, n);
  if (res.ec != std::errc{} || res.ptr != end || n > max) return false;
  *out = n;
  return true;
}

bool parse_u64(const std::string& tok, std::uint64_t* out) {
  return parse_uint(tok, UINT64_MAX, out);
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

/// "<what> '<text>' is not an integer in [<lo>, <hi>]".
std::string out_of_range(const std::string& what, const std::string& text,
                         std::uint64_t lo, std::uint64_t hi) {
  return what + " '" + text + "' is not an integer in [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

}  // namespace

const ServeConfigBound& serve_config_bound(std::string_view key) {
  for (const ServeConfigBound& bound : kServeConfigBounds) {
    if (key == bound.key) return bound;
  }
  throw std::invalid_argument("no ServeConfig bound for '" +
                              std::string(key) + "'");
}

ReplayResult replay_job_log(std::istream& in) {
  ReplayResult result;
  auto fail = [&result](std::size_t line_no, const std::string& why) {
    result.ok = false;
    result.error = "joblog line " + std::to_string(line_no) + ": " + why;
    return result;
  };

  std::string line;
  if (!std::getline(in, line)) return fail(1, "empty log");
  const std::vector<std::string> header = split_ws(line);
  if (header.empty() || header[0] != "mrts.joblog.v1") {
    return fail(1, "expected mrts.joblog.v1 header");
  }
  std::uint64_t prcs = 0, cg = 0, classes = 0, max_blocks = 0,
                macroblocks = 0, max_queue = 0;
  // Optional field: logs written before the retention GC existed omit it.
  // Replays never poll status(), so the value is config-only here anyway.
  std::uint64_t retain_jobs = ServeConfig{}.retain_jobs;
  const struct {
    const char* key;
    std::uint64_t* value;
  } header_fields[] = {
      {"prcs", &prcs},
      {"cg", &cg},
      {"job_classes", &classes},
      {"max_blocks", &max_blocks},
      {"macroblocks", &macroblocks},
      {"max_queue", &max_queue},
      {"retain_jobs", &retain_jobs},
  };
  for (std::size_t i = 1; i < header.size(); ++i) {
    const std::string& tok = header[i];
    const std::size_t eq = tok.find('=');
    const std::string key = tok.substr(0, eq);
    const auto* field = std::find_if(
        std::begin(header_fields), std::end(header_fields),
        [&key](const auto& f) { return key == f.key; });
    if (eq == std::string::npos || field == std::end(header_fields)) {
      return fail(1, "unknown header field '" + tok + "'");
    }
    // The server's own flag bounds: a header a server could not have run
    // with (a huge macroblock loop, say) fails here, not in the first job.
    const ServeConfigBound& bound = serve_config_bound(key);
    const std::string value = tok.substr(eq + 1);
    if (!parse_uint(value, bound.hi, field->value) ||
        *field->value < bound.lo) {
      return fail(1, out_of_range("header field " + key, value, bound.lo,
                                  bound.hi));
    }
  }
  if (prcs == 0 || cg == 0 || classes == 0 || max_blocks == 0 ||
      macroblocks == 0 || max_queue == 0) {
    return fail(1, "incomplete header");
  }
  // Every value lies within its bound (checked above), so the casts are
  // exact.
  ServeConfig config;
  config.prcs = static_cast<unsigned>(prcs);
  config.cg = static_cast<unsigned>(cg);
  config.job_classes = static_cast<unsigned>(classes);
  config.max_blocks = static_cast<unsigned>(max_blocks);
  config.macroblocks = static_cast<unsigned>(macroblocks);
  config.max_queue = static_cast<std::size_t>(max_queue);
  config.retain_jobs = static_cast<std::size_t>(retain_jobs);
  result.config = config;

  ServeCore core(config);
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string> tok = split_ws(line);
    if (tok.empty()) continue;  // blank, whatever its whitespace
    if (tok[0] == "submit") {
      if (tok.size() != 11) return fail(line_no, "submit needs 10 fields");
      SubmitFrame spec;
      std::uint64_t id = 0, share = 0, weight = 0, rp = 0, rcg = 0, prio = 0,
                    klass = 0, blocks = 0, seed = 0;
      const struct {
        std::size_t column;
        const char* name;
        std::uint64_t max;  ///< widest value of the SubmitFrame field
        std::uint64_t* value;
      } submit_fields[] = {
          {1, "id", UINT64_MAX, &id},
          {3, "share", UINT8_MAX, &share},
          {4, "weight", UINT32_MAX, &weight},
          {5, "reserved_prcs", UINT32_MAX, &rp},
          {6, "reserved_cg", UINT32_MAX, &rcg},
          {7, "priority", UINT32_MAX, &prio},
          {8, "job_class", UINT32_MAX, &klass},
          {9, "blocks", UINT32_MAX, &blocks},
          {10, "seed", UINT64_MAX, &seed},
      };
      for (const auto& field : submit_fields) {
        if (!parse_uint(tok[field.column], field.max, field.value)) {
          return fail(line_no,
                      out_of_range(std::string("submit ") + field.name,
                                   tok[field.column], 0, field.max));
        }
      }
      spec.name = tok[2];
      spec.share = static_cast<std::uint8_t>(share);
      spec.weight = static_cast<std::uint32_t>(weight);
      spec.reserved_prcs = static_cast<std::uint32_t>(rp);
      spec.reserved_cg = static_cast<std::uint32_t>(rcg);
      spec.priority = static_cast<std::uint32_t>(prio);
      spec.job_class = static_cast<std::uint32_t>(klass);
      spec.blocks = static_cast<std::uint32_t>(blocks);
      spec.seed = seed;
      std::string why;
      if (!core.validate_spec(spec, &why)) return fail(line_no, why);
      const std::uint64_t got = core.submit(0, spec);
      if (got != id) {
        return fail(line_no, "job id mismatch (log " + std::to_string(id) +
                                 ", replay " + std::to_string(got) + ")");
      }
    } else if (tok[0] == "run") {
      std::uint64_t id = 0;
      if (tok.size() != 2 || !parse_u64(tok[1], &id)) {
        return fail(line_no, "bad run line");
      }
      if (core.queue_depth() == 0) return fail(line_no, "run with empty queue");
      const std::uint64_t head =
          core.queue_position(id) == 0 && core.job(id) != nullptr &&
                  core.job(id)->state == JobState::kQueued
              ? id
              : 0;
      if (head != id) return fail(line_no, "run order mismatch");
      core.run_next();
    } else if (tok[0] == "cancel") {
      std::uint64_t id = 0;
      if (tok.size() != 2 || !parse_u64(tok[1], &id)) {
        return fail(line_no, "bad cancel line");
      }
      bool cancelled = false;
      WireError err = WireError::kNone;
      if (!core.cancel(id, 0, &cancelled, &err) || !cancelled) {
        return fail(line_no, "cancel failed in replay");
      }
    } else {
      return fail(line_no, "unknown op '" + tok[0] + "'");
    }
  }

  for (std::uint64_t id = 1; id <= core.jobs_created(); ++id) {
    const JobRecord* job = core.job(id);
    if (job == nullptr) continue;
    ReplayJob out;
    out.id = id;
    out.state = job->state;
    out.reason = job->reason;
    out.admitted_at = job->admitted_at;
    out.finished_at = job->finished_at;
    out.report_json = job->report_json;
    out.counters_delta = job->counters_delta;
    result.jobs.push_back(std::move(out));
  }
  result.ok = true;
  return result;
}

void write_replay_record(std::ostream& os, const ReplayJob& job) {
  os << "== job " << job.id << ' ' << to_string(job.state) << '\n';
  if (!job.reason.empty()) os << "reason: " << job.reason << '\n';
  if (job.state == JobState::kDone) {
    os << job.report_json;
    if (!job.report_json.empty() && job.report_json.back() != '\n') os << '\n';
    os << "-- counters\n" << job.counters_delta;
  }
}

}  // namespace mrts::serve
