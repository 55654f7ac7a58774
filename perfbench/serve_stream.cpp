// serve_stream: the mrts_serve request path without sockets. One resident
// ServeCore runs with the documented defaults; the benchmark plays
// mrts_loadgen's connection cycles against it: a fresh Session, HELLO,
// kJobsPerCycle SUBMITs from loadgen's job mix (oversized reservations
// included, which bounce), a CANCEL on every kCancelEvery-th cycle, a POLL of
// every job to its final state and DISCONNECT. As in Server::run, the core
// drains its queue (run_all) after every I/O round. A job's latency runs
// from encoding its SUBMIT to decoding its final JOB_STATUS. A round is
// kRoundCycles cycles; the job mix restarts from the seed every round, so
// each job spec recurs once per round and is timed by its fastest repeat.
// The cycle shape (2 SUBMITs per connection, a CANCEL every 5th cycle) is
// the one the repository's own serve soak and smoke runs give mrts_loadgen
// (--jobs-per-cycle 2 --cancel-every 5).
//
// Why this workload: thousands of short jobs (1-2 blocks each) in which the
// fixed per-job costs dominate: input generation and the MRts build per job,
// an attached recorder and counter registry, analyze_trace plus report JSON,
// and the CRC-checked codec.

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "harness.h"
#include "serve/serve_core.h"
#include "serve/session.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace mrts;
using namespace mrts::serve;

constexpr unsigned kJobsPerCycle = 2;
constexpr unsigned kCancelEvery = 5;
/// About 1950 done jobs per round: a p99 of host time needs ten beyond it.
constexpr std::size_t kRoundCycles = 1000;
/// Sample: the first 500 cycles, i.e. 1000 SUBMITs.
constexpr std::size_t kSampleCycles = 500;
/// The replay check covers the job log of the first 10000 cycles (20000
/// SUBMITs). A replay holds every report it reproduces in memory, about
/// 3 KiB each, so the whole log of a 36 s run would need 1 to 2 GB.
constexpr std::size_t kReplayCycles = 10000;
constexpr std::uint64_t kLoadgenStream = 0x6c67;  // "lg"

/// mrts_loadgen's job mix: mostly weighted pool tenants, some best-effort,
/// an occasional reservation, a few of them oversized on purpose so they
/// bounce at admission.
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

std::uint64_t report_hash(const std::string& report_json,
                          const std::string& counters_delta) {
  return fnv1a(counters_delta.data(), counters_delta.size(),
               fnv1a(report_json.data(), report_json.size()));
}

/// Sum of the "ecu.executions.<kernel> +<n>" lines of a counter delta.
std::uint64_t kernel_executions(const std::string& counters_delta) {
  static const std::string kPrefix = "ecu.executions.";
  std::uint64_t total = 0;
  for (std::size_t line = 0; line < counters_delta.size();) {
    std::size_t end = counters_delta.find('\n', line);
    if (end == std::string::npos) end = counters_delta.size();
    if (counters_delta.compare(line, kPrefix.size(), kPrefix) == 0) {
      const std::size_t plus = counters_delta.find(" +", line);
      if (plus < end) {
        total += std::strtoull(counters_delta.c_str() + plus + 2, nullptr, 10);
      }
    }
    line = end + 1;
  }
  return total;
}

/// Minimal RFC 8259 syntax check: true when \p text is exactly one JSON
/// value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool valid() {
    ws();
    if (!value(0)) return false;
    ws();
    return p_ == end_;
  }

 private:
  void ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\n' || *p_ == '\r' ||
                         *p_ == '\t')) {
      ++p_;
    }
  }
  bool eat(char c) {
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }
  bool value(int depth) {
    if (depth > 64 || p_ >= end_) return false;
    switch (*p_) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object(int depth) {
    ++p_;
    ws();
    if (eat('}')) return true;
    do {
      ws();
      if (!string()) return false;
      ws();
      if (!eat(':')) return false;
      ws();
      if (!value(depth + 1)) return false;
      ws();
    } while (eat(','));
    return eat('}');
  }
  bool array(int depth) {
    ++p_;
    ws();
    if (eat(']')) return true;
    do {
      ws();
      if (!value(depth + 1)) return false;
      ws();
    } while (eat(','));
    return eat(']');
  }
  bool string() {
    if (!eat('"')) return false;
    while (p_ < end_ && *p_ != '"') {
      if (static_cast<unsigned char>(*p_) < 0x20) return false;
      if (*p_ == '\\') ++p_;
      ++p_;
    }
    return eat('"');
  }
  bool literal(const char* word) {
    for (; *word != '\0'; ++word) {
      if (!eat(*word)) return false;
    }
    return true;
  }
  bool number() {
    const char* start = p_;
    eat('-');
    while (p_ < end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                         *p_ == 'e' || *p_ == 'E' || *p_ == '+' ||
                         *p_ == '-')) {
      ++p_;
    }
    return p_ > start && (p_[-1] >= '0' && p_[-1] <= '9');
  }

  const char* p_;
  const char* end_;
};

bool is_run_report(const std::string& json) {
  return JsonChecker(json).valid() &&
         json.find("\"mrts.run_report.v1\"") != std::string::npos;
}

/// A done job of the sample, kept for the sim metrics.
struct SampleJob {
  SubmitFrame spec;
  std::uint64_t latency_cycles = 0;
};

class ServeStream final : public Workload {
 public:
  explicit ServeStream(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer* tracer) override {
    {
      // The constructor's work is almost all its ISE library build.
      ScopedSpan span(tracer, "isa.library", Layer::kIsa);
      core_ = std::make_unique<ServeCore>(ServeConfig{});
    }
    counts_ = Counts{};
    delivered_.clear();
    replay_lines_ = 0;
    sample_.clear();
    resident_max_ = 0;
    // Warm-up: one cycle from its own stream, so the timed job mix is the
    // same whether or not set-up ran before. The stream does not depend on
    // the workload seed: two jobs are too few to average out the job mix
    // (a bounce or a 1-block pair halves the cycle's work), and set-up must
    // do the same work at every seed.
    rng_ = Rng(derive_seed(0, kLoadgenStream, 1));
    run_cycle(0, tracer, nullptr, false);
  }

  std::size_t round_steps() const override { return kRoundCycles; }
  std::size_t sample_steps() const override { return kSampleCycles; }
  /// The resident core's fabric and clock carry over from round to round.
  bool repeats_outputs() const override { return false; }

  StepResult step(std::size_t index, Tracer* tracer) override {
    if (index % kRoundCycles == 0) {
      rng_ = Rng(derive_seed(seed_, kLoadgenStream));
    }
    const bool sampled = index < kSampleCycles;
    StepResult result = run_cycle(index + 1, tracer, sampled ? &counts_ : nullptr,
                                  index < kReplayCycles);
    if (index < kReplayCycles) replay_lines_ = core_->job_log().size();
    if (sampled) {
      resident_max_ = std::max(resident_max_, core_->resident_jobs());
      if (index + 1 == kSampleCycles) {
        counts_.add("serve.resident_jobs_max",
                    static_cast<double>(resident_max_), "records");
        counts_.add("serve.job_log_lines",
                    static_cast<double>(core_->job_log().size()), "lines");
      }
    }
    return result;
  }

  const Counts& counts() const override { return counts_; }

  void finish(CheckResult& checks, SimMetrics& sim) override {
    // Replaying the job log must reproduce every delivered report byte for
    // byte; the replayed copies are then parsed, which checks the delivered
    // ones too. A prefix of a job log is itself a complete log.
    std::string log;
    for (std::size_t i = 0; i < replay_lines_; ++i) {
      log += core_->job_log()[i];
      log += '\n';
    }
    std::istringstream in(log);
    const ReplayResult replay = replay_job_log(in);
    checks.expect(replay.ok, "serve_stream: job-log replay failed: " +
                                 replay.error);
    std::size_t matched = 0;
    for (const ReplayJob& job : replay.jobs) {
      const auto it = delivered_.find(job.id);
      if (it == delivered_.end()) continue;
      ++matched;
      checks.expect(report_hash(job.report_json, job.counters_delta) ==
                        it->second,
                    "serve_stream: replayed report differs for job " +
                        std::to_string(job.id));
      checks.expect(is_run_report(job.report_json),
                    "serve_stream: report of job " + std::to_string(job.id) +
                        " is not mrts.run_report.v1 JSON");
    }
    checks.expect(matched == delivered_.size(),
                  "serve_stream: replay lacks delivered jobs");

    // RISC-only reference: the same SUBMIT on a core with no fabric, where
    // every execution runs on the core instruction set. Pool share, because
    // a reservation cannot be admitted on an empty fabric.
    ServeConfig risc_config;
    risc_config.prcs = 0;
    risc_config.cg = 0;
    ServeCore risc(risc_config);
    std::vector<double> speedups;
    std::vector<double> latencies;
    double blocks = 0.0;
    double cycles = 0.0;
    for (const SampleJob& job : sample_) {
      SubmitFrame spec = job.spec;
      spec.share = static_cast<std::uint8_t>(WireShare::kWeighted);
      spec.weight = 1;
      spec.reserved_prcs = 0;
      spec.reserved_cg = 0;
      const std::uint64_t id = risc.submit(1, spec);
      risc.run_all();
      JobStatusFrame status;
      const bool ok = id != 0 && risc.status(id, &status) &&
                      status.state == static_cast<std::uint8_t>(
                                          WireJobState::kDone);
      checks.expect(ok, "serve_stream: RISC-only reference job failed");
      if (ok) {
        speedups.push_back(static_cast<double>(status.latency_cycles) /
                           static_cast<double>(job.latency_cycles));
      }
      latencies.push_back(static_cast<double>(job.latency_cycles));
      blocks += job.spec.blocks;
      cycles += static_cast<double>(job.latency_cycles);
    }
    std::sort(latencies.begin(), latencies.end());
    sim.speedup_vs_risc = geomean(speedups);
    sim.blocks_per_mcycle = cycles > 0.0 ? blocks * 1e6 / cycles : 0.0;
    sim.job_p99_cycles = latencies.empty() ? 0.0 : nearest_rank(latencies, 0.99);
  }

 private:
  /// One request/response exchange of a request/response client against
  /// Server::run: the session consumes the request, the core drains its
  /// queue, and the client decodes the reply frame.
  struct Exchange {
    ServeStream* self;
    Session* session;
    FrameDecoder decoder;
    Tracer* tracer;
    /// Span of the last Session::consume call (-1 untraced).
    std::int32_t consume_span = -1;

    bool send(const std::vector<std::uint8_t>& request, const char* span_name,
              Frame* reply) {
      std::vector<std::uint8_t> out;
      {
        ScopedSpan span(tracer, span_name, Layer::kServe);
        consume_span = span.index();
        session->consume(request, &out);
      }
      self->drain(tracer);
      ScopedSpan codec(tracer, "serve.client_codec", Layer::kServe);
      codec.add_work(static_cast<double>(out.size()));
      decoder.feed(out);
      if (decoder.next(reply) != FrameDecoder::Result::kFrame) return false;
      // Every request of the cycle is valid: an ERROR frame is a failure.
      return reply->type != static_cast<std::uint8_t>(FrameType::kError);
    }
  };

  /// Encodes \p frame on the client side.
  template <typename F>
  static std::vector<std::uint8_t> encode_request(const F& frame,
                                                  Tracer* tracer) {
    ScopedSpan codec(tracer, "serve.client_codec", Layer::kServe);
    std::vector<std::uint8_t> bytes = encode(frame);
    codec.add_work(static_cast<double>(bytes.size()));
    return bytes;
  }

  void drain(Tracer* tracer) {
    if (tracer == nullptr) {
      core_->run_all();
      return;
    }
    while (true) {
      ScopedSpan span(tracer, "serve.run_next", Layer::kServe);
      if (!core_->run_next()) {
        span.rename("serve.run_next_idle");
        break;
      }
    }
  }

  struct Pending {
    std::uint64_t id = 0;
    SubmitFrame spec;
    Clock::time_point submitted;
  };

  /// Runs connection cycle \p cycle; \p replayed keeps the hashes of its
  /// delivered reports for the replay check.
  StepResult run_cycle(std::uint64_t cycle, Tracer* tracer, Counts* counts,
                       bool replayed) {
    StepResult result;
    Session session(static_cast<std::uint32_t>(cycle + 1), core_.get());
    Exchange ex{this, &session, FrameDecoder{}, tracer};
    auto fail = [&result] { ++result.failed; };

    Frame reply;
    HelloOkFrame shape;
    HelloFrame hello;
    hello.client_name = "perfbench";
    if (!ex.send(encode_request(hello, tracer), "serve.hello", &reply) ||
        !decode(reply, &shape)) {
      fail();
      return result;
    }

    std::vector<Pending> pending;
    for (unsigned j = 0; j < kJobsPerCycle; ++j) {
      Pending p;
      p.spec = make_job(rng_, shape, cycle, j);
      ++result.attempted;
      p.submitted = Clock::now();
      SubmitOkFrame ok;
      if (!ex.send(encode_request(p.spec, tracer), "serve.submit", &reply) ||
          !decode(reply, &ok)) {
        fail();
        continue;
      }
      p.id = ok.job_id;
      pending.push_back(p);
    }
    if (cycle % kCancelEvery == 0 && !pending.empty()) {
      // The job already ran in the I/O round of its SUBMIT, so the cancel
      // is answered "too late", as it is against the live server.
      CancelOkFrame ok;
      if (!ex.send(encode_request(CancelFrame{pending.back().id}, tracer),
                   "serve.cancel", &reply) ||
          !decode(reply, &ok) || ok.cancelled != 0) {
        fail();
      }
    }
    for (const Pending& p : pending) {
      JobStatusFrame status;
      bool final_state = false;
      for (int attempt = 0; attempt < 4 && !final_state; ++attempt) {
        if (!ex.send(encode_request(PollFrame{p.id}, tracer), "serve.poll",
                     &reply) ||
            !decode(reply, &status)) {
          break;
        }
        final_state =
            status.state != static_cast<std::uint8_t>(WireJobState::kQueued);
        if (tracer != nullptr && status.report_included == 1) {
          tracer->rename(ex.consume_span, "serve.poll_report");
        }
      }
      const Clock::time_point answered = Clock::now();
      if (!final_state) {
        fail();
        continue;
      }
      const auto state = static_cast<WireJobState>(status.state);
      if (state == WireJobState::kBounced) {
        // Only a reservation can be refused, and always with a reason.
        const bool expected =
            p.spec.share == static_cast<std::uint8_t>(WireShare::kReserved) &&
            !status.reason.empty();
        if (!expected) fail();
        if (counts != nullptr) counts->add("serve.jobs_bounced", 1, "jobs");
        continue;
      }
      if (state != WireJobState::kDone || status.report_included != 1 ||
          status.report_json.empty()) {
        fail();
        continue;
      }
      ++result.completed;
      result.latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(answered - p.submitted)
              .count());
      const std::uint64_t executions = kernel_executions(status.counters_delta);
      result.kernel_executions += executions;
      // Reports the replay check covers are hashed in full; past them the
      // digest keeps the report's size, so the timed loop does not hash
      // every report byte.
      std::uint64_t report = status.report_json.size();
      if (replayed) {
        report = report_hash(status.report_json, status.counters_delta);
        delivered_[status.job_id] = report;
      }
      result.digest = fnv1a_u64(
          status.latency_cycles,
          fnv1a_u64(executions, fnv1a_u64(report, result.digest)));
      if (counts != nullptr) {
        counts->add("serve.jobs_done", 1, "jobs");
        counts->add("serve.report_bytes",
                    static_cast<double>(status.report_json.size()), "bytes");
        counts->add("sim.blocks", p.spec.blocks, "blocks");
        counts->add("sim.cycles", static_cast<double>(status.latency_cycles),
                    "cycles");
        counts->add("sim.kernel_executions", static_cast<double>(executions),
                    "executions");
        sample_.push_back({p.spec, status.latency_cycles});
      }
    }
    if (counts != nullptr) {
      counts->add("serve.jobs_submitted", static_cast<double>(result.attempted),
                  "jobs");
    }

    ByeFrame bye;
    if (!ex.send(encode_request(DisconnectFrame{}, tracer), "serve.disconnect",
                 &reply) ||
        !decode(reply, &bye)) {
      fail();
    }
    return result;
  }

  std::uint64_t seed_;
  std::unique_ptr<ServeCore> core_;
  Rng rng_;
  Counts counts_;
  /// Job id -> hash of the report and counter delta delivered for it, for
  /// the jobs the replay check covers.
  std::unordered_map<std::uint64_t, std::uint64_t> delivered_;
  /// Job-log lines the replay check replays.
  std::size_t replay_lines_ = 0;
  std::vector<SampleJob> sample_;
  std::size_t resident_max_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_stream(std::uint64_t seed) {
  return std::make_unique<ServeStream>(seed);
}

}  // namespace perfbench
