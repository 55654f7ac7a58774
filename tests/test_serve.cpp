// Tests for the socket-free serving layer: ServeCore job lifecycle
// (admission, FIFO execution, exactly-once report delivery, cancel
// semantics, job-log replay identity) and the Session protocol state
// machine driven purely with byte strings — the HELLO gate, version
// negotiation, error-code selection, DISCONNECT accounting, fatal-framing
// teardown and garbage-byte survival of docs/PROTOCOL.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/serve_core.h"
#include "serve/session.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace mrts::serve {
namespace {

/// Small resident shape so each job simulates in well under a second.
ServeConfig small_config() {
  ServeConfig config;
  config.prcs = 4;
  config.cg = 1;
  config.job_classes = 2;
  config.max_blocks = 8;
  config.macroblocks = 4;
  config.max_queue = 8;
  return config;
}

SubmitFrame weighted_job(const std::string& name, std::uint64_t seed) {
  SubmitFrame spec;
  spec.name = name;
  spec.share = static_cast<std::uint8_t>(WireShare::kWeighted);
  spec.weight = 2;
  spec.job_class = 1;
  spec.blocks = 1;
  spec.seed = seed;
  return spec;
}

// ---------------------------------------------------------------------------
// ServeCore
// ---------------------------------------------------------------------------

TEST(ServeCore, SubmitRunStatusDeliversReportExactlyOnce) {
  ServeCore core(small_config());
  const std::uint64_t id = core.submit(1, weighted_job("t1", 42));
  ASSERT_EQ(id, 1u);
  ASSERT_EQ(core.job(id)->state, JobState::kQueued);
  EXPECT_EQ(core.queue_depth(), 1u);

  EXPECT_TRUE(core.run_next());
  EXPECT_EQ(core.job(id)->state, JobState::kDone);
  EXPECT_EQ(core.queue_depth(), 0u);
  EXPECT_GT(core.clock(), 0u);

  JobStatusFrame first;
  ASSERT_TRUE(core.status(id, &first));
  EXPECT_EQ(first.state, static_cast<std::uint8_t>(WireJobState::kDone));
  EXPECT_EQ(first.report_included, 1);
  EXPECT_NE(first.report_json.find("mrts.run_report.v1"), std::string::npos);
  EXPECT_FALSE(first.counters_delta.empty());
  EXPECT_EQ(first.latency_cycles, first.finished_at - first.admitted_at);

  // Second poll: metadata repeats, the report was freed after delivery.
  JobStatusFrame second;
  ASSERT_TRUE(core.status(id, &second));
  EXPECT_EQ(second.report_included, 0);
  EXPECT_TRUE(second.report_json.empty());
  EXPECT_EQ(second.finished_at, first.finished_at);
}

TEST(ServeCore, ValidateSpecEnforcesDocumentedRanges) {
  ServeCore core(small_config());
  std::string why;

  SubmitFrame ok = weighted_job("ok_name.0-1", 1);
  EXPECT_TRUE(core.validate_spec(ok, &why));

  SubmitFrame bad = ok;
  bad.name = "";
  EXPECT_FALSE(core.validate_spec(bad, &why));
  bad.name = std::string(65, 'a');
  EXPECT_FALSE(core.validate_spec(bad, &why));
  bad.name = "spaces are bad";
  EXPECT_FALSE(core.validate_spec(bad, &why));
  EXPECT_NE(why.find("[A-Za-z0-9_.-]"), std::string::npos);

  bad = ok;
  bad.share = 3;
  EXPECT_FALSE(core.validate_spec(bad, &why));

  bad = ok;
  bad.weight = 0;
  EXPECT_FALSE(core.validate_spec(bad, &why));
  bad.weight = 1001;
  EXPECT_FALSE(core.validate_spec(bad, &why));
  // Weight is a weighted-share knob only: ignored for best-effort.
  bad.share = static_cast<std::uint8_t>(WireShare::kBestEffort);
  EXPECT_TRUE(core.validate_spec(bad, &why));

  bad = ok;
  bad.priority = 1000001;
  EXPECT_FALSE(core.validate_spec(bad, &why));

  bad = ok;
  bad.job_class = small_config().job_classes;
  EXPECT_FALSE(core.validate_spec(bad, &why));

  bad = ok;
  bad.blocks = 0;
  EXPECT_FALSE(core.validate_spec(bad, &why));
  bad.blocks = small_config().max_blocks + 1;
  EXPECT_FALSE(core.validate_spec(bad, &why));
}

TEST(ServeCore, OversizedReservationBouncesWithReason) {
  ServeCore core(small_config());
  SubmitFrame spec = weighted_job("greedy", 1);
  spec.share = static_cast<std::uint8_t>(WireShare::kReserved);
  spec.reserved_prcs = small_config().prcs + 1;
  const std::uint64_t id = core.submit(1, spec);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(core.job(id)->state, JobState::kBounced);
  EXPECT_FALSE(core.job(id)->reason.empty());
  EXPECT_EQ(core.queue_depth(), 0u);

  // A bounced tenant releases its slot: a follow-up sane job still fits.
  const std::uint64_t next = core.submit(1, weighted_job("sane", 2));
  core.run_all();
  EXPECT_EQ(core.job(next)->state, JobState::kDone);
}

TEST(ServeCore, CancelSemantics) {
  ServeCore core(small_config());
  const std::uint64_t first = core.submit(1, weighted_job("a", 1));
  const std::uint64_t second = core.submit(1, weighted_job("b", 2));
  EXPECT_EQ(core.queue_position(second), 1u);

  bool cancelled = false;
  WireError error = WireError::kNone;

  // Unknown job.
  EXPECT_FALSE(core.cancel(999, 1, &cancelled, &error));
  EXPECT_EQ(error, WireError::kUnknownJob);

  // Foreign owner.
  EXPECT_FALSE(core.cancel(second, 2, &cancelled, &error));
  EXPECT_EQ(error, WireError::kForeignJob);

  // Queued: cancels, leaves the queue, frees the arbiter slot.
  EXPECT_TRUE(core.cancel(second, 1, &cancelled, &error));
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(core.job(second)->state, JobState::kCancelled);
  EXPECT_EQ(core.queue_depth(), 1u);

  // Already ran: "too late" is a success with cancelled = false.
  EXPECT_TRUE(core.run_next());
  EXPECT_TRUE(core.cancel(first, 1, &cancelled, &error));
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(core.job(first)->state, JobState::kDone);

  // Replay-style owner 0 bypasses the ownership check.
  const std::uint64_t third = core.submit(7, weighted_job("c", 3));
  EXPECT_TRUE(core.cancel(third, 0, &cancelled, &error));
  EXPECT_TRUE(cancelled);
}

TEST(ServeCore, CancelAllOnlyTouchesTheOwner) {
  ServeCore core(small_config());
  core.submit(1, weighted_job("s1a", 1));
  core.submit(2, weighted_job("s2a", 2));
  core.submit(1, weighted_job("s1b", 3));
  EXPECT_EQ(core.cancel_all(1), 2u);
  EXPECT_EQ(core.queue_depth(), 1u);
  EXPECT_EQ(core.cancel_all(1), 0u);  // idempotent
}

TEST(ServeCore, QueueFullAndDrainingRejectSubmits) {
  ServeConfig config = small_config();
  config.max_queue = 2;
  ServeCore core(config);
  EXPECT_NE(core.submit(1, weighted_job("q1", 1)), 0u);
  EXPECT_NE(core.submit(1, weighted_job("q2", 2)), 0u);
  EXPECT_EQ(core.submit(1, weighted_job("q3", 3)), 0u);  // queue full
  EXPECT_EQ(core.jobs_created(), 2u);  // the rejected submit left no record

  core.begin_drain();
  EXPECT_EQ(core.submit(1, weighted_job("late", 4)), 0u);
  core.run_all();  // queued jobs still run to completion while draining
  EXPECT_EQ(core.job(1)->state, JobState::kDone);
  EXPECT_EQ(core.job(2)->state, JobState::kDone);
}

TEST(ServeCore, SameOpSequenceIsDeterministic) {
  auto drive = [](ServeCore& core) {
    core.submit(1, weighted_job("d1", 11));
    SubmitFrame res = weighted_job("d2", 22);
    res.share = static_cast<std::uint8_t>(WireShare::kReserved);
    res.reserved_prcs = 2;
    core.submit(1, res);
    core.run_all();
  };
  ServeCore a(small_config());
  ServeCore b(small_config());
  drive(a);
  drive(b);
  for (std::uint64_t id = 1; id <= 2; ++id) {
    JobStatusFrame sa, sb;
    ASSERT_TRUE(a.status(id, &sa));
    ASSERT_TRUE(b.status(id, &sb));
    EXPECT_EQ(sa.report_json, sb.report_json) << "job " << id;
    EXPECT_EQ(sa.counters_delta, sb.counters_delta) << "job " << id;
    EXPECT_EQ(sa.finished_at, sb.finished_at) << "job " << id;
  }
}

TEST(ServeCore, RetentionGcBoundsResidentRecords) {
  ServeConfig config = small_config();
  config.max_queue = 4;
  config.retain_jobs = 3;
  ServeCore core(config);

  // Churn: submit, run, poll-to-delivery. Every poll of a finished job
  // retires it; resident records must stay bounded while the lifetime
  // tallies keep counting.
  constexpr std::uint64_t kJobs = 12;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    const std::uint64_t id = core.submit(1, weighted_job("gc", 100 + i));
    ASSERT_NE(id, 0u);
    ASSERT_TRUE(core.run_next());
    JobStatusFrame frame;
    ASSERT_TRUE(core.status(id, &frame));
    EXPECT_EQ(frame.report_included, 1);
    EXPECT_LE(core.resident_jobs(), config.retain_jobs);
  }
  EXPECT_EQ(core.jobs_created(), kJobs);
  EXPECT_EQ(core.jobs_done(), kJobs);
  EXPECT_EQ(core.resident_jobs(), config.retain_jobs);

  // Reclaimed ids poll as unknown; the most recent retain_jobs survive.
  JobStatusFrame frame;
  EXPECT_FALSE(core.status(1, &frame));
  EXPECT_EQ(core.job(1), nullptr);
  EXPECT_TRUE(core.status(kJobs, &frame));
  EXPECT_EQ(frame.report_included, 0);  // already delivered, metadata only

  // An undelivered report is never reclaimed: run jobs without polling
  // them and the records stay resident past the retention bound.
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_NE(core.submit(1, weighted_job("gc", 200 + i)), 0u);
    ASSERT_TRUE(core.run_next());
  }
  EXPECT_EQ(core.resident_jobs(), config.retain_jobs + 4);
  EXPECT_EQ(core.jobs_done(), kJobs + 4);

  // A bounced job retires on its first poll (no payload to deliver).
  SubmitFrame hog = weighted_job("hog", 1);
  hog.share = static_cast<std::uint8_t>(WireShare::kReserved);
  hog.reserved_prcs = 999;
  const std::uint64_t bounced = core.submit(1, hog);
  ASSERT_EQ(core.job(bounced)->state, JobState::kBounced);
  ASSERT_TRUE(core.status(bounced, &frame));
  EXPECT_EQ(core.jobs_bounced(), 1u);
  EXPECT_TRUE(core.job(bounced)->retired);
}

TEST(ServeCore, QueuedJobsAreNeverReclaimed) {
  ServeConfig config = small_config();
  config.retain_jobs = 0;  // reclaim immediately on delivery
  ServeCore core(config);
  const std::uint64_t queued = core.submit(1, weighted_job("q", 7));
  JobStatusFrame frame;
  ASSERT_TRUE(core.status(queued, &frame));  // queued poll: no retirement
  EXPECT_FALSE(core.job(queued)->retired);
  ASSERT_TRUE(core.run_next());
  ASSERT_TRUE(core.status(queued, &frame));  // delivery poll retires + evicts
  EXPECT_EQ(core.job(queued), nullptr);
  EXPECT_EQ(core.resident_jobs(), 0u);
  EXPECT_EQ(core.jobs_created(), 1u);
  EXPECT_EQ(core.jobs_done(), 1u);
}

TEST(ServeCore, JobLogReplayReproducesReportsByteIdentically) {
  ServeCore core(small_config());
  core.submit(3, weighted_job("r1", 5));
  SubmitFrame bounced = weighted_job("r2", 6);
  bounced.share = static_cast<std::uint8_t>(WireShare::kReserved);
  bounced.reserved_prcs = small_config().prcs + 1;
  core.submit(3, bounced);
  const std::uint64_t to_cancel = core.submit(3, weighted_job("r3", 7));
  core.run_next();
  bool cancelled = false;
  core.cancel(to_cancel, 3, &cancelled, nullptr);
  core.submit(3, weighted_job("r4", 8));
  core.run_all();

  // Capture what the live side streamed (first-poll reports) as records.
  std::ostringstream live;
  for (std::uint64_t id = 1; id <= core.jobs_created(); ++id) {
    JobStatusFrame status;
    ASSERT_TRUE(core.status(id, &status));
    ReplayJob record;
    record.id = id;
    record.state = core.job(id)->state;
    record.reason = status.reason;
    record.admitted_at = status.admitted_at;
    record.finished_at = status.finished_at;
    record.report_json = status.report_json;
    record.counters_delta = status.counters_delta;
    write_replay_record(live, record);
  }

  std::ostringstream log;
  for (const std::string& line : core.job_log()) log << line << '\n';
  std::istringstream log_in(log.str());
  const ReplayResult replayed = replay_job_log(log_in);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  ASSERT_EQ(replayed.jobs.size(), core.jobs_created());

  std::ostringstream replay;
  for (const ReplayJob& job : replayed.jobs) write_replay_record(replay, job);
  EXPECT_EQ(live.str(), replay.str());
}

TEST(ServeCore, ReplayRejectsMalformedLogs) {
  auto replay_of = [](const std::string& text) {
    std::istringstream in(text);
    return replay_job_log(in);
  };
  EXPECT_FALSE(replay_of("").ok);
  EXPECT_FALSE(replay_of("not.a.joblog\n").ok);
  EXPECT_FALSE(replay_of("mrts.joblog.v1 prcs=4\n").ok);  // incomplete header
  const std::string header =
      "mrts.joblog.v1 prcs=4 cg=1 job_classes=2 max_blocks=8 macroblocks=4 "
      "max_queue=8\n";
  EXPECT_TRUE(replay_of(header).ok);  // empty op stream is a valid log
  EXPECT_FALSE(replay_of(header + "frobnicate 1\n").ok);
  EXPECT_FALSE(replay_of(header + "run 1\n").ok);  // run with empty queue
  EXPECT_FALSE(replay_of(header + "submit 1 t\n").ok);  // short submit
  // Job-id mismatch: the log claims id 5, a fresh core would assign 1.
  EXPECT_FALSE(replay_of(header + "submit 5 t 0 1 0 0 0 0 1 9\n").ok);
}

TEST(ServeCore, ReplayRejectsValuesWiderThanTheirField) {
  // Each of these used to be narrowed into a different, valid job (share 0,
  // 1 block, seed 5, 6 PRCs) and replayed without complaint.
  auto replay_error = [](const std::string& text) {
    std::istringstream in(text);
    const ReplayResult result = replay_job_log(in);
    EXPECT_FALSE(result.ok) << text;
    return result.error;
  };
  const std::string header =
      "mrts.joblog.v1 prcs=4 cg=1 job_classes=2 max_blocks=8 macroblocks=4 "
      "max_queue=8\n";
  EXPECT_EQ(replay_error(header + "submit 1 t1 256 1 0 0 0 0 1 7\n"),
            "joblog line 2: submit share '256' is not an integer in [0, 255]");
  EXPECT_EQ(replay_error(header + "submit 1 t1 0 1 0 0 0 0 4294967297 7\n"),
            "joblog line 2: submit blocks '4294967297' is not an integer in "
            "[0, 4294967295]");
  EXPECT_EQ(
      replay_error(header + "submit 1 t1 0 1 0 0 0 0 1 18446744073709551621\n"),
      "joblog line 2: submit seed '18446744073709551621' is not an integer in "
      "[0, 18446744073709551615]");
  EXPECT_EQ(replay_error("mrts.joblog.v1 prcs=4294967302 cg=1 job_classes=2 "
                         "max_blocks=8 macroblocks=4 max_queue=8\n"),
            "joblog line 1: header field prcs '4294967302' is not an integer "
            "in [1, 1024]");
  // A header value a server could not have run with is rejected before any
  // job runs, with the flag's bound: a 2^32 - 1 macroblock loop used to
  // end the replay in std::bad_alloc at its first run.
  EXPECT_EQ(replay_error("mrts.joblog.v1 prcs=4 cg=1 job_classes=2 "
                         "max_blocks=8 macroblocks=4294967295 max_queue=8\n"
                         "submit 1 t1 0 1 0 0 0 0 1 7\nrun 1\n"),
            "joblog line 1: header field macroblocks '4294967295' is not an "
            "integer in [1, 100000]");
  const struct {
    const char* field;
    const char* value;
    const char* range;
  } out_of_bounds[] = {
      {"prcs", "1025", "[1, 1024]"},
      {"cg", "1025", "[1, 1024]"},
      {"job_classes", "65", "[1, 64]"},
      {"max_blocks", "100001", "[1, 100000]"},
      {"macroblocks", "20000000", "[1, 100000]"},
      {"max_queue", "1000001", "[1, 1000000]"},
      {"retain_jobs", "1000001", "[0, 1000000]"},
      {"prcs", "0", "[1, 1024]"},
  };
  for (const auto& c : out_of_bounds) {
    std::string text =
        "mrts.joblog.v1 prcs=4 cg=1 job_classes=2 max_blocks=8 "
        "macroblocks=4 max_queue=8 retain_jobs=16\n";
    const std::string key = std::string(" ") + c.field + "=";
    const std::size_t at = text.find(key) + key.size();
    text.replace(at, text.find_first_of(" \n", at) - at, c.value);
    EXPECT_EQ(replay_error(text), std::string("joblog line 1: header field ") +
                                      c.field + " '" + c.value +
                                      "' is not an integer in " + c.range);
  }
  // Signs, blanks and stray characters are rejected the same way.
  EXPECT_FALSE(replay_error(header + "submit 1 t1 0 +1 0 0 0 0 1 7\n").empty());
  EXPECT_FALSE(replay_error(header + "submit 1 t1 0 1 0 0 0 0 1 7x\n").empty());
  EXPECT_FALSE(replay_error(header.substr(0, header.size() - 1) +
                            " retain_jobs=\n")
                   .empty());
  // The widest seed still replays, and so does the widest header.
  for (const std::string& head :
       {header, std::string("mrts.joblog.v1 prcs=1024 cg=1024 job_classes=64 "
                            "max_blocks=100000 macroblocks=100000 "
                            "max_queue=1000000 retain_jobs=1000000\n")}) {
    std::istringstream widest(
        head + "submit 1 t1 0 1 0 0 0 0 1 18446744073709551615\n");
    const ReplayResult ok = replay_job_log(widest);
    ASSERT_TRUE(ok.ok) << ok.error;
    ASSERT_EQ(ok.jobs.size(), 1u);
    EXPECT_EQ(ok.jobs[0].state, JobState::kQueued);
  }
}

// ---------------------------------------------------------------------------
// Fuzz: job-log replay of seeded damage to the committed golden log (the
// seeded pattern of tests/test_wire.cpp). Every replay either succeeds or
// fails with a "joblog line N: " error naming a line of its input.
// ---------------------------------------------------------------------------

std::string golden_joblog() {
  std::ifstream in(MRTS_GOLDEN_DIR "/serve_mix.joblog", std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text.append(line).push_back('\n');
  return text;
}

/// Replays \p text; returns the error (empty on success) after checking it
/// has the "joblog line N: " form with N a line of \p text.
std::string replay_error_of(const std::string& text) {
  std::istringstream in(text);
  const ReplayResult result = replay_job_log(in);
  if (result.ok) return {};
  const std::string prefix = "joblog line ";
  EXPECT_EQ(result.error.compare(0, prefix.size(), prefix), 0)
      << result.error;
  std::size_t at = prefix.size();
  std::size_t line = 0;
  while (at < result.error.size() &&
         std::isdigit(static_cast<unsigned char>(result.error[at]))) {
    line = line * 10 + static_cast<std::size_t>(result.error[at++] - '0');
  }
  EXPECT_EQ(result.error.compare(at, 2, ": "), 0) << result.error;
  const std::size_t lines =
      std::max<std::size_t>(1, split_lines(text).size());
  EXPECT_GE(line, 1u) << result.error;
  EXPECT_LE(line, lines) << result.error;
  return result.error;
}

TEST(JobLogFuzz, EveryLinePrefixReplays) {
  const std::vector<std::string> lines = split_lines(golden_joblog());
  ASSERT_GT(lines.size(), 40u);
  EXPECT_EQ(replay_error_of(""), "joblog line 1: empty log");
  // A prefix of a valid log is a valid log.
  for (std::size_t n = 1; n <= lines.size(); ++n) {
    const std::vector<std::string> prefix(lines.begin(), lines.begin() + n);
    EXPECT_EQ(replay_error_of(join_lines(prefix)), "") << n << " lines";
  }
}

TEST(JobLogFuzz, SingleByteCorruptionFailsCleanlyOrReplays) {
  const std::string log = golden_joblog();
  ASSERT_FALSE(log.empty());
  Rng rng(20261019);
  std::size_t failed = 0;
  for (int round = 0; round < 300; ++round) {
    std::string copy = log;
    const std::size_t pos = rng.next_below(copy.size());
    copy[pos] = static_cast<char>(copy[pos] ^ (1 + rng.next_below(255)));
    if (!replay_error_of(copy).empty()) ++failed;
  }
  // Most corruptions break a keyword, a field count or a job id.
  EXPECT_GT(failed, 150u);
}

TEST(JobLogFuzz, OversizedValueInEveryFieldIsRejected) {
  const std::vector<std::string> lines = split_lines(golden_joblog());
  ASSERT_GT(lines.size(), 3u);
  // One more than each field's widest value.
  const std::string u8 = "255", u32 = "4294967295";
  const std::string u64 = "18446744073709551615";
  const std::string wider_u8 = "256", wider_u32 = "4294967296";
  const std::string wider_u64 = "18446744073709551616";
  const auto tokens_of = [](const std::string& line) {
    std::istringstream in(line);
    std::vector<std::string> tokens;
    for (std::string tok; in >> tok;) tokens.push_back(tok);
    return tokens;
  };
  const auto joined = [](const std::vector<std::string>& tokens) {
    std::string line;
    for (const std::string& tok : tokens) {
      line.append(line.empty() ? "" : " ").append(tok);
    }
    return line;
  };

  // Every header field (line 1): key=value tokens after the magic. Header
  // values are bounded by the server's flags (kServeConfigBounds), so one
  // more than the bound fails, and so does a value wider than any field.
  const std::vector<std::string> header = tokens_of(lines[0]);
  ASSERT_EQ(header.size(), 8u);  // magic + 7 fields
  for (std::size_t i = 1; i < header.size(); ++i) {
    const std::string key = header[i].substr(0, header[i].find('='));
    const ServeConfigBound& bound = serve_config_bound(key);
    const std::string range = "[" + std::to_string(bound.lo) + ", " +
                              std::to_string(bound.hi) + "]";
    for (const std::string& value :
         {std::to_string(bound.hi + 1), wider_u64}) {
      std::vector<std::string> tokens = header;
      tokens[i] = key + "=" + value;
      std::vector<std::string> damaged = lines;
      damaged[0] = joined(tokens);
      EXPECT_EQ(replay_error_of(join_lines(damaged)),
                "joblog line 1: header field " + key + " '" + value +
                    "' is not an integer in " + range);
    }
  }

  // Every numeric field of the first submit (line 2).
  const struct {
    std::size_t column;
    const char* name;
    const std::string& wider;
    const std::string& max;
  } submit_fields[] = {
      {1, "id", wider_u64, u64},          {3, "share", wider_u8, u8},
      {4, "weight", wider_u32, u32},      {5, "reserved_prcs", wider_u32, u32},
      {6, "reserved_cg", wider_u32, u32}, {7, "priority", wider_u32, u32},
      {8, "job_class", wider_u32, u32},   {9, "blocks", wider_u32, u32},
      {10, "seed", wider_u64, u64},
  };
  const std::vector<std::string> submit = tokens_of(lines[1]);
  ASSERT_EQ(submit.size(), 11u);
  ASSERT_EQ(submit[0], "submit");
  for (const auto& field : submit_fields) {
    std::vector<std::string> tokens = submit;
    tokens[field.column] = field.wider;
    std::vector<std::string> damaged = lines;
    damaged[1] = joined(tokens);
    EXPECT_EQ(replay_error_of(join_lines(damaged)),
              std::string("joblog line 2: submit ") + field.name + " '" +
                  field.wider + "' is not an integer in [0, " + field.max +
                  "]");
  }

  // The id of the first run and the first cancel line.
  for (const char* op : {"run", "cancel"}) {
    const auto it = std::find_if(lines.begin(), lines.end(),
                                 [op](const std::string& line) {
                                   return line.rfind(std::string(op) + " ",
                                                     0) == 0;
                                 });
    ASSERT_NE(it, lines.end()) << op;
    std::vector<std::string> damaged = lines;
    const auto index = static_cast<std::size_t>(it - lines.begin());
    damaged[index] = std::string(op) + " " + wider_u64;
    EXPECT_EQ(replay_error_of(join_lines(damaged)),
              "joblog line " + std::to_string(index + 1) + ": bad " + op +
                  " line");
  }
}

TEST(JobLogFuzz, BlankLinesAreSkippedWhateverTheirWhitespace) {
  const std::vector<std::string> lines = split_lines(golden_joblog());
  ASSERT_GT(lines.size(), 2u);
  for (const char* blank : {"", " ", "\t", "\r", " \t\r"}) {
    std::vector<std::string> with_blank = lines;
    with_blank.insert(with_blank.begin() + 1, blank);
    EXPECT_EQ(replay_error_of(join_lines(with_blank)), "");
  }
}

// ---------------------------------------------------------------------------
// Session: the protocol state machine, driven with raw bytes.
// ---------------------------------------------------------------------------

/// Collects the response bytes and splits them back into decoded frames.
struct SessionHarness {
  ServeCore core;
  Session session;

  explicit SessionHarness(std::uint32_t id = 1)
      : core(small_config()), session(id, &core) {}

  /// Feeds one encoded request, returns the response frames. \p alive
  /// receives consume()'s keep-open verdict.
  std::vector<Frame> roundtrip(const std::vector<std::uint8_t>& bytes,
                               bool* alive = nullptr) {
    std::vector<std::uint8_t> out;
    const bool keep = session.consume(bytes, &out);
    if (alive != nullptr) *alive = keep;
    FrameDecoder decoder;
    decoder.feed(out);
    std::vector<Frame> frames;
    Frame frame;
    while (decoder.next(&frame) == FrameDecoder::Result::kFrame) {
      frames.push_back(frame);
    }
    EXPECT_EQ(decoder.buffered(), 0u);
    return frames;
  }

  void handshake() {
    const std::vector<Frame> frames = roundtrip(encode(HelloFrame{}));
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].type, static_cast<std::uint8_t>(FrameType::kHelloOk));
  }
};

ErrorFrame expect_error(const std::vector<Frame>& frames, WireError code) {
  ErrorFrame err;
  EXPECT_EQ(frames.size(), 1u);
  if (!frames.empty()) {
    EXPECT_EQ(frames[0].type, static_cast<std::uint8_t>(FrameType::kError));
    EXPECT_TRUE(decode(frames[0], &err));
    EXPECT_EQ(err.code, static_cast<std::uint16_t>(code));
  }
  return err;
}

TEST(Session, SubmitBeforeHelloIsAStateErrorTheSessionSurvives) {
  SessionHarness h;
  bool alive = false;
  const std::vector<Frame> frames =
      h.roundtrip(encode(weighted_job("early", 1)), &alive);
  const ErrorFrame err = expect_error(frames, WireError::kProtocolState);
  EXPECT_EQ(err.fatal, 0);
  EXPECT_TRUE(alive);
  h.handshake();  // HELLO still works afterwards
}

TEST(Session, HelloNegotiatesAndRepeatsAreRejected) {
  SessionHarness h(77);
  const std::vector<Frame> frames = h.roundtrip(encode(HelloFrame{1, "cli"}));
  ASSERT_EQ(frames.size(), 1u);
  HelloOkFrame ok;
  ASSERT_TRUE(decode(frames[0], &ok));
  EXPECT_EQ(ok.server_version, kWireVersion);
  EXPECT_EQ(ok.session_id, 77u);
  EXPECT_EQ(ok.prcs, 4u);
  EXPECT_EQ(ok.cg, 1u);
  EXPECT_EQ(ok.job_classes, 2u);

  expect_error(h.roundtrip(encode(HelloFrame{})), WireError::kProtocolState);
}

TEST(Session, UnsupportedClientVersionIsRecoverable) {
  SessionHarness h;
  bool alive = false;
  // The frame is well-formed v1; only the *requested* version is wrong, so
  // the reject is application-level and the connection survives.
  const std::vector<Frame> frames =
      h.roundtrip(encode(HelloFrame{2, "future"}), &alive);
  const ErrorFrame err = expect_error(frames, WireError::kBadVersion);
  EXPECT_EQ(err.fatal, 0);
  EXPECT_TRUE(alive);
  h.handshake();  // retrying with v1 succeeds
}

TEST(Session, FullJobLifecycleOverBytes) {
  SessionHarness h;
  h.handshake();

  std::vector<Frame> frames = h.roundtrip(encode(weighted_job("wire1", 9)));
  ASSERT_EQ(frames.size(), 1u);
  SubmitOkFrame submit_ok;
  ASSERT_TRUE(decode(frames[0], &submit_ok));
  EXPECT_EQ(submit_ok.job_id, 1u);
  EXPECT_EQ(submit_ok.admitted, 1);

  frames = h.roundtrip(encode(PollFrame{submit_ok.job_id}));
  JobStatusFrame status;
  ASSERT_TRUE(decode(frames.at(0), &status));
  EXPECT_EQ(status.state, static_cast<std::uint8_t>(WireJobState::kQueued));

  h.core.run_all();
  frames = h.roundtrip(encode(PollFrame{submit_ok.job_id}));
  ASSERT_TRUE(decode(frames.at(0), &status));
  EXPECT_EQ(status.state, static_cast<std::uint8_t>(WireJobState::kDone));
  EXPECT_EQ(status.report_included, 1);
  EXPECT_NE(status.report_json.find("mrts.run_report.v1"), std::string::npos);

  bool alive = true;
  frames = h.roundtrip(encode(DisconnectFrame{}), &alive);
  ASSERT_EQ(frames.size(), 1u);
  ByeFrame bye;
  ASSERT_TRUE(decode(frames[0], &bye));
  EXPECT_EQ(bye.jobs_submitted, 1u);
  EXPECT_EQ(bye.jobs_auto_cancelled, 0u);
  EXPECT_FALSE(alive);
  EXPECT_TRUE(h.session.closed());
}

TEST(Session, DisconnectAutoCancelsQueuedJobs) {
  SessionHarness h;
  h.handshake();
  h.roundtrip(encode(weighted_job("q1", 1)));
  h.roundtrip(encode(weighted_job("q2", 2)));
  bool alive = true;
  const std::vector<Frame> frames =
      h.roundtrip(encode(DisconnectFrame{}), &alive);
  ByeFrame bye;
  ASSERT_TRUE(decode(frames.at(0), &bye));
  EXPECT_EQ(bye.jobs_submitted, 2u);
  EXPECT_EQ(bye.jobs_auto_cancelled, 2u);
  EXPECT_FALSE(alive);
  EXPECT_EQ(h.core.queue_depth(), 0u);
  EXPECT_EQ(h.core.job(1)->state, JobState::kCancelled);
}

TEST(Session, AbortCancelsQueuedJobsAndIsIdempotent) {
  SessionHarness h;
  h.handshake();
  h.roundtrip(encode(weighted_job("crash", 1)));
  h.session.abort();
  EXPECT_TRUE(h.session.closed());
  EXPECT_EQ(h.core.queue_depth(), 0u);
  h.session.abort();  // second abort is a no-op
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(h.session.consume(encode(PollFrame{1}), &out));
  EXPECT_TRUE(out.empty());
}

TEST(Session, ErrorCodeSelection) {
  SessionHarness h(1);
  h.handshake();

  // Unknown job id.
  expect_error(h.roundtrip(encode(PollFrame{404})), WireError::kUnknownJob);

  // Foreign job: another session's submission.
  Session other(2, &h.core);
  std::vector<std::uint8_t> out;
  other.consume(encode(HelloFrame{}), &out);
  out.clear();
  other.consume(encode(weighted_job("theirs", 1)), &out);
  expect_error(h.roundtrip(encode(PollFrame{1})), WireError::kForeignJob);
  expect_error(h.roundtrip(encode(CancelFrame{1})), WireError::kForeignJob);

  // Invalid spec.
  SubmitFrame bad = weighted_job("bad name", 1);
  const ErrorFrame err = expect_error(h.roundtrip(encode(bad)),
                                      WireError::kBadSpec);
  EXPECT_EQ(err.fatal, 0);

  // Draining server.
  h.core.begin_drain();
  expect_error(h.roundtrip(encode(weighted_job("late", 2))),
               WireError::kShuttingDown);
}

TEST(Session, ServerSideFrameTypesAreProtocolErrors) {
  SessionHarness h;
  h.handshake();
  expect_error(h.roundtrip(encode(ByeFrame{})), WireError::kProtocolState);
  expect_error(h.roundtrip(encode(SubmitOkFrame{})),
               WireError::kProtocolState);
}

TEST(Session, UnknownFrameTypeIsRecoverable) {
  SessionHarness h;
  h.handshake();
  bool alive = false;
  const std::vector<Frame> frames = h.roundtrip(
      encode_frame(static_cast<FrameType>(0x0C), {}), &alive);
  expect_error(frames, WireError::kUnknownType);
  EXPECT_TRUE(alive);
}

TEST(Session, FatalFramingErrorSendsOneErrorAndCleansUp) {
  SessionHarness h;
  h.handshake();
  h.roundtrip(encode(weighted_job("doomed", 1)));
  ASSERT_EQ(h.core.queue_depth(), 1u);

  std::vector<std::uint8_t> garbage(32, 0xAB);  // not even a magic
  bool alive = false;
  const std::vector<Frame> frames = h.roundtrip(garbage, &alive);
  const ErrorFrame err = expect_error(frames, WireError::kBadMagic);
  EXPECT_EQ(err.fatal, 1);
  EXPECT_FALSE(alive);
  EXPECT_TRUE(h.session.closed());
  // The fatal teardown auto-cancelled the queued job, like a crash would.
  EXPECT_EQ(h.core.queue_depth(), 0u);
}

TEST(Session, TruncatedFrameAcrossFeedsStillParses) {
  SessionHarness h;
  const std::vector<std::uint8_t> hello = encode(HelloFrame{1, "slowpoke"});
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(h.session.consume(hello.data(), 5, &out));
  EXPECT_TRUE(out.empty());  // nothing answered for a partial frame
  EXPECT_TRUE(h.session.consume(hello.data() + 5, hello.size() - 5, &out));
  FrameDecoder decoder;
  decoder.feed(out);
  Frame frame;
  ASSERT_EQ(decoder.next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, static_cast<std::uint8_t>(FrameType::kHelloOk));
}

TEST(Session, SeededGarbageChurnNeverCrashesTheCore) {
  // 50 sessions fed random garbage (sometimes prefixed with a valid HELLO)
  // must never crash, never leak queue entries past abort, and must leave
  // the core usable for a real session afterwards.
  ServeCore core(small_config());
  Rng rng(123);
  for (std::uint32_t s = 1; s <= 50; ++s) {
    Session session(s, &core);
    std::vector<std::uint8_t> stream;
    if (rng.next_below(2) == 0) {
      const std::vector<std::uint8_t> hello = encode(HelloFrame{});
      stream.insert(stream.end(), hello.begin(), hello.end());
    }
    const std::size_t size = 1 + rng.next_below(256);
    for (std::size_t i = 0; i < size; ++i) {
      stream.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
    }
    std::vector<std::uint8_t> out;
    session.consume(stream, &out);
    session.abort();
  }
  EXPECT_EQ(core.queue_depth(), 0u);

  Session survivor(99, &core);
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(survivor.consume(encode(HelloFrame{}), &out));
  EXPECT_FALSE(out.empty());
}

}  // namespace
}  // namespace mrts::serve
