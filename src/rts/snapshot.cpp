#include "rts/snapshot.h"

#include <cstdio>
#include <cstring>

#include "rts/mrts.h"
#include "util/counters.h"
#include "util/snapshot_io.h"
#include "util/trace.h"

namespace mrts {

namespace {

constexpr char kMagic[8] = {'M', 'R', 'T', 'S', 'S', 'N', 'A', 'P'};
/// Version 2: the trace kinds after kScrubRepair moved down by one when the
/// selector.cache kind was removed (events store their kind as one byte).
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 4;

void save_meta(SnapshotWriter& w, const CheckpointMeta& meta) {
  w.str(meta.app);
  w.u32(meta.prcs);
  w.u32(meta.cg);
  w.u32(meta.frames);
  w.u64(meta.fault.seed);
  w.f64(meta.fault.fg_load_failure_prob);
  w.f64(meta.fault.cg_load_failure_prob);
  w.f64(meta.fault.transient_upset_prob);
  w.f64(meta.fault.permanent_fault_prob);
  w.u32(meta.fault.max_retries);
  w.u64(meta.fault.retry_backoff_cycles);
  w.u64(meta.fault.scrub_interval_cycles);
  w.str(meta.trace_path);
  w.str(meta.report_path);
  w.u64(meta.checkpoint_every);
  w.str(meta.checkpoint_path);
  w.u64(meta.sequence);
}

CheckpointMeta load_meta(SnapshotReader& r) {
  CheckpointMeta meta;
  meta.app = r.str();
  meta.prcs = r.u32();
  meta.cg = r.u32();
  meta.frames = r.u32();
  meta.fault.seed = r.u64();
  meta.fault.fg_load_failure_prob = r.f64();
  meta.fault.cg_load_failure_prob = r.f64();
  meta.fault.transient_upset_prob = r.f64();
  meta.fault.permanent_fault_prob = r.f64();
  meta.fault.max_retries = r.u32();
  meta.fault.retry_backoff_cycles = r.u64();
  meta.fault.scrub_interval_cycles = r.u64();
  meta.trace_path = r.str();
  meta.report_path = r.str();
  meta.checkpoint_every = r.u64();
  meta.checkpoint_path = r.str();
  meta.sequence = r.u64();
  return meta;
}

void save_progress(SnapshotWriter& w, const AppRunProgress& p) {
  w.u64(p.next_block);
  w.u64(p.cursor);
  w.str(p.partial.rts_name);
  w.u64(p.partial.total_cycles);
  w.u64(p.partial.blocking_overhead);
  w.u64(p.partial.block_cycles.size());
  for (Cycles c : p.partial.block_cycles) w.u64(c);
  for (auto e : p.partial.impl_executions) w.u64(e);
  for (auto c : p.partial.impl_cycles) w.u64(c);
}

AppRunProgress load_progress(SnapshotReader& r) {
  AppRunProgress p;
  p.next_block = r.u64();
  p.cursor = r.u64();
  p.partial.rts_name = r.str();
  p.partial.total_cycles = r.u64();
  p.partial.blocking_overhead = r.u64();
  const std::size_t n = r.length(1u << 24, "block cycle list");
  p.partial.block_cycles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) p.partial.block_cycles.push_back(r.u64());
  for (auto& e : p.partial.impl_executions) e = r.u64();
  for (auto& c : p.partial.impl_cycles) c = r.u64();
  return p;
}

void save_trace_events(SnapshotWriter& w, const TraceRecorder& recorder) {
  w.u32(recorder.default_tenant());
  w.u64(recorder.size());
  for (const TraceEvent& e : recorder.events()) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.i32(e.track);
    w.u64(e.at);
    w.u64(e.duration);
    w.u32(e.arg0);
    w.u32(e.arg1);
    w.f64(e.v0);
    w.f64(e.v1);
    w.u32(e.tenant);
  }
}

void load_trace_events(SnapshotReader& r, TraceRecorder& recorder) {
  const std::uint32_t default_tenant = r.u32();
  const std::size_t n = r.length(1u << 26, "trace event list");
  std::vector<TraceEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t at = r.pos();
    TraceEvent e;
    const std::uint8_t kind = r.u8();
    if (kind >= kNumTraceEventKinds) {
      throw SnapshotError("snapshot trace event kind out of range", at);
    }
    e.kind = static_cast<TraceEventKind>(kind);
    e.track = r.i32();
    e.at = r.u64();
    e.duration = r.u64();
    e.arg0 = r.u32();
    e.arg1 = r.u32();
    e.v0 = r.f64();
    e.v1 = r.f64();
    e.tenant = r.u32();
    events.push_back(e);
  }
  recorder.clear();
  recorder.set_default_tenant(default_tenant);
  // record() stamps tenant-0 events with the default tenant; the stored
  // events are post-stamp, so replaying them through record() is exact.
  for (const TraceEvent& e : events) recorder.record(e);
}

/// Validates header + CRC and returns a reader positioned at the payload.
SnapshotReader validated_payload(const std::vector<std::uint8_t>& bytes) {
  SnapshotReader r(bytes);
  for (std::size_t i = 0; i < sizeof(kMagic); ++i) {
    if (r.remaining() == 0 ||
        r.u8() != static_cast<std::uint8_t>(kMagic[i])) {
      throw SnapshotError("not an mrts.snapshot file (bad magic)", i);
    }
  }
  const std::size_t version_at = r.pos();
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion) {
    throw SnapshotError("unsupported snapshot version " +
                            std::to_string(version) + " (expected " +
                            std::to_string(kFormatVersion) + ")",
                        version_at);
  }
  const std::size_t size_at = r.pos();
  const std::uint64_t payload_size = r.u64();
  const std::uint32_t stored_crc = r.u32();
  if (payload_size != bytes.size() - kHeaderSize) {
    throw SnapshotError("snapshot payload size does not match the file",
                        size_at);
  }
  const std::uint32_t crc =
      snapshot_crc32(bytes.data() + kHeaderSize, bytes.size() - kHeaderSize);
  if (crc != stored_crc) {
    throw SnapshotError("snapshot payload CRC mismatch (corrupt bytes)",
                        kHeaderSize);
  }
  return r;  // positioned at the payload start
}

}  // namespace

std::vector<std::uint8_t> build_snapshot(const CheckpointMeta& meta,
                                         const MRts& rts,
                                         const AppRunProgress& progress,
                                         const TraceRecorder* recorder,
                                         const CounterRegistry* counters) {
  SnapshotWriter w;
  for (char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(kFormatVersion);
  const std::size_t size_pos = w.size();
  w.u64(0);  // payload size, backpatched
  const std::size_t crc_pos = w.size();
  w.u32(0);  // payload CRC, backpatched

  save_meta(w, meta);
  save_progress(w, progress);
  rts.save_state(w);
  w.boolean(recorder != nullptr);
  if (recorder != nullptr) save_trace_events(w, *recorder);
  w.boolean(counters != nullptr);
  if (counters != nullptr) counters->save_state(w);

  const std::size_t payload_size = w.size() - kHeaderSize;
  w.patch_u64(size_pos, payload_size);
  w.patch_u32(crc_pos,
              snapshot_crc32(w.bytes().data() + kHeaderSize, payload_size));
  return w.take();
}

CheckpointMeta read_snapshot_meta(const std::vector<std::uint8_t>& bytes) {
  SnapshotReader r = validated_payload(bytes);
  return load_meta(r);
}

void apply_snapshot(const std::vector<std::uint8_t>& bytes, MRts& rts,
                    AppRunProgress& progress, TraceRecorder* recorder,
                    CounterRegistry* counters, TraceRecorder* marker) {
  SnapshotReader r = validated_payload(bytes);
  const CheckpointMeta meta = load_meta(r);
  AppRunProgress loaded = load_progress(r);
  rts.load_state(r);
  const bool has_trace = r.boolean();
  if (has_trace != (recorder != nullptr)) {
    throw SnapshotError(
        "snapshot trace stream does not match the runtime's (attach the "
        "recorder the original run had, or none)",
        r.pos());
  }
  if (recorder != nullptr) load_trace_events(r, *recorder);
  const bool has_counters = r.boolean();
  if (has_counters != (counters != nullptr)) {
    throw SnapshotError(
        "snapshot counter stream does not match the runtime's", r.pos());
  }
  if (counters != nullptr) counters->load_state(r);
  r.expect_end();
  progress = std::move(loaded);
  if (marker != nullptr) {
    marker->record({TraceEventKind::kSnapshotRestore, kTrackApp,
                    progress.cursor, 0,
                    static_cast<std::uint32_t>(meta.sequence), 0,
                    static_cast<double>(bytes.size()), 0.0});
  }
}

bool write_snapshot_file(const std::string& path,
                         const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool written =
      bytes.empty() ||
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool read_snapshot_file(const std::string& path,
                        std::vector<std::uint8_t>* bytes, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  bytes->clear();
  std::uint8_t buf[1 << 16];
  while (true) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    bytes->insert(bytes->end(), buf, buf + n);
    if (n < sizeof(buf)) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok && error != nullptr) *error = "read error on '" + path + "'";
  return ok;
}

}  // namespace mrts
