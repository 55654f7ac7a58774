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

template <typename Io, typename Meta>
void walk_meta(Io& io, Meta& meta) {
  io.str(meta.app);
  io.u32(meta.prcs);
  io.u32(meta.cg);
  io.u32(meta.frames);
  auto& fault = meta.fault;
  io.u64(fault.seed);
  io.f64(fault.fg_load_failure_prob);
  io.f64(fault.cg_load_failure_prob);
  io.f64(fault.transient_upset_prob);
  io.f64(fault.permanent_fault_prob);
  io.u32(fault.max_retries);
  io.u64(fault.retry_backoff_cycles);
  io.u64(fault.scrub_interval_cycles);
  io.str(meta.trace_path);
  io.str(meta.report_path);
  io.u64(meta.checkpoint_every);
  io.str(meta.checkpoint_path);
  io.u64(meta.sequence);
}

template <typename Io, typename Progress>
void walk_progress(Io& io, Progress& p) {
  io.u64(p.next_block);
  io.u64(p.cursor);
  auto& run = p.partial;
  io.str(run.rts_name);
  io.u64(run.total_cycles);
  io.u64(run.blocking_overhead);
  io.seq(run.block_cycles, 1u << 24, "block cycle list",
         [](auto& io, auto& cycles) { io.u64(cycles); });
  for (auto& e : run.impl_executions) io.u64(e);
  for (auto& c : run.impl_cycles) io.u64(c);
  if constexpr (Io::kLoading) {
    // run_application_portion advances all three together. A cursor far
    // past the blocks would make the next scrub catch up on every epoch in
    // between.
    Cycles sum = 0;
    for (Cycles c : run.block_cycles) sum += c;
    if (p.next_block != run.block_cycles.size() || p.cursor != sum) {
      throw SnapshotError(
          "snapshot progress does not match its block cycle list", io.pos());
    }
  }
}

template <typename Io, typename Events>
void walk_events(Io& io, Events& events) {
  io.seq(events, 1u << 26, "trace event list", [](auto& io, auto& e) {
    io.enum8(e.kind, kNumTraceEventKinds, "trace event kind");
    io.i32(e.track);
    io.u64(e.at);
    io.u64(e.duration);
    io.u32(e.arg0);
    io.u32(e.arg1);
    io.f64(e.v0);
    io.f64(e.v1);
    io.u32(e.tenant);
  });
}

/// The recorder's default tenant, then its events. A reader replays them
/// through record(), which stamps tenant-0 events with the default tenant;
/// the stored events are post-stamp, so replaying them is exact.
template <typename Io, typename Recorder>
void walk_trace(Io& io, Recorder& recorder) {
  std::uint32_t tenant = recorder.default_tenant();
  io.u32(tenant);
  if constexpr (Io::kLoading) {
    std::vector<TraceEvent> events;
    walk_events(io, events);
    recorder.clear();
    recorder.set_default_tenant(tenant);
    for (const TraceEvent& e : events) recorder.record(e);
  } else {
    walk_events(io, recorder.events());
  }
}

/// The payload after the header. A reader checks the runtime's fault
/// model against the meta before it changes anything.
template <typename Io, typename Meta, typename Progress, typename Rts,
          typename Recorder, typename Counters>
void walk_payload(Io& io, Meta& meta, Progress& progress, Rts& rts,
                  Recorder* recorder, Counters* counters) {
  walk_meta(io, meta);
  if constexpr (Io::kLoading) {
    if (meta.fault.any_faults() != (rts.fault_model() != nullptr)) {
      throw SnapshotError(
          "snapshot fault-model presence does not match this runtime",
          io.pos());
    }
  }
  walk_progress(io, progress);
  io.state(rts);
  if (io.present(recorder != nullptr,
                 "snapshot trace stream does not match the runtime's (attach "
                 "the recorder the original run had, or none)")) {
    walk_trace(io, *recorder);
  }
  if (io.present(counters != nullptr,
                 "snapshot counter stream does not match the runtime's")) {
    io.state(*counters);
  }
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
  const std::size_t size_pos = w.pos();
  w.u64(0);  // payload size, backpatched
  const std::size_t crc_pos = w.pos();
  w.u32(0);  // payload CRC, backpatched

  walk_payload(w, meta, progress, rts, recorder, counters);

  const std::size_t payload_size = w.pos() - kHeaderSize;
  w.patch_u64(size_pos, payload_size);
  w.patch_u32(crc_pos,
              snapshot_crc32(w.bytes().data() + kHeaderSize, payload_size));
  return w.take();
}

CheckpointMeta read_snapshot_meta(const std::vector<std::uint8_t>& bytes) {
  SnapshotReader r = validated_payload(bytes);
  CheckpointMeta meta;
  walk_meta(r, meta);
  return meta;
}

void apply_snapshot(const std::vector<std::uint8_t>& bytes, MRts& rts,
                    AppRunProgress& progress, TraceRecorder* recorder,
                    CounterRegistry* counters, TraceRecorder* marker) {
  SnapshotReader r = validated_payload(bytes);
  CheckpointMeta meta;
  AppRunProgress loaded;
  walk_payload(r, meta, loaded, rts, recorder, counters);
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
