#include "serve/wire.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>

namespace mrts::serve {

namespace {

/// Little-endian field helpers over raw frame bytes.
std::uint16_t read_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// A frame as its walk visits it: const when encoding, mutable when
/// decoding.
template <typename F, typename Io>
using Walked = std::conditional_t<Io::kLoading, F, const F>;

// --- frame walks: each payload's fields in wire order ----------------------
// Strings are a u64 length then the bytes; SnapshotReader bounds-checks the
// length against the payload before it allocates.

template <typename Io>
void walk(Io& io, Walked<HelloFrame, Io>& f) {
  io.u16(f.client_version);
  io.str(f.client_name);
}

template <typename Io>
void walk(Io& io, Walked<HelloOkFrame, Io>& f) {
  io.u16(f.server_version);
  io.u32(f.session_id);
  io.u32(f.prcs);
  io.u32(f.cg);
  io.u32(f.job_classes);
  io.str(f.banner);
}

template <typename Io>
void walk(Io& io, Walked<SubmitFrame, Io>& f) {
  io.str(f.name);
  io.u8(f.share);
  io.u32(f.weight);
  io.u32(f.reserved_prcs);
  io.u32(f.reserved_cg);
  io.u32(f.priority);
  io.u32(f.job_class);
  io.u32(f.blocks);
  io.u64(f.seed);
}

template <typename Io>
void walk(Io& io, Walked<SubmitOkFrame, Io>& f) {
  io.u64(f.job_id);
  io.u32(f.tenant);
  io.u8(f.admitted);
  io.str(f.bounce_reason);
}

template <typename Io>
void walk(Io& io, Walked<PollFrame, Io>& f) {
  io.u64(f.job_id);
}

template <typename Io>
void walk(Io& io, Walked<JobStatusFrame, Io>& f) {
  io.u64(f.job_id);
  io.u8(f.state);
  io.u64(f.queue_position);
  io.u64(f.admitted_at);
  io.u64(f.finished_at);
  io.u64(f.latency_cycles);
  io.u8(f.report_included);
  io.str(f.report_json);
  io.str(f.counters_delta);
  io.str(f.reason);
}

template <typename Io>
void walk(Io& io, Walked<CancelFrame, Io>& f) {
  io.u64(f.job_id);
}

template <typename Io>
void walk(Io& io, Walked<CancelOkFrame, Io>& f) {
  io.u64(f.job_id);
  io.u8(f.cancelled);
}

template <typename Io>
void walk(Io&, Walked<DisconnectFrame, Io>&) {}  // empty payload

template <typename Io>
void walk(Io& io, Walked<ByeFrame, Io>& f) {
  io.u64(f.jobs_submitted);
  io.u64(f.jobs_auto_cancelled);
}

template <typename Io>
void walk(Io& io, Walked<ErrorFrame, Io>& f) {
  io.u16(f.code);
  io.u8(f.fatal);
  io.str(f.detail);
}

// --- range checks: a decoded enum or flag field must name a value ---------

bool in_range(const SubmitFrame& f) {
  return f.share <= static_cast<std::uint8_t>(WireShare::kBestEffort);
}
bool in_range(const SubmitOkFrame& f) { return f.admitted <= 1; }
bool in_range(const JobStatusFrame& f) {
  return f.state <= static_cast<std::uint8_t>(WireJobState::kCancelled) &&
         f.report_included <= 1;
}
bool in_range(const CancelOkFrame& f) { return f.cancelled <= 1; }
bool in_range(const ErrorFrame& f) {
  return f.code <= static_cast<std::uint16_t>(WireError::kShuttingDown) &&
         f.fatal <= 1;
}
/// Frames without enum or flag fields.
template <typename F>
bool in_range(const F&) {
  return true;
}

}  // namespace

bool frame_type_known(std::uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
    case FrameType::kHelloOk:
    case FrameType::kSubmit:
    case FrameType::kSubmitOk:
    case FrameType::kPoll:
    case FrameType::kJobStatus:
    case FrameType::kCancel:
    case FrameType::kCancelOk:
    case FrameType::kDisconnect:
    case FrameType::kBye:
    case FrameType::kError:
      return true;
  }
  return false;
}

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kHelloOk: return "HELLO_OK";
    case FrameType::kSubmit: return "SUBMIT";
    case FrameType::kSubmitOk: return "SUBMIT_OK";
    case FrameType::kPoll: return "POLL";
    case FrameType::kJobStatus: return "JOB_STATUS";
    case FrameType::kCancel: return "CANCEL";
    case FrameType::kCancelOk: return "CANCEL_OK";
    case FrameType::kDisconnect: return "DISCONNECT";
    case FrameType::kBye: return "BYE";
    case FrameType::kError: return "ERROR";
  }
  return "?";
}

const char* to_string(WireError code) {
  switch (code) {
    case WireError::kNone: return "none";
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kBadVersion: return "bad-version";
    case WireError::kBadLength: return "bad-length";
    case WireError::kBadCrc: return "bad-crc";
    case WireError::kBadPayload: return "bad-payload";
    case WireError::kUnknownType: return "unknown-type";
    case WireError::kProtocolState: return "protocol-state";
    case WireError::kUnknownJob: return "unknown-job";
    case WireError::kForeignJob: return "foreign-job";
    case WireError::kBadSpec: return "bad-spec";
    case WireError::kQueueFull: return "queue-full";
    case WireError::kShuttingDown: return "shutting-down";
  }
  return "?";
}

bool wire_error_fatal(WireError code) {
  switch (code) {
    case WireError::kBadMagic:
    case WireError::kBadVersion:
    case WireError::kBadLength:
    case WireError::kBadCrc:
      return true;
    default:
      return false;
  }
}

const char* to_string(WireJobState state) {
  switch (state) {
    case WireJobState::kQueued: return "queued";
    case WireJobState::kRunning: return "running";
    case WireJobState::kDone: return "done";
    case WireJobState::kBounced: return "bounced";
    case WireJobState::kCancelled: return "cancelled";
  }
  return "?";
}

std::uint32_t frame_crc(const std::uint8_t* frame, std::size_t payload_len) {
  // Coverage: header bytes [4, 12) plus the payload — two regions split by
  // the CRC field itself, fed in place through the running CRC.
  const std::uint32_t header = crc32_update(0, frame + 4, 8);
  return crc32_update(header, frame + kFrameHeaderSize, payload_len);
}

std::vector<std::uint8_t> encode_frame(
    FrameType type, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxPayload) {
    throw std::invalid_argument("mrts.wire.v1 payload exceeds kMaxPayload");
  }
  std::vector<std::uint8_t> frame(kFrameHeaderSize + payload.size(), 0);
  for (std::size_t i = 0; i < 4; ++i) frame[i] = kWireMagic[i];
  frame[4] = static_cast<std::uint8_t>(kWireVersion & 0xFF);
  frame[5] = static_cast<std::uint8_t>(kWireVersion >> 8);
  frame[6] = static_cast<std::uint8_t>(type);
  frame[7] = 0;  // flags
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  for (std::size_t i = 0; i < 4; ++i) {
    frame[8 + i] = static_cast<std::uint8_t>(n >> (8 * i));
  }
  // Bytes 12..15 stay 0 until the CRC is patched in below.
  std::copy(payload.begin(), payload.end(), frame.begin() + kFrameHeaderSize);
  const std::uint32_t crc = frame_crc(frame.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    frame[12 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return frame;
}

// --- codec ------------------------------------------------------------------

template <WireFrame F>
std::vector<std::uint8_t> encode(const F& f) {
  SnapshotWriter w;
  walk(w, f);
  return encode_frame(F::kType, w.bytes());
}

template <WireFrame F>
bool decode(const Frame& frame, F* out) {
  if (frame.type != static_cast<std::uint8_t>(F::kType)) return false;
  SnapshotReader r(frame.payload.data(), frame.payload.size());
  try {
    walk(r, *out);
    r.expect_end();
  } catch (const SnapshotError&) {
    return false;  // truncated field, implausible length or trailing bytes
  }
  return in_range(*out);
}

// The eleven v1 frame types.
template std::vector<std::uint8_t> encode(const HelloFrame&);
template std::vector<std::uint8_t> encode(const HelloOkFrame&);
template std::vector<std::uint8_t> encode(const SubmitFrame&);
template std::vector<std::uint8_t> encode(const SubmitOkFrame&);
template std::vector<std::uint8_t> encode(const PollFrame&);
template std::vector<std::uint8_t> encode(const JobStatusFrame&);
template std::vector<std::uint8_t> encode(const CancelFrame&);
template std::vector<std::uint8_t> encode(const CancelOkFrame&);
template std::vector<std::uint8_t> encode(const DisconnectFrame&);
template std::vector<std::uint8_t> encode(const ByeFrame&);
template std::vector<std::uint8_t> encode(const ErrorFrame&);
template bool decode(const Frame&, HelloFrame*);
template bool decode(const Frame&, HelloOkFrame*);
template bool decode(const Frame&, SubmitFrame*);
template bool decode(const Frame&, SubmitOkFrame*);
template bool decode(const Frame&, PollFrame*);
template bool decode(const Frame&, JobStatusFrame*);
template bool decode(const Frame&, CancelFrame*);
template bool decode(const Frame&, CancelOkFrame*);
template bool decode(const Frame&, DisconnectFrame*);
template bool decode(const Frame&, ByeFrame*);
template bool decode(const Frame&, ErrorFrame*);

// --- incremental decoder ---------------------------------------------------

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (poisoned()) return;  // a poisoned stream is never re-interpreted
  // Compact lazily: drop consumed bytes before appending once they dominate
  // the buffer, keeping feed() amortized O(n) over a whole session.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

FrameDecoder::Result FrameDecoder::next(Frame* out) {
  if (poisoned()) return Result::kError;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderSize) return Result::kNeedMore;
  const std::uint8_t* h = buffer_.data() + consumed_;
  if (std::memcmp(h, kWireMagic, 4) != 0) {
    error_ = WireError::kBadMagic;
    return Result::kError;
  }
  const std::uint16_t version = read_u16(h + 4);
  if (version != kWireVersion) {
    error_ = WireError::kBadVersion;
    return Result::kError;
  }
  const std::uint32_t length = read_u32(h + 8);
  if (length > kMaxPayload) {
    error_ = WireError::kBadLength;
    return Result::kError;
  }
  if (avail < kFrameHeaderSize + length) return Result::kNeedMore;
  const std::uint32_t stated = read_u32(h + 12);
  if (stated != frame_crc(h, length)) {
    error_ = WireError::kBadCrc;
    return Result::kError;
  }
  out->type = h[6];
  out->payload.assign(h + kFrameHeaderSize, h + kFrameHeaderSize + length);
  consumed_ += kFrameHeaderSize + length;
  return Result::kFrame;
}

}  // namespace mrts::serve
