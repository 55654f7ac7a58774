#pragma once
/// \file wire.h
/// `mrts.wire.v1` — the length-framed request/response protocol spoken by
/// `mrts_serve` and its clients over a local stream socket. This header is
/// the *codec only*: frame layout, payload structs and an incremental
/// decoder. It has zero socket, thread or wall-clock dependencies, so the
/// whole protocol round-trips in plain unit tests (tests/test_wire.cpp) and
/// the normative spec in docs/PROTOCOL.md can be checked field by field
/// against this file.
///
/// Frame layout (all multi-byte fields little-endian):
///
///   offset  size  field
///   0       4     magic "mRTW" (0x6D 0x52 0x54 0x57)
///   4       2     wire version (u16) — this header implements 1
///   6       1     frame type (FrameType)
///   7       1     flags (u8) — reserved, must be 0 in v1
///   8       4     payload length N (u32), at most kMaxPayload
///   12      4     CRC-32 (IEEE 802.3 reflected, util/snapshot_io.h's
///                 snapshot_crc32) over bytes [4, 12) of the header plus the
///                 N payload bytes — everything after the magic except the
///                 CRC field itself
///   16      N     payload (frame-type specific, see the payload structs)
///
/// Malformed bytes never crash the decoder and never partially apply a
/// frame: header/framing violations (bad magic, unknown wire version,
/// implausible length, CRC mismatch) poison the decoder — the byte stream
/// can no longer be trusted, the session sends one ERROR frame and closes —
/// while payload-level violations (trailing bytes, truncated fields,
/// out-of-range enums) reject only that frame and the session survives.

#include <cstdint>
#include <string>
#include <vector>

#include "arch/tenant.h"
#include "util/snapshot_io.h"

namespace mrts::serve {

/// First bytes of every frame: 'm' 'R' 'T' 'W'.
inline constexpr std::uint8_t kWireMagic[4] = {0x6D, 0x52, 0x54, 0x57};
/// The protocol generation this codec implements (`mrts.wire.v1`).
inline constexpr std::uint16_t kWireVersion = 1;
/// Frame header size in bytes (magic..crc inclusive).
inline constexpr std::size_t kFrameHeaderSize = 16;
/// Hard ceiling on the payload length field: longer frames are rejected
/// before any allocation (a corrupt length must not OOM the server).
inline constexpr std::uint32_t kMaxPayload = 1u << 20;

/// Frame types of mrts.wire.v1. Client-to-server requests are odd,
/// server-to-client responses are even (kError is the catch-all response).
enum class FrameType : std::uint8_t {
  kHello = 0x01,       ///< c->s: version negotiation, first frame
  kHelloOk = 0x02,     ///< s->c: negotiated version + fabric shape
  kSubmit = 0x03,      ///< c->s: tenant job submission
  kSubmitOk = 0x04,    ///< s->c: job id + admission verdict
  kPoll = 0x05,        ///< c->s: job status query
  kJobStatus = 0x06,   ///< s->c: job state, final report when done
  kCancel = 0x07,      ///< c->s: cancel a queued job
  kCancelOk = 0x08,    ///< s->c: cancel verdict
  kDisconnect = 0x09,  ///< c->s: graceful goodbye
  kBye = 0x0A,         ///< s->c: goodbye + session accounting
  kError = 0x0F,       ///< s->c: protocol error report
};

/// True for type bytes that name a v1 frame.
bool frame_type_known(std::uint8_t type);
const char* to_string(FrameType type);

/// Protocol error codes carried by ERROR frames (docs/PROTOCOL.md lists the
/// client-visible meaning and whether the connection survives each one).
enum class WireError : std::uint16_t {
  kNone = 0,
  kBadMagic = 1,       ///< fatal: frame did not start with "mRTW"
  kBadVersion = 2,     ///< fatal: unsupported wire version in a header
  kBadLength = 3,      ///< fatal: length field exceeds kMaxPayload
  kBadCrc = 4,         ///< fatal: header+payload CRC mismatch
  kBadPayload = 5,     ///< frame rejected: payload malformed for its type
  kUnknownType = 6,    ///< frame rejected: unknown frame type byte
  kProtocolState = 7,  ///< frame rejected: e.g. SUBMIT before HELLO
  kUnknownJob = 8,     ///< request rejected: no such job id
  kForeignJob = 9,     ///< request rejected: job owned by another session
  kBadSpec = 10,       ///< SUBMIT rejected: invalid job specification
  kQueueFull = 11,     ///< SUBMIT rejected: job queue at capacity
  kShuttingDown = 12,  ///< request rejected: server is draining
};

const char* to_string(WireError code);
/// Fatal errors poison the byte stream: the server sends ERROR and closes.
bool wire_error_fatal(WireError code);

// ---------------------------------------------------------------------------
// Payload structs. Field order in the struct == field order on the wire.
// ---------------------------------------------------------------------------

/// HELLO (client -> server): the first frame of every session.
struct HelloFrame {
  std::uint16_t client_version = kWireVersion;
  std::string client_name;  ///< informational, <= 64 chars
};

/// HELLO_OK (server -> client).
struct HelloOkFrame {
  std::uint16_t server_version = kWireVersion;
  std::uint32_t session_id = 0;
  std::uint32_t prcs = 0;         ///< resident fabric: PRC count
  std::uint32_t cg = 0;           ///< resident fabric: CG fabric count
  std::uint32_t job_classes = 0;  ///< valid SUBMIT job_class range [0, n)
  std::string banner;
};

/// Job share policy on the wire (mirrors TenantShare, pinned values).
enum class WireShare : std::uint8_t {
  kWeighted = 0,
  kReserved = 1,
  kBestEffort = 2,
};

/// SUBMIT (client -> server): one tenant job.
struct SubmitFrame {
  std::string name;  ///< tenant name, [A-Za-z0-9_.-]{1,64}
  std::uint8_t share = 0;          ///< WireShare
  std::uint32_t weight = 1;        ///< weighted only, [1, 1000]
  std::uint32_t reserved_prcs = 0; ///< reserved only
  std::uint32_t reserved_cg = 0;   ///< reserved only
  std::uint32_t priority = 0;      ///< scheduler priority, <= 1000000
  std::uint32_t job_class = 0;     ///< kernel class, < HelloOk.job_classes
  std::uint32_t blocks = 1;        ///< functional blocks, [1, max_blocks]
  std::uint64_t seed = 0;          ///< workload-generation seed
};

/// SUBMIT_OK (server -> client).
struct SubmitOkFrame {
  std::uint64_t job_id = 0;
  std::uint32_t tenant = 0;     ///< arbiter tenant id
  std::uint8_t admitted = 0;    ///< 1 = queued; 0 = bounced by admission
  std::string bounce_reason;    ///< FabricArbiter's reason when bounced
};

/// POLL (client -> server).
struct PollFrame {
  std::uint64_t job_id = 0;
};

/// Job lifecycle states on the wire (pinned values).
enum class WireJobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,  ///< reserved for concurrent shells; v1 never emits it
  kDone = 2,
  kBounced = 3,
  kCancelled = 4,
};

const char* to_string(WireJobState state);

/// JOB_STATUS (server -> client). The final report is delivered exactly
/// once: the first done-poll carries report_json/counters_delta and the
/// server then frees them (report_included = 0 on later polls).
struct JobStatusFrame {
  std::uint64_t job_id = 0;
  std::uint8_t state = 0;           ///< WireJobState
  std::uint64_t queue_position = 0; ///< 0 = next to run (queued only)
  std::uint64_t admitted_at = 0;    ///< sim cycle the job became eligible
  std::uint64_t finished_at = 0;    ///< sim cycle the job completed
  std::uint64_t latency_cycles = 0; ///< finished_at - admitted_at
  std::uint8_t report_included = 0; ///< 1 = report_json/counters_delta valid
  std::string report_json;          ///< mrts.run_report.v1 (done only)
  std::string counters_delta;       ///< "name +delta" lines (done only)
  std::string reason;               ///< bounce/cancel reason
};

/// CANCEL (client -> server).
struct CancelFrame {
  std::uint64_t job_id = 0;
};

/// CANCEL_OK (server -> client).
struct CancelOkFrame {
  std::uint64_t job_id = 0;
  std::uint8_t cancelled = 0;  ///< 1 = removed from queue; 0 = too late
};

/// DISCONNECT (client -> server): empty payload.
struct DisconnectFrame {};

/// BYE (server -> client).
struct ByeFrame {
  std::uint64_t jobs_submitted = 0;      ///< SUBMITs accepted this session
  std::uint64_t jobs_auto_cancelled = 0; ///< queued jobs cancelled at close
};

/// ERROR (server -> client).
struct ErrorFrame {
  std::uint16_t code = 0;   ///< WireError
  std::uint8_t fatal = 0;   ///< 1 = the server closes after this frame
  std::string detail;
};

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Wraps \p payload in a v1 frame header (magic, version, type, flags,
/// length, CRC). Throws std::invalid_argument when payload > kMaxPayload.
std::vector<std::uint8_t> encode_frame(FrameType type,
                                       const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode(const HelloFrame& f);
std::vector<std::uint8_t> encode(const HelloOkFrame& f);
std::vector<std::uint8_t> encode(const SubmitFrame& f);
std::vector<std::uint8_t> encode(const SubmitOkFrame& f);
std::vector<std::uint8_t> encode(const PollFrame& f);
std::vector<std::uint8_t> encode(const JobStatusFrame& f);
std::vector<std::uint8_t> encode(const CancelFrame& f);
std::vector<std::uint8_t> encode(const CancelOkFrame& f);
std::vector<std::uint8_t> encode(const DisconnectFrame& f);
std::vector<std::uint8_t> encode(const ByeFrame& f);
std::vector<std::uint8_t> encode(const ErrorFrame& f);

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// One successfully framed (but not yet payload-decoded) frame.
struct Frame {
  std::uint8_t type = 0;  ///< raw type byte; may be unknown to this codec
  std::vector<std::uint8_t> payload;
};

/// Payload decoders: false on malformed payloads (truncated fields,
/// out-of-range enum values, trailing bytes) — the caller answers with
/// WireError::kBadPayload. Never throws, never partially fills \p out
/// observable state on failure paths that matter (a false return means
/// "discard \p out").
bool decode(const Frame& f, HelloFrame* out);
bool decode(const Frame& f, HelloOkFrame* out);
bool decode(const Frame& f, SubmitFrame* out);
bool decode(const Frame& f, SubmitOkFrame* out);
bool decode(const Frame& f, PollFrame* out);
bool decode(const Frame& f, JobStatusFrame* out);
bool decode(const Frame& f, CancelFrame* out);
bool decode(const Frame& f, CancelOkFrame* out);
bool decode(const Frame& f, DisconnectFrame* out);
bool decode(const Frame& f, ByeFrame* out);
bool decode(const Frame& f, ErrorFrame* out);

/// Incremental frame decoder over an untrusted byte stream. Feed bytes as
/// they arrive; next() yields complete frames. The first framing violation
/// (bad magic / version / length / CRC) poisons the decoder: next() returns
/// kError with the same code forever and no further bytes are interpreted.
class FrameDecoder {
 public:
  enum class Result {
    kFrame,     ///< *out holds the next complete frame
    kNeedMore,  ///< no complete frame buffered yet
    kError,     ///< framing violation; error() names it; decoder is poisoned
  };

  void feed(const std::uint8_t* data, std::size_t size);
  void feed(const std::vector<std::uint8_t>& bytes) {
    feed(bytes.data(), bytes.size());
  }

  /// Extracts the next complete frame, if any.
  Result next(Frame* out);

  WireError error() const { return error_; }
  bool poisoned() const { return error_ != WireError::kNone; }
  /// Bytes buffered but not yet consumed (0 after a clean end-of-stream).
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  WireError error_ = WireError::kNone;
};

/// CRC over the covered region of an already-assembled frame buffer
/// (header bytes [4, 12) + payload), fed in place through crc32_update:
/// the 8 header bytes by its table loop, a payload of 64 bytes or more by
/// its carry-less-multiply fold where the CPU has one (docs/PROTOCOL.md,
/// "CRC coverage"); the value is the same either way.
/// \p frame must hold at least kFrameHeaderSize + length bytes.
std::uint32_t frame_crc(const std::uint8_t* frame, std::size_t payload_len);

}  // namespace mrts::serve
