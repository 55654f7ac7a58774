// Tests for the mrts.wire.v1 codec (serve/wire.h): per-frame-type encode/
// decode round-trips, the exact byte layout docs/PROTOCOL.md documents
// (field offsets, endianness, CRC coverage), the incremental FrameDecoder
// under arbitrary feed fragmentation, and the hardening contract — bad
// magic / version / length / CRC poison the decoder, malformed payloads
// reject only that frame, and seeded random garbage never crashes and never
// partially applies a frame.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serve/wire.h"
#include "util/rng.h"

namespace mrts::serve {
namespace {

// ---------------------------------------------------------------------------
// Frame header layout — pinned byte for byte against docs/PROTOCOL.md.
// ---------------------------------------------------------------------------

std::uint32_t read_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint16_t read_le16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

TEST(WireHeader, LayoutMatchesProtocolDoc) {
  PollFrame poll;
  poll.job_id = 0x1122334455667788ull;
  const std::vector<std::uint8_t> frame = encode(poll);
  ASSERT_GE(frame.size(), kFrameHeaderSize);

  // offset 0, 4 bytes: magic "mRTW".
  EXPECT_EQ(frame[0], 0x6D);  // 'm'
  EXPECT_EQ(frame[1], 0x52);  // 'R'
  EXPECT_EQ(frame[2], 0x54);  // 'T'
  EXPECT_EQ(frame[3], 0x57);  // 'W'
  // offset 4, u16 LE: wire version 1.
  EXPECT_EQ(read_le16(frame.data() + 4), kWireVersion);
  // offset 6, u8: frame type.
  EXPECT_EQ(frame[6], static_cast<std::uint8_t>(FrameType::kPoll));
  // offset 7, u8: flags, must be 0 in v1.
  EXPECT_EQ(frame[7], 0);
  // offset 8, u32 LE: payload length (POLL payload = one u64).
  EXPECT_EQ(read_le32(frame.data() + 8), 8u);
  EXPECT_EQ(frame.size(), kFrameHeaderSize + 8);
  // offset 12, u32 LE: CRC over header bytes [4, 12) + payload.
  EXPECT_EQ(read_le32(frame.data() + 12), frame_crc(frame.data(), 8));
  // offset 16: payload. The u64 job id is little-endian.
  EXPECT_EQ(frame[16], 0x88);
  EXPECT_EQ(frame[23], 0x11);
}

TEST(WireHeader, CrcCoversVersionTypeFlagsLengthAndPayload) {
  const std::vector<std::uint8_t> frame = encode(PollFrame{42});
  // Flipping any covered byte must change the CRC; flipping the magic does
  // not (the magic is outside CRC coverage — it is checked literally).
  for (std::size_t i = 4; i < frame.size(); ++i) {
    if (i >= 12 && i < 16) continue;  // the CRC field itself
    std::vector<std::uint8_t> copy = frame;
    copy[i] ^= 0xFF;
    EXPECT_NE(read_le32(copy.data() + 12),
              frame_crc(copy.data(), copy.size() - kFrameHeaderSize))
        << "byte " << i << " not covered by CRC";
  }
  std::vector<std::uint8_t> magic_flip = frame;
  magic_flip[0] ^= 0xFF;
  EXPECT_EQ(read_le32(magic_flip.data() + 12),
            frame_crc(magic_flip.data(), magic_flip.size() - kFrameHeaderSize));
}

// ---------------------------------------------------------------------------
// CRC-32 pinned by value: known answers, the running form, and a bitwise
// reference at every length, alignment and on a large buffer. Each checks
// crc32_update, which folds on CPUs with PCLMULQDQ, and the portable table
// loop beside it, so the oracle stays tested where the fold runs.
// ---------------------------------------------------------------------------

/// One byte into the raw CRC-32 register, straight from the reflected
/// polynomial, one bit at a time.
std::uint32_t reference_step(std::uint32_t c, std::uint8_t byte) {
  c ^= byte;
  for (int k = 0; k < 8; ++k) {
    c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c;
}

std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) c = reference_step(c, data[i]);
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> seeded_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(size);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  return bytes;
}

TEST(Crc32, KnownAnswers) {
  const std::string check = "123456789";
  const auto* digits = reinterpret_cast<const std::uint8_t*>(check.data());
  EXPECT_EQ(snapshot_crc32(digits, check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32_update_portable(0, digits, check.size()), 0xCBF43926u);
  EXPECT_EQ(snapshot_crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32_update(0, nullptr, 0), 0u);
  EXPECT_EQ(crc32_update_portable(0, nullptr, 0), 0u);
}

TEST(Crc32, HelloWorkedExampleFromProtocolDoc) {
  // docs/PROTOCOL.md "Worked example": HELLO{1, "cli"}, 29 bytes.
  const std::vector<std::uint8_t> expected = {
      0x6d, 0x52, 0x54, 0x57, 0x01, 0x00, 0x01, 0x00,  // magic, v1, HELLO
      0x0d, 0x00, 0x00, 0x00, 0xf5, 0x52, 0x41, 0xe8,  // length 13, crc
      0x01, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,  // version 1, len 3..
      0x00, 0x00, 0x63, 0x6c, 0x69};                   // .., "cli"
  HelloFrame hello;
  hello.client_version = 1;
  hello.client_name = "cli";
  EXPECT_EQ(encode(hello), expected);
  EXPECT_EQ(frame_crc(expected.data(), 13), 0xe84152f5u);
  EXPECT_EQ(read_le32(expected.data() + 12), 0xe84152f5u);
}

TEST(Crc32, RunningFormSplitAtEveryPointEqualsOneShot) {
  // 300 bytes: heads under 64 bytes take the table loop, longer ones fold
  // and leave a tail under 16 bytes, and the rest meets both.
  const std::vector<std::uint8_t> bytes = seeded_bytes(300, 1);
  const std::uint32_t whole = reference_crc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::size_t rest = bytes.size() - split;
    const std::uint32_t head = crc32_update(0, bytes.data(), split);
    EXPECT_EQ(crc32_update(head, bytes.data() + split, rest), whole)
        << "split at " << split;
    const std::uint32_t portable_head =
        crc32_update_portable(0, bytes.data(), split);
    EXPECT_EQ(portable_head, head) << "split at " << split;
    EXPECT_EQ(crc32_update_portable(portable_head, bytes.data() + split, rest),
              whole)
        << "split at " << split;
  }
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Every length 0-4096 at offsets 0-15: the reference register runs along
  // the buffer, so each prefix's CRC costs one byte of reference work.
  constexpr std::size_t kMaxLength = 4096;
  const std::vector<std::uint8_t> bytes = seeded_bytes(kMaxLength + 16, 2);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const std::uint8_t* data = bytes.data() + offset;
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      const std::uint32_t expect = c ^ 0xFFFFFFFFu;
      ASSERT_EQ(snapshot_crc32(data, length), expect)
          << "offset " << offset << " length " << length;
      ASSERT_EQ(crc32_update_portable(0, data, length), expect)
          << "offset " << offset << " length " << length;
      if (length < kMaxLength) c = reference_step(c, data[length]);
    }
  }
  const std::vector<std::uint8_t> big = seeded_bytes(1u << 20, 3);
  const std::uint32_t expect = reference_crc32(big.data(), big.size());
  EXPECT_EQ(snapshot_crc32(big.data(), big.size()), expect);
  EXPECT_EQ(crc32_update_portable(0, big.data(), big.size()), expect);
}

// ---------------------------------------------------------------------------
// Round-trips: every frame type encodes and decodes back field for field.
// ---------------------------------------------------------------------------

Frame framed(const std::vector<std::uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame out;
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(decoder.buffered(), 0u);
  return out;
}

TEST(WireRoundTrip, Hello) {
  HelloFrame in;
  in.client_version = 7;
  in.client_name = "loadgen-3";
  HelloFrame out;
  ASSERT_TRUE(decode(framed(encode(in)), &out));
  EXPECT_EQ(out.client_version, 7);
  EXPECT_EQ(out.client_name, "loadgen-3");
}

TEST(WireRoundTrip, HelloOk) {
  HelloOkFrame in;
  in.server_version = 1;
  in.session_id = 9;
  in.prcs = 6;
  in.cg = 2;
  in.job_classes = 4;
  in.banner = "mrts_serve";
  HelloOkFrame out;
  ASSERT_TRUE(decode(framed(encode(in)), &out));
  EXPECT_EQ(out.server_version, 1);
  EXPECT_EQ(out.session_id, 9u);
  EXPECT_EQ(out.prcs, 6u);
  EXPECT_EQ(out.cg, 2u);
  EXPECT_EQ(out.job_classes, 4u);
  EXPECT_EQ(out.banner, "mrts_serve");
}

TEST(WireRoundTrip, Submit) {
  SubmitFrame in;
  in.name = "tenant_a.1-x";
  in.share = static_cast<std::uint8_t>(WireShare::kReserved);
  in.weight = 3;
  in.reserved_prcs = 2;
  in.reserved_cg = 1;
  in.priority = 17;
  in.job_class = 3;
  in.blocks = 5;
  in.seed = 0xDEADBEEFCAFEF00Dull;
  SubmitFrame out;
  ASSERT_TRUE(decode(framed(encode(in)), &out));
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.share, in.share);
  EXPECT_EQ(out.weight, in.weight);
  EXPECT_EQ(out.reserved_prcs, in.reserved_prcs);
  EXPECT_EQ(out.reserved_cg, in.reserved_cg);
  EXPECT_EQ(out.priority, in.priority);
  EXPECT_EQ(out.job_class, in.job_class);
  EXPECT_EQ(out.blocks, in.blocks);
  EXPECT_EQ(out.seed, in.seed);
}

TEST(WireRoundTrip, SubmitOk) {
  SubmitOkFrame in;
  in.job_id = 12;
  in.tenant = 4;
  in.admitted = 0;
  in.bounce_reason = "insufficient free PRCs";
  SubmitOkFrame out;
  ASSERT_TRUE(decode(framed(encode(in)), &out));
  EXPECT_EQ(out.job_id, 12u);
  EXPECT_EQ(out.tenant, 4u);
  EXPECT_EQ(out.admitted, 0);
  EXPECT_EQ(out.bounce_reason, "insufficient free PRCs");
}

TEST(WireRoundTrip, JobStatusWithReport) {
  JobStatusFrame in;
  in.job_id = 3;
  in.state = static_cast<std::uint8_t>(WireJobState::kDone);
  in.queue_position = 0;
  in.admitted_at = 1000;
  in.finished_at = 5200;
  in.latency_cycles = 4200;
  in.report_included = 1;
  in.report_json = "{\"v\":\"mrts.run_report.v1\"}";
  in.counters_delta = "sched.tasks +1\n";
  in.reason = "";
  JobStatusFrame out;
  ASSERT_TRUE(decode(framed(encode(in)), &out));
  EXPECT_EQ(out.job_id, 3u);
  EXPECT_EQ(out.state, static_cast<std::uint8_t>(WireJobState::kDone));
  EXPECT_EQ(out.admitted_at, 1000u);
  EXPECT_EQ(out.finished_at, 5200u);
  EXPECT_EQ(out.latency_cycles, 4200u);
  EXPECT_EQ(out.report_included, 1);
  EXPECT_EQ(out.report_json, in.report_json);
  EXPECT_EQ(out.counters_delta, in.counters_delta);
  EXPECT_EQ(out.reason, "");
}

TEST(WireRoundTrip, PollCancelCancelOkDisconnectByeError) {
  PollFrame poll_out;
  ASSERT_TRUE(decode(framed(encode(PollFrame{99})), &poll_out));
  EXPECT_EQ(poll_out.job_id, 99u);

  CancelFrame cancel_out;
  ASSERT_TRUE(decode(framed(encode(CancelFrame{7})), &cancel_out));
  EXPECT_EQ(cancel_out.job_id, 7u);

  CancelOkFrame cancel_ok_out;
  ASSERT_TRUE(decode(framed(encode(CancelOkFrame{7, 1})), &cancel_ok_out));
  EXPECT_EQ(cancel_ok_out.job_id, 7u);
  EXPECT_EQ(cancel_ok_out.cancelled, 1);

  // DISCONNECT has an empty payload by spec.
  const std::vector<std::uint8_t> disc = encode(DisconnectFrame{});
  EXPECT_EQ(disc.size(), kFrameHeaderSize);
  DisconnectFrame disc_out;
  EXPECT_TRUE(decode(framed(disc), &disc_out));

  ByeFrame bye_in;
  bye_in.jobs_submitted = 5;
  bye_in.jobs_auto_cancelled = 2;
  ByeFrame bye_out;
  ASSERT_TRUE(decode(framed(encode(bye_in)), &bye_out));
  EXPECT_EQ(bye_out.jobs_submitted, 5u);
  EXPECT_EQ(bye_out.jobs_auto_cancelled, 2u);

  ErrorFrame err_in;
  err_in.code = static_cast<std::uint16_t>(WireError::kBadSpec);
  err_in.fatal = 0;
  err_in.detail = "weight out of range";
  ErrorFrame err_out;
  ASSERT_TRUE(decode(framed(encode(err_in)), &err_out));
  EXPECT_EQ(err_out.code, static_cast<std::uint16_t>(WireError::kBadSpec));
  EXPECT_EQ(err_out.fatal, 0);
  EXPECT_EQ(err_out.detail, "weight out of range");
}

// ---------------------------------------------------------------------------
// Incremental decoding.
// ---------------------------------------------------------------------------

TEST(WireDecoder, ByteAtATimeFeedYieldsTheSameFrames) {
  SubmitFrame submit;
  submit.name = "t";
  submit.seed = 123;
  std::vector<std::uint8_t> stream = encode(HelloFrame{1, "c"});
  const std::vector<std::uint8_t> second = encode(submit);
  stream.insert(stream.end(), second.begin(), second.end());

  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (std::uint8_t byte : stream) {
    decoder.feed(&byte, 1);
    Frame f;
    while (decoder.next(&f) == FrameDecoder::Result::kFrame) {
      frames.push_back(f);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, static_cast<std::uint8_t>(FrameType::kHello));
  EXPECT_EQ(frames[1].type, static_cast<std::uint8_t>(FrameType::kSubmit));
  SubmitFrame out;
  ASSERT_TRUE(decode(frames[1], &out));
  EXPECT_EQ(out.seed, 123u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(WireDecoder, EveryPrefixTruncationNeedsMoreAndNeverErrors) {
  const std::vector<std::uint8_t> frame = encode(SubmitOkFrame{1, 2, 1, "ok"});
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(frame.data(), cut);
    Frame out;
    EXPECT_EQ(decoder.next(&out), FrameDecoder::Result::kNeedMore)
        << "prefix length " << cut;
    EXPECT_FALSE(decoder.poisoned());
    // The remainder completes the frame.
    decoder.feed(frame.data() + cut, frame.size() - cut);
    EXPECT_EQ(decoder.next(&out), FrameDecoder::Result::kFrame);
  }
}

TEST(WireDecoder, BadMagicPoisons) {
  std::vector<std::uint8_t> frame = encode(PollFrame{1});
  frame[2] = 'X';
  FrameDecoder decoder;
  decoder.feed(frame);
  Frame out;
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error(), WireError::kBadMagic);
  EXPECT_TRUE(decoder.poisoned());
  // Poisoned is forever: even a pristine frame is no longer interpreted.
  decoder.feed(encode(PollFrame{2}));
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error(), WireError::kBadMagic);
}

TEST(WireDecoder, BadVersionPoisons) {
  std::vector<std::uint8_t> frame = encode(PollFrame{1});
  frame[4] = 0x63;  // version 99
  FrameDecoder decoder;
  decoder.feed(frame);
  Frame out;
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error(), WireError::kBadVersion);
}

TEST(WireDecoder, OversizedLengthPoisonsWithoutAllocating) {
  std::vector<std::uint8_t> frame = encode(PollFrame{1});
  // Claim a 0xFFFFFFFF-byte payload. The decoder must reject on the header
  // alone — it never waits for (or allocates) 4 GiB.
  frame[8] = frame[9] = frame[10] = frame[11] = 0xFF;
  FrameDecoder decoder;
  decoder.feed(frame.data(), kFrameHeaderSize);
  Frame out;
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error(), WireError::kBadLength);
}

TEST(WireDecoder, CrcMismatchPoisons) {
  std::vector<std::uint8_t> frame = encode(PollFrame{1});
  frame.back() ^= 0x01;  // corrupt one payload byte
  FrameDecoder decoder;
  decoder.feed(frame);
  Frame out;
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error(), WireError::kBadCrc);
}

TEST(WireDecoder, UnknownFrameTypePassesFraming) {
  // An unknown type with a valid header/CRC is *framing*-valid: the decoder
  // yields it and the session layer answers kUnknownType (recoverable).
  std::vector<std::uint8_t> frame = encode_frame(
      static_cast<FrameType>(0x0B), std::vector<std::uint8_t>{1, 2, 3});
  FrameDecoder decoder;
  decoder.feed(frame);
  Frame out;
  ASSERT_EQ(decoder.next(&out), FrameDecoder::Result::kFrame);
  EXPECT_EQ(out.type, 0x0B);
  EXPECT_FALSE(frame_type_known(out.type));
  EXPECT_EQ(out.payload.size(), 3u);
}

// ---------------------------------------------------------------------------
// Payload-level rejection: bad payloads reject the frame, not the stream.
// ---------------------------------------------------------------------------

TEST(WirePayload, TrailingBytesRejected) {
  std::vector<std::uint8_t> payload(8, 0);
  payload.push_back(0xAA);  // one byte past the u64 job id
  const Frame frame{static_cast<std::uint8_t>(FrameType::kPoll),
                    std::move(payload)};
  PollFrame out;
  EXPECT_FALSE(decode(frame, &out));
}

TEST(WirePayload, TruncatedFieldsRejected) {
  const std::vector<std::uint8_t> good = encode(SubmitFrame{});
  const std::vector<std::uint8_t> full(good.begin() + kFrameHeaderSize,
                                       good.end());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Frame frame;
    frame.type = static_cast<std::uint8_t>(FrameType::kSubmit);
    frame.payload.assign(full.begin(), full.begin() + cut);
    SubmitFrame out;
    EXPECT_FALSE(decode(frame, &out)) << "payload truncated to " << cut;
  }
}

TEST(WirePayload, WrongTypeTagRejected) {
  const std::vector<std::uint8_t> bytes = encode(PollFrame{5});
  Frame frame = framed(bytes);
  frame.type = static_cast<std::uint8_t>(FrameType::kHello);
  PollFrame out;
  EXPECT_FALSE(decode(frame, &out));
}

// ---------------------------------------------------------------------------
// Fuzz: seeded random garbage and random corruption never crash and never
// yield a frame that did not survive CRC.
// ---------------------------------------------------------------------------

TEST(WireFuzz, RandomGarbageNeverCrashes) {
  Rng rng(20260808);
  for (int round = 0; round < 200; ++round) {
    const std::size_t size = 1 + rng.next_below(512);
    std::vector<std::uint8_t> garbage(size);
    for (auto& byte : garbage) {
      byte = static_cast<std::uint8_t>(rng.next_below(256));
    }
    FrameDecoder decoder;
    decoder.feed(garbage);
    Frame out;
    // Drain: any mix of kNeedMore/kError is legal, a crash is not. A yielded
    // kFrame must carry a CRC-consistent payload (astronomically unlikely
    // from garbage, but legal if it happens).
    for (int step = 0; step < 64; ++step) {
      const FrameDecoder::Result result = decoder.next(&out);
      if (result != FrameDecoder::Result::kFrame) break;
    }
  }
}

TEST(WireFuzz, SingleByteCorruptionNeverYieldsACorruptFrame) {
  SubmitFrame submit;
  submit.name = "fuzz";
  submit.seed = 42;
  const std::vector<std::uint8_t> frame = encode(submit);
  Rng rng(7);
  for (int round = 0; round < 300; ++round) {
    std::vector<std::uint8_t> copy = frame;
    const std::size_t pos = rng.next_below(copy.size());
    const std::uint8_t flip =
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    copy[pos] ^= flip;
    FrameDecoder decoder;
    decoder.feed(copy);
    Frame out;
    const FrameDecoder::Result result = decoder.next(&out);
    if (result == FrameDecoder::Result::kFrame) {
      // Only corruption inside the payload of a *re-CRC-consistent* frame
      // could land here; the CRC makes single-byte flips detectable, so the
      // only way to get a frame back is flipping a byte the protocol treats
      // as free (there are none in v1) — assert we never get here except
      // when the flip produced an identical stream (impossible with XOR).
      ADD_FAILURE() << "single-byte corruption at " << pos << " survived";
    }
  }
}

TEST(WireFuzz, RandomFragmentationPreservesFrames) {
  // A multi-frame stream fed in random-sized chunks always yields exactly
  // the same frames.
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 8; ++i) {
    const std::vector<std::uint8_t> f =
        encode(PollFrame{static_cast<std::uint64_t>(i)});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    FrameDecoder decoder;
    std::size_t offset = 0;
    std::vector<std::uint64_t> ids;
    while (offset < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.next_below(40), stream.size() - offset);
      decoder.feed(stream.data() + offset, chunk);
      offset += chunk;
      Frame f;
      while (decoder.next(&f) == FrameDecoder::Result::kFrame) {
        PollFrame poll;
        ASSERT_TRUE(decode(f, &poll));
        ids.push_back(poll.job_id);
      }
    }
    ASSERT_EQ(ids.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(ids[i], i);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

}  // namespace
}  // namespace mrts::serve
