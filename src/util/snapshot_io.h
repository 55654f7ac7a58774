#pragma once
/// \file snapshot_io.h
/// Little-endian binary reader/writer pair for whole-runtime snapshots
/// (rts/snapshot.h, format `mrts.snapshot.v2`) and the payloads of
/// `mrts.wire.v1` frames (serve/wire.h). Deliberately tiny and
/// dependency-free so every layer (util RNG / arch fabrics / rts units) can
/// expose `save_state` / `load_state` hooks without pulling rts headers.
///
/// Field walks: each format is spelled once, as a function template that
/// lists its fields in byte order. It is instantiated for SnapshotWriter
/// (save, encode), which visits the state const, and for SnapshotReader
/// (load, decode), which visits it mutable. Both classes therefore offer
/// the same calls: `w.u64(x)` writes x and `r.u64(x)` reads into x, as do
/// the shared helpers below (strong ids, enums, nested sections, optional
/// sections, fixed-shape and length-prefixed sequences, maps in ascending
/// key order). A check written after a field runs on both sides; live
/// state passes it, so on the writer it never fires. Work that only
/// loading needs (a recount, a commit) sits under
/// `if constexpr (Io::kLoading)`.
///
/// Error contract: SnapshotReader never crashes on truncated or corrupt
/// bytes — every primitive read checks bounds first and throws
/// SnapshotError carrying the exact byte offset that failed, which the CLI
/// surfaces verbatim ("snapshot corrupt at offset N") with exit code 2.
/// Doubles round-trip through their IEEE-754 bit pattern (bit_cast), so a
/// restored run's floating-point state is bit-identical, not just close.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace mrts {

/// Malformed snapshot bytes: \p offset is the position (into the buffer
/// handed to SnapshotReader) where decoding failed.
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at offset " + std::to_string(offset)),
        offset_(offset) {}

  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_ = 0;
};

/// A strong id of util/types.h: an enum class over a u32, stored as one.
template <typename T>
concept StrongId = std::is_enum_v<T> &&
                   std::is_same_v<std::underlying_type_t<T>, std::uint32_t>;

/// Append-only little-endian encoder: the save/encode side of a walk.
class SnapshotWriter {
 public:
  static constexpr bool kLoading = false;

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  // Walk helpers; SnapshotReader has the same ones, which also validate.
  // Caps and names serve only the reader.
  template <StrongId Id>
  void id(Id v) {
    u32(static_cast<std::uint32_t>(v));
  }
  /// An enum stored as one byte below \p count.
  template <typename E>
  void enum8(E v, std::uint8_t /*count*/, const char* /*what*/) {
    u8(static_cast<std::uint8_t>(v));
  }
  /// A nested section: a member with its own save_state.
  template <typename T>
  void state(const T& t) {
    t.save_state(*this);
  }
  /// Presence flag of an optional section that follows iff \p live.
  bool present(bool live, const char* /*mismatch*/) {
    boolean(live);
    return live;
  }
  /// A u64 count that must equal the live \p n.
  void count(std::uint64_t n, const char* /*what*/) { u64(n); }
  /// Length-prefixed sequence, \p each(io, element) per element.
  template <typename Seq, typename Fn>
  void seq(const Seq& v, std::uint64_t /*max*/, const char* /*what*/,
           Fn&& each) {
    u64(v.size());
    for (const auto& e : v) each(*this, e);
  }
  /// Length-prefixed sequence whose length must equal the live one.
  template <typename Seq, typename Fn>
  void fixed(const Seq& v, const char* what, Fn&& each) {
    seq(v, 0, what, each);
  }
  /// Length-prefixed map in ascending key order, so the bytes do not depend
  /// on hash-table iteration order; \p each(io, key, value) per entry.
  template <typename Map, typename Fn>
  void map(const Map& m, std::uint64_t /*max*/, const char* /*what*/,
           Fn&& each) {
    std::vector<const typename Map::value_type*> entries;
    entries.reserve(m.size());
    for (const auto& entry : m) entries.push_back(&entry);
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    u64(entries.size());
    for (const auto* entry : entries) each(*this, entry->first, entry->second);
  }

  /// Overwrites 4 bytes previously written at \p pos (size/CRC backpatch).
  void patch_u32(std::size_t pos, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_[pos + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  void patch_u64(std::size_t pos, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_[pos + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::size_t pos() const { return bytes_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian decoder over a caller-owned buffer: the
/// load/decode side of a walk.
class SnapshotReader {
 public:
  static constexpr bool kLoading = true;

  SnapshotReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit SnapshotReader(const std::vector<std::uint8_t>& bytes)
      : SnapshotReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2, "u16");
    const std::uint16_t v =
        static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::size_t at = pos_;
    const std::uint8_t v = u8();
    if (v > 1) throw SnapshotError("snapshot bool out of range", at);
    return v != 0;
  }
  std::string str() {
    const std::size_t at = pos_;
    const std::uint64_t n = u64();
    if (n > remaining()) throw SnapshotError("snapshot string truncated", at);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  // The writer's calls, reading into their argument.
  void u8(std::uint8_t& v) { v = u8(); }
  void u16(std::uint16_t& v) { v = u16(); }
  void u32(std::uint32_t& v) { v = u32(); }
  void u64(std::uint64_t& v) { v = u64(); }
  void i32(std::int32_t& v) { v = i32(); }
  void f64(double& v) { v = f64(); }
  void boolean(bool& v) { v = boolean(); }
  /// An element of a std::vector<bool>, reached through its proxy.
  void boolean(std::vector<bool>::reference v) { v = boolean(); }
  void str(std::string& s) { s = str(); }

  template <StrongId Id>
  void id(Id& v) {
    v = Id{u32()};
  }
  template <typename E>
  void enum8(E& v, std::uint8_t count, const char* what) {
    const std::size_t at = pos_;
    const std::uint8_t raw = u8();
    if (raw >= count) {
      throw SnapshotError(std::string("snapshot ") + what + " out of range",
                          at);
    }
    v = static_cast<E>(raw);
  }
  template <typename T>
  void state(T& t) {
    t.load_state(*this);
  }
  /// Throws \p mismatch when the stored flag differs from \p live.
  bool present(bool live, const char* mismatch) {
    if (boolean() != live) throw SnapshotError(mismatch, pos_);
    return live;
  }
  void count(std::uint64_t n, const char* what) {
    const std::size_t at = pos_;
    if (u64() != n) {
      throw SnapshotError(
          std::string("snapshot ") + what + " does not match this fabric", at);
    }
  }
  /// Replaces \p v once every element has been read. The reservation is
  /// bounded by the bytes left, so a corrupt length allocates no more than
  /// the buffer could hold.
  template <typename T, typename Fn>
  void seq(std::vector<T>& v, std::uint64_t max, const char* what,
           Fn&& each) {
    const std::size_t n = length(max, what);
    std::vector<T> out;
    out.reserve(std::min(n, remaining()));
    for (std::size_t i = 0; i < n; ++i) each(*this, out.emplace_back());
    v = std::move(out);
  }
  /// Reads the elements in place, after checking the stored length.
  template <typename Seq, typename Fn>
  void fixed(Seq& v, const char* what, Fn&& each) {
    const std::size_t n = length(1u << 20, what);
    if (n != v.size()) {
      throw SnapshotError(std::string("snapshot ") + what +
                              " size does not match this fabric",
                          pos_);
    }
    for (auto&& e : v) each(*this, e);
  }
  /// Replaces \p m once every entry has been read; a repeated key keeps
  /// its first value.
  template <typename Map, typename Fn>
  void map(Map& m, std::uint64_t max, const char* what, Fn&& each) {
    const std::size_t n = length(max, what);
    Map out;
    if constexpr (requires { out.reserve(n); }) {
      out.reserve(std::min(n, remaining()));
    }
    for (std::size_t i = 0; i < n; ++i) {
      auto key = typename Map::key_type();
      auto value = typename Map::mapped_type();
      each(*this, key, value);
      out.emplace(std::move(key), std::move(value));
    }
    m = std::move(out);
  }

  /// u64 length prefix validated against an element-count ceiling before any
  /// allocation; use for every vector/map so corrupt lengths fail cleanly.
  std::size_t length(std::uint64_t max_elements, const char* what) {
    const std::size_t at = pos_;
    const std::uint64_t n = u64();
    if (n > max_elements) {
      throw SnapshotError(std::string("snapshot ") + what + " length implausible",
                          at);
    }
    return static_cast<std::size_t>(n);
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }

  /// Fails loudly when a section decoded fewer/more bytes than written —
  /// the snapshot layout drifted between writer and reader.
  void expect_end() const {
    if (!at_end()) throw SnapshotError("snapshot has trailing bytes", pos_);
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (size_ - pos_ < n) {
      throw SnapshotError(std::string("snapshot truncated reading ") + what,
                          pos_);
    }
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over \p bytes.
std::uint32_t snapshot_crc32(const std::uint8_t* data, std::size_t size);

/// Running form of snapshot_crc32: extends \p crc, the CRC-32 of the bytes
/// seen so far (0 for none), by \p size more bytes. Feeding a buffer in any
/// split gives the one-shot CRC of the whole:
/// crc32_update(crc32_update(0, a, n), b, m) == CRC of a||b.
/// On x86-64 CPUs with PCLMULQDQ (asked once per process) the whole 16-byte
/// blocks of a buffer of 64 bytes or more are folded by carry-less
/// multiplication; every other byte goes through crc32_update_portable.
/// Both give the same value.
std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t size);

/// crc32_update by the portable slicing-by-8 table loop alone, on every
/// host: the path of CPUs without the fold, and the tests' oracle for it.
std::uint32_t crc32_update_portable(std::uint32_t crc,
                                    const std::uint8_t* data,
                                    std::size_t size);

}  // namespace mrts
