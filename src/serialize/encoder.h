#ifndef WEBDIS_SERIALIZE_ENCODER_H_
#define WEBDIS_SERIALIZE_ENCODER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace webdis::serialize {

/// The deepest PRE or expression tree a decoder accepts: a node more than
/// this many levels below the root is Corruption. The PRE and DISQL parsers
/// reject deeper input with InvalidArgument, so whatever they accept can
/// cross the wire, and no recursion over a parsed tree runs deeper.
inline constexpr int kMaxTreeDepth = 64;

/// Append-only binary encoder. WEBDIS ships query clones, CHT reports and
/// result batches between sites; the paper relied on Java object
/// serialization, which we replace with this explicit little-endian format:
///   - fixed-width u8/u16/u32/u64
///   - LEB128 varints for counts and small integers
///   - length(varint)-prefixed byte strings
/// Byte counts are exact and deterministic, which makes the network-traffic
/// benchmarks (T1/T4) meaningful.
class Encoder {
 public:
  Encoder() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// Unsigned LEB128.
  void PutVarint(uint64_t v);
  /// Varint length followed by raw bytes.
  void PutString(std::string_view s);
  /// Raw bytes with no length prefix (caller knows the length).
  void PutRaw(const void* data, size_t len);
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  const std::vector<uint8_t>& data() const { return buf_; }
  size_t size() const { return buf_.size(); }
  std::vector<uint8_t> Release() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Cursor-based binary decoder over a borrowed byte span. Every read is
/// bounds-checked and returns Status on truncation/corruption — malformed
/// network input must never crash a query server.
class Decoder {
 public:
  Decoder(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit Decoder(const std::vector<uint8_t>& buf)
      : Decoder(buf.data(), buf.size()) {}

  Status GetU8(uint8_t* out);
  Status GetU16(uint16_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetVarint(uint64_t* out);
  Status GetString(std::string* out);
  Status GetBool(bool* out);

  /// Bounds/overflow-checked length-prefix read: decodes a varint count and
  /// validates it against an explicit cap AND against the bytes actually
  /// remaining (each counted item needs at least `min_bytes_per_item` bytes
  /// of encoding), so a crafted prefix can neither drive a huge allocation
  /// (reserve/resize) nor a long decode loop before the truncation is
  /// noticed. Every repeated-field decoder in the wire/WAL/snapshot codecs
  /// reads its count through this helper; `what` names the field in the
  /// Corruption message so fuzzer crashes and corrupt-frame logs are
  /// attributable.
  Status GetCount(const char* what, uint64_t max_count,
                  size_t min_bytes_per_item, uint64_t* out);

  /// Corruption unless every byte has been consumed. Full-message decoders
  /// call this after their last field: a frame with trailing garbage is
  /// rejected outright, never silently truncated to its parseable prefix
  /// (PROTOCOL.md §1: decoders reject, they do not repair).
  Status ExpectAtEnd(const char* what) const;

  /// Bytes not yet consumed.
  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n);

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace webdis::serialize

#endif  // WEBDIS_SERIALIZE_ENCODER_H_
