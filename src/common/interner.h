#ifndef WEBDIS_COMMON_INTERNER_H_
#define WEBDIS_COMMON_INTERNER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace webdis::common {

/// Arena-backed string-interning pool. Each distinct string is stored once
/// in a chunked character arena and addressed by a dense 32-bit id; views
/// returned by `View` point into the arena and stay valid for the pool's
/// lifetime (chunks are never reallocated or freed before destruction).
/// Ids are handed out 0, 1, 2, … in first-intern order, so a caller can use
/// them directly as slot numbers in its own dense table.
///
/// This is the memory substrate for the 10⁵–10⁶-document synthetic web:
/// URL keys and host names repeat massively (every per-host index entry,
/// every link target), so the web tables store 4-byte ids instead of
/// `std::string` copies. Lookup is by hash: an open-addressing table of ids
/// (linear probing, at most half full) whose probes compare against the
/// arena text, so the index costs a few bytes per string and no nodes. Not
/// thread-safe for interning; concurrent `View` reads of already-interned
/// ids are safe (the arena is append-only).
class StringInterner {
 public:
  static constexpr uint32_t kInvalidId = 0xFFFFFFFFu;

  StringInterner() = default;
  StringInterner(StringInterner&&) = default;
  StringInterner& operator=(StringInterner&&) = default;
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;

  /// Returns the id for `s`, interning a copy into the arena on first use.
  uint32_t Intern(std::string_view s);

  /// The id for `s` if already interned, else kInvalidId. Never allocates.
  uint32_t Lookup(std::string_view s) const;

  /// The interned string for a valid id. The view stays valid for the
  /// interner's lifetime.
  std::string_view View(uint32_t id) const { return by_id_[id]; }

  size_t size() const { return by_id_.size(); }

  /// Arena + index footprint in bytes (chunk storage, id table and hash
  /// slots, all at capacity) — the denominator-side input to the
  /// bytes-per-document accounting in bench/p1_web_scale.
  size_t ApproxBytes() const;

 private:
  /// Appends `s` to the arena and returns a stable view of the copy.
  std::string_view Store(std::string_view s);
  /// The slot holding `s`'s id, or the empty slot where it would go.
  size_t Probe(std::string_view s) const;
  /// Doubles the hash table and reinserts every id.
  void Grow();

  static constexpr size_t kChunkBytes = 1 << 16;
  std::deque<std::string> chunks_;      // fixed-capacity arena blocks
  std::vector<std::string_view> by_id_;  // id -> arena view
  std::vector<uint32_t> slots_;  // hash table of ids; kInvalidId = empty
};

}  // namespace webdis::common

#endif  // WEBDIS_COMMON_INTERNER_H_
