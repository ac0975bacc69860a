#include "common/interner.h"

#include <functional>

namespace webdis::common {

std::string_view StringInterner::Store(std::string_view s) {
  if (s.size() > kChunkBytes / 2) {
    // Oversized strings get a dedicated block so they never strand half a
    // chunk of unused capacity.
    chunks_.emplace_front(s);
    return chunks_.front();
  }
  if (chunks_.empty() ||
      chunks_.back().size() + s.size() > chunks_.back().capacity()) {
    chunks_.emplace_back();
    chunks_.back().reserve(kChunkBytes);
  }
  std::string& chunk = chunks_.back();
  const size_t offset = chunk.size();
  chunk.append(s.data(), s.size());
  return std::string_view(chunk).substr(offset, s.size());
}

size_t StringInterner::Probe(std::string_view s) const {
  // slots_.size() is a power of two and the table is never more than half
  // full, so the probe always ends at a match or an empty slot.
  const size_t mask = slots_.size() - 1;
  size_t slot = std::hash<std::string_view>{}(s) & mask;
  while (slots_[slot] != kInvalidId && by_id_[slots_[slot]] != s) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void StringInterner::Grow() {
  slots_.assign(slots_.empty() ? 16 : slots_.size() * 2, kInvalidId);
  for (uint32_t id = 0; id < by_id_.size(); ++id) {
    slots_[Probe(by_id_[id])] = id;
  }
}

uint32_t StringInterner::Intern(std::string_view s) {
  if (2 * (by_id_.size() + 1) > slots_.size()) Grow();
  const size_t slot = Probe(s);
  if (slots_[slot] != kInvalidId) return slots_[slot];
  const uint32_t id = static_cast<uint32_t>(by_id_.size());
  by_id_.push_back(Store(s));
  slots_[slot] = id;
  return id;
}

uint32_t StringInterner::Lookup(std::string_view s) const {
  return slots_.empty() ? kInvalidId : slots_[Probe(s)];
}

size_t StringInterner::ApproxBytes() const {
  size_t bytes = 0;
  for (const std::string& chunk : chunks_) bytes += chunk.capacity();
  bytes += by_id_.capacity() * sizeof(std::string_view);
  bytes += slots_.capacity() * sizeof(uint32_t);
  return bytes;
}

}  // namespace webdis::common
