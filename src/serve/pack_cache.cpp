#include "serve/pack_cache.hpp"

#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu::serve {

namespace {

telemetry::Counter cache_hits_ctr("serve.pack_cache.hits");
telemetry::Counter cache_misses_ctr("serve.pack_cache.misses");
telemetry::Counter cache_evictions_ctr("serve.pack_cache.evictions");
telemetry::Counter cache_corrupt_ctr("serve.pack_cache.corrupt_dropped");

/// FNV-1a-style rolling hash over 64-bit words. Integrity-grade, not
/// cryptographic: it reliably catches the bit-level corruption the
/// cache guards against.
struct WordHash {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
};

void hash_lanes(WordHash& w, const std::vector<core::LaneOperand>& lanes) {
  w.mix(lanes.size());
  for (const core::LaneOperand& l : lanes) {
    // Field-wise: LaneOperand has padding whose bytes are unspecified
    // after copies, so hashing the raw struct bytes would false-trip.
    w.mix(static_cast<std::uint64_t>(l.cls));
    w.mix(static_cast<std::uint64_t>(l.sign));
    w.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(l.exp2)));
    w.mix(l.sig);
  }
}

void hash_bytes(WordHash& w, const std::vector<std::uint8_t>& bytes) {
  w.mix(bytes.size());
  for (std::uint8_t b : bytes) w.mix(b);
}

void hash_meta(WordHash& w, const std::vector<core::PanelChunkMeta>& meta) {
  w.mix(meta.size());
  for (const core::PanelChunkMeta& m : meta) {
    w.mix(static_cast<std::uint64_t>(static_cast<std::uint16_t>(m.min_exp)));
    w.mix(static_cast<std::uint64_t>(static_cast<std::uint16_t>(m.max_exp)));
    w.mix(m.flags);
  }
}

std::uint64_t checksum_panel(const core::PackedPanelFp32B& p) {
  WordHash w;
  w.mix(static_cast<std::uint64_t>(p.k));
  w.mix(static_cast<std::uint64_t>(p.cols));
  w.mix(static_cast<std::uint64_t>(p.has_special));
  hash_lanes(w, p.like);
  hash_lanes(w, p.swapped);
  hash_lanes(w, p.cls);
  hash_bytes(w, p.special);
  hash_meta(w, p.meta);
  return w.h;
}

std::uint64_t checksum_panel(const core::PackedPanelFp32cB& p) {
  WordHash w;
  w.mix(static_cast<std::uint64_t>(p.k));
  w.mix(static_cast<std::uint64_t>(p.cols));
  w.mix(static_cast<std::uint64_t>(p.has_special));
  hash_lanes(w, p.real_like);
  hash_lanes(w, p.real_swap);
  hash_lanes(w, p.imag_like);
  hash_lanes(w, p.imag_swap);
  hash_lanes(w, p.cls);
  hash_bytes(w, p.special);
  hash_meta(w, p.meta);
  return w.h;
}

}  // namespace

std::size_t PackCache::KeyHash::operator()(const gemm::PanelKey& k) const {
  WordHash w;
  w.mix(k.b_key);
  w.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.k0)));
  w.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.col0)));
  w.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.kc)));
  w.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.cols)));
  w.mix(static_cast<std::uint64_t>(k.cplx));
  return static_cast<std::size_t>(w.h);
}

PackCache::PackCache(std::size_t capacity) : capacity_(capacity) {
  M3XU_CHECK_MSG(capacity_ > 0, "PackCache capacity must be positive");
}

template <typename Panel, Panel PackCache::Entry::*Member>
bool PackCache::get_impl(const gemm::PanelKey& key, Panel* out) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    cache_misses_ctr.increment();
    return false;
  }
  Entry& entry = it->second;
  if (checksum_panel(entry.*Member) != entry.checksum) {
    // A corrupted panel must never be served: drop the entry so the
    // caller's repack replaces it, and make the event visible.
    lru_.erase(entry.lru_it);
    entries_.erase(it);
    ++corrupt_dropped_;
    cache_corrupt_ctr.increment();
    ++misses_;
    cache_misses_ctr.increment();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
  *out = entry.*Member;
  ++hits_;
  cache_hits_ctr.increment();
  return true;
}

template <typename Panel, Panel PackCache::Entry::*Member>
void PackCache::put_impl(const gemm::PanelKey& key, const Panel& panel) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Replacement (e.g. repack after a corruption drop raced another
    // packer): refresh in place.
    it->second.*Member = panel;
    it->second.checksum = checksum_panel(panel);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  while (entries_.size() >= capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
    cache_evictions_ctr.increment();
  }
  lru_.push_front(key);
  Entry entry;
  entry.*Member = panel;
  entry.checksum = checksum_panel(panel);
  entry.lru_it = lru_.begin();
  entries_.emplace(key, std::move(entry));
}

bool PackCache::get_fp32(const gemm::PanelKey& key,
                         core::PackedPanelFp32B* out) {
  return get_impl<core::PackedPanelFp32B, &Entry::f32>(key, out);
}

bool PackCache::get_fp32c(const gemm::PanelKey& key,
                          core::PackedPanelFp32cB* out) {
  return get_impl<core::PackedPanelFp32cB, &Entry::f32c>(key, out);
}

void PackCache::put_fp32(const gemm::PanelKey& key,
                         const core::PackedPanelFp32B& panel) {
  put_impl<core::PackedPanelFp32B, &Entry::f32>(key, panel);
}

void PackCache::put_fp32c(const gemm::PanelKey& key,
                          const core::PackedPanelFp32cB& panel) {
  put_impl<core::PackedPanelFp32cB, &Entry::f32c>(key, panel);
}

std::size_t PackCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t PackCache::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}
std::uint64_t PackCache::misses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}
std::uint64_t PackCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}
std::uint64_t PackCache::corrupt_dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return corrupt_dropped_;
}

bool PackCache::corrupt_one(std::uint64_t b_key) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries_) {
    if (key.b_key != b_key) continue;
    std::vector<core::LaneOperand>* lanes =
        key.cplx ? &entry.f32c.real_like : &entry.f32.like;
    if (lanes->empty()) continue;
    (*lanes)[0].sig ^= 1ull << 7;
    return true;
  }
  return false;
}

void PackCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

}  // namespace m3xu::serve
