#include "sip/registrar_store.hpp"

#include <algorithm>
#include <mutex>

namespace siphoc::sip {

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::uint64_t hash_aor(std::string_view aor) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (const char c : aor) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return splitmix64(h);
}

// ---------------------------------------------------------------------------
// ShardedBindingStore
// ---------------------------------------------------------------------------

using ReadLock = std::shared_lock<std::shared_mutex>;
using WriteLock = std::lock_guard<std::shared_mutex>;

ShardedBindingStore::ShardedBindingStore()
    : ShardedBindingStore(Config{}) {}

ShardedBindingStore::ShardedBindingStore(Config config)
    : config_(config) {
  config_.shards = std::max<std::size_t>(1, config_.shards);
  config_.wheel_slots = std::max<std::size_t>(2, config_.wheel_slots);
  const std::size_t capacity =
      round_up_pow2(std::max<std::size_t>(8, config_.initial_capacity));
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->slots.assign(capacity, nullptr);
    shard->wheel.resize(config_.wheel_slots);
    shards_.push_back(std::move(shard));
  }
}

ShardedBindingStore::~ShardedBindingStore() {
  for (auto& shard : shards_) {
    for (Entry* e : shard->slots) {
      if (e != nullptr && e != tombstone()) delete e;
    }
  }
}

std::size_t ShardedBindingStore::shard_for_hash(std::uint64_t hash) const {
  // High bits pick the shard; the low bits index the slot array, so the
  // two choices stay independent.
  return static_cast<std::size_t>(((hash >> 32) * shards_.size()) >> 32);
}

std::size_t ShardedBindingStore::shard_of(std::string_view aor) const {
  return shard_for_hash(hash_aor(aor));
}

std::size_t ShardedBindingStore::shard_size(std::size_t shard) const {
  const Shard& s = *shards_.at(shard);
  ReadLock lock(s.mutex);
  return s.size;
}

std::size_t ShardedBindingStore::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    ReadLock lock(shard->mutex);
    n += shard->size;
  }
  return n;
}

ShardedBindingStore::Entry* ShardedBindingStore::find_entry(
    const Shard& shard, std::uint64_t hash, std::string_view aor,
    std::size_t* slot_out) {
  const std::size_t mask = shard.slots.size() - 1;
  const std::size_t none = shard.slots.size();
  std::size_t idx = hash & mask;
  std::size_t first_free = none;  // first tombstone on the path
  for (;;) {
    Entry* e = shard.slots[idx];
    if (e == nullptr) {
      *slot_out = first_free != none ? first_free : idx;
      return nullptr;
    }
    if (e == tombstone()) {
      if (first_free == none) first_free = idx;
    } else if (e->hash == hash && e->aor == aor) {
      *slot_out = idx;
      return e;
    }
    idx = (idx + 1) & mask;
  }
}

void ShardedBindingStore::grow(Shard& shard) {
  std::vector<Entry*> slots(shard.slots.size() * 2, nullptr);
  const std::size_t mask = slots.size() - 1;
  std::size_t live = 0;
  for (Entry* e : shard.slots) {
    if (e == nullptr || e == tombstone()) continue;
    std::size_t idx = e->hash & mask;
    while (slots[idx] != nullptr) idx = (idx + 1) & mask;
    slots[idx] = e;
    ++live;
  }
  shard.slots.swap(slots);
  shard.used = live;  // tombstones do not survive the rehash
}

std::size_t ShardedBindingStore::wheel_index(TimePoint expires) const {
  const auto ticks = (expires - TimePoint{}) / kWheelGranularity;
  return static_cast<std::size_t>(ticks) % config_.wheel_slots;
}

void ShardedBindingStore::upsert(const std::string& aor, const Uri& contact,
                                 TimePoint expires) {
  const std::uint64_t hash = hash_aor(aor);
  Shard& shard = *shards_[shard_for_hash(hash)];
  WriteLock lock(shard.mutex);

  if ((shard.used + 1) * 10 > shard.slots.size() * 7) grow(shard);

  std::size_t slot = 0;
  if (Entry* existing = find_entry(shard, hash, aor, &slot)) {
    existing->contact = contact;
    // A live entry always has a wheel item filed under its current expiry
    // (purge drains that item only once the entry itself is due), so a
    // refresh to the same expiry files nothing new.
    if (existing->expires == expires) return;
    existing->expires = expires;
  } else {
    auto* entry = new Entry{hash, aor, contact, expires};
    if (shard.slots[slot] == nullptr) ++shard.used;
    shard.slots[slot] = entry;
    ++shard.size;
  }
  shard.wheel[wheel_index(expires)].push_back(WheelItem{hash, aor, expires});
}

bool ShardedBindingStore::erase(const std::string& aor) {
  const std::uint64_t hash = hash_aor(aor);
  Shard& shard = *shards_[shard_for_hash(hash)];
  WriteLock lock(shard.mutex);

  std::size_t slot = 0;
  Entry* existing = find_entry(shard, hash, aor, &slot);
  if (existing == nullptr) return false;
  shard.slots[slot] = tombstone();
  --shard.size;
  delete existing;
  return true;
}

std::optional<ContactBinding> ShardedBindingStore::lookup(
    const std::string& aor, TimePoint now) const {
  const std::uint64_t hash = hash_aor(aor);
  const Shard& shard = *shards_[shard_for_hash(hash)];
  ReadLock lock(shard.mutex);

  std::size_t slot = 0;
  const Entry* e = find_entry(shard, hash, aor, &slot);
  if (e == nullptr || e->expires <= now) return std::nullopt;
  return ContactBinding{e->contact, e->expires};
}

std::size_t ShardedBindingStore::wheel_items() const {
  std::size_t items = 0;
  for (const auto& shard : shards_) {
    ReadLock lock(shard->mutex);
    for (const auto& bucket : shard->wheel) items += bucket.size();
  }
  return items;
}

std::size_t ShardedBindingStore::purge_expired(TimePoint now) {
  std::size_t purged = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    WriteLock lock(shard.mutex);
    const auto drain = [&](std::vector<WheelItem>& bucket) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        WheelItem& item = bucket[i];
        if (item.expires > now) {
          // Not yet due: filed a full wheel turn out, or falls later in
          // the granule containing `now`. Keep for a later pass.
          if (kept != i) bucket[kept] = std::move(item);
          ++kept;
          continue;
        }
        std::size_t slot = 0;
        Entry* e = find_entry(shard, item.hash, item.aor, &slot);
        // Refreshed entries carry a newer expiry than the wheel item that
        // pointed at them; only still-stale entries die.
        if (e != nullptr && e->expires <= now) {
          shard.slots[slot] = tombstone();
          --shard.size;
          delete e;
          ++purged;
        }
      }
      bucket.resize(kept);
    };
    // Walk the wheel from the shard's floor up to `now`, one granule at a
    // time; only the due buckets are touched, never the whole table. Only
    // fully elapsed granules advance the cursor -- the granule containing
    // `now` is drained in place (items due mid-granule must not wait a
    // whole wheel lap) but stays current until it fully elapses.
    while (shard.wheel_floor + kWheelGranularity <= now) {
      drain(shard.wheel[shard.wheel_cursor]);
      shard.wheel_cursor = (shard.wheel_cursor + 1) % config_.wheel_slots;
      shard.wheel_floor += kWheelGranularity;
    }
    if (shard.wheel_floor <= now) drain(shard.wheel[shard.wheel_cursor]);
  }
  return purged;
}

}  // namespace siphoc::sip
