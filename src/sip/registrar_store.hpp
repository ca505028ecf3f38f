// Registrar binding storage (docs/ARCHITECTURE.md §4, "Provider side").
//
// The paper's providers were real servers (siphoc.ch, netvoip.ch,
// polyphone.ethz.ch); the emulation grew them from a toy std::map into a
// production-shaped engine so the Internet side can sustain millions of
// bindings under a heavy INVITE mix. ShardedBindingStore is that engine and
// the one store every Registrar runs: the high bits of the AOR hash pick
// one of N shards; each shard is an open-addressing table guarded by its
// own reader-writer lock. Lookups and size queries share the lock, so
// concurrent readers (the bench's reader threads, the repository
// benchmark's client threads) wait only for a writer on the same shard;
// upsert, erase, purge and growth take it exclusively and free replaced
// memory at once. Expiry is a per-shard timer wheel: the maintenance tick
// touches only the due bucket instead of scanning every binding.
//
// The BindingStore interface stays abstract so a reference model (the
// std::map in tests/reference/single_map_store.hpp) can stand in for the
// real store in the store tests and bench_registrar's comparison row.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "sip/uri.hpp"

namespace siphoc::sip {

/// One stored registration: AOR -> contact, with absolute expiry.
struct ContactBinding {
  Uri contact;
  TimePoint expires{};
};

/// Storage behind a Registrar. `now` flows in from the simulation so the
/// store itself stays clock-free (and bench-drivable without a simulator).
class BindingStore {
 public:
  virtual ~BindingStore() = default;

  /// Inserts or refreshes a binding.
  virtual void upsert(const std::string& aor, const Uri& contact,
                      TimePoint expires) = 0;
  /// Removes a binding; false when absent.
  virtual bool erase(const std::string& aor) = 0;
  /// The unexpired binding, if any.
  virtual std::optional<ContactBinding> lookup(const std::string& aor,
                                               TimePoint now) const = 0;
  /// Drops bindings that expired at or before `now`; returns how many.
  virtual std::size_t purge_expired(TimePoint now) = 0;
  /// Stored bindings. Expired-but-not-yet-purged entries may be counted
  /// until the next purge_expired tick (the sharded store's wheel keeps
  /// that window to one maintenance interval).
  virtual std::size_t size() const = 0;
};

/// 64-bit string hash (FNV-1a finalized with a splitmix round): the one
/// hash both the store's shard placement and the P2P resolver's Chord-lite
/// ring key on, so a gateway and a provider agree on AOR placement by
/// construction.
std::uint64_t hash_aor(std::string_view aor);

class ShardedBindingStore final : public BindingStore {
 public:
  struct Config {
    std::size_t shards = 8;
    /// Initial slots per shard (rounded up to a power of two).
    std::size_t initial_capacity = 64;
    /// Timer-wheel geometry: `wheel_slots` buckets of kWheelGranularity
    /// each; bindings further out than the wheel horizon wrap around and
    /// are re-examined each lap until they come due.
    std::size_t wheel_slots = 4096;
  };

  /// Width of one timer-wheel bucket.
  static constexpr Duration kWheelGranularity = seconds(1);

  ShardedBindingStore();
  explicit ShardedBindingStore(Config config);
  ~ShardedBindingStore() override;

  ShardedBindingStore(const ShardedBindingStore&) = delete;
  ShardedBindingStore& operator=(const ShardedBindingStore&) = delete;

  void upsert(const std::string& aor, const Uri& contact,
              TimePoint expires) override;
  bool erase(const std::string& aor) override;
  std::optional<ContactBinding> lookup(const std::string& aor,
                                       TimePoint now) const override;
  std::size_t purge_expired(TimePoint now) override;
  std::size_t size() const override;

  std::size_t shard_count() const { return shards_.size(); }
  /// Which shard owns `aor` (bench/test introspection; also the
  /// distribution check's probe).
  std::size_t shard_of(std::string_view aor) const;
  /// Bindings stored in one shard.
  std::size_t shard_size(std::size_t shard) const;
  /// Items filed in the timer wheels, over all shards (test
  /// introspection: a refresh that keeps its expiry files none).
  std::size_t wheel_items() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::string aor;
    Uri contact;
    TimePoint expires{};
  };
  /// Tombstone marker: slot was occupied, probes continue past it.
  static Entry* tombstone() {
    static Entry t;
    return &t;
  }

  struct WheelItem {
    std::uint64_t hash;
    std::string aor;
    TimePoint expires;  // the expiry this item was filed under
  };

  struct Shard {
    /// Shared for lookups and size queries, exclusive for every mutation.
    mutable std::shared_mutex mutex;
    /// Open addressing, linear probing; the size is a power of two.
    std::vector<Entry*> slots;
    std::size_t used = 0;  // occupied + tombstoned slots
    std::size_t size = 0;  // live entries
    std::vector<std::vector<WheelItem>> wheel;
    std::size_t wheel_cursor = 0;  // next due bucket
    TimePoint wheel_floor{};       // time the cursor sits at
  };

  std::size_t shard_for_hash(std::uint64_t hash) const;
  static void grow(Shard& shard);
  /// The entry for `aor`, or null. `*slot_out` gets its slot, or else the
  /// first insertable one (empty or tombstone). Requires the shard's lock,
  /// shared or exclusive.
  static Entry* find_entry(const Shard& shard, std::uint64_t hash,
                           std::string_view aor, std::size_t* slot_out);
  std::size_t wheel_index(TimePoint expires) const;

  Config config_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace siphoc::sip
