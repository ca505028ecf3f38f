// Tests: the sharded binding store under real concurrency. Each shard's
// reader-writer lock lets lookups share a shard while upserts, erases,
// purges and table growth take it alone. Lives in the tsan-labeled binary
// so `ctest --preset tsan` races writers, purges and growth against
// readers under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "reference/single_map_store.hpp"
#include "sip/registrar_store.hpp"

namespace siphoc::sip {
namespace {

TimePoint at(int s) { return TimePoint{} + seconds(s); }

Uri contact_of(int version) {
  return Uri::from_endpoint(
      {net::Address(192, 0, 2, 1 + (version % 200)), 5060}, "u");
}

std::string describe(const std::optional<ContactBinding>& b) {
  if (!b) return "none";
  return b->contact.to_string() + " until " + format_time(b->expires);
}

/// One writer churns bindings (upsert/refresh/erase/purge, forcing table
/// growth and in-place refreshes) while several readers hammer lookups.
/// Torn reads, use-after-free of erased entries, or races on the slot
/// array all show up here -- under tsan as reports, without it as crashes
/// or the invariant checks below firing.
TEST(ShardedStoreConcurrency, ReadersNeverSeeTornEntries) {
  ShardedBindingStore::Config config;
  config.shards = 4;
  config.initial_capacity = 8;  // guarantee growth while readers run
  ShardedBindingStore store(config);

  constexpr int kKeys = 512;
  constexpr int kWriterRounds = 60;
  const auto key = [](int i) { return "user" + std::to_string(i) + "@x"; };

  // Seed so readers have something to find from the start.
  for (int i = 0; i < kKeys; ++i) {
    store.upsert(key(i), contact_of(0), at(1000));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0}, hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t local_reads = 0, local_hits = 0;
      int i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto found = store.lookup(key(i % kKeys), at(1));
        ++local_reads;
        if (found) {
          ++local_hits;
          // The copy is taken under the shard's shared lock: whatever
          // version we caught must be internally consistent (contact
          // written by *some* upsert of this key, never a half-written
          // mix).
          EXPECT_EQ(found->contact.user, "u");
          EXPECT_FALSE(found->contact.host.empty());
          EXPECT_GT(found->expires, at(1));
        }
        i += 7;
      }
      reads.fetch_add(local_reads);
      hits.fetch_add(local_hits);
    });
  }

  for (int round = 1; round <= kWriterRounds; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      if ((i + round) % 5 == 0) {
        store.erase(key(i));
      } else {
        store.upsert(key(i), contact_of(round), at(1000 + round));
      }
    }
    store.purge_expired(at(round / 10));
  }
  stop.store(true);
  for (auto& r : readers) r.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(hits.load(), 0u);

  // Quiesced state must be exact: every key written in the last round is
  // present with the last round's expiry, every erased key absent.
  for (int i = 0; i < kKeys; ++i) {
    const auto found = store.lookup(key(i), at(1));
    if ((i + kWriterRounds) % 5 == 0) {
      EXPECT_FALSE(found) << key(i);
    } else {
      ASSERT_TRUE(found) << key(i);
      EXPECT_EQ(found->expires, at(1000 + kWriterRounds));
    }
  }
}

/// The store against the reference model with several writers at once.
/// Three owner threads each drive the AORs with `i % 3 == t` through a
/// seeded upsert / erase / lookup sequence and check every answer against
/// their own SingleMapStore: no other thread writes those keys, so the
/// answers must be exact. Every expiry lies past the purge times, so the
/// fourth thread's purge_expired passes must find nothing to drop while
/// they walk (and, with an 8-slot wheel, re-file) the owners' wheel items;
/// its lookups of foreign keys may race any write and only check that what
/// they read is well-formed.
TEST(ShardedStoreConcurrency, OwnedKeysMatchReferenceModelUnderPurges) {
  ShardedBindingStore::Config config;
  config.shards = 4;
  config.initial_capacity = 8;  // growth happens under contention
  config.wheel_slots = 8;
  ShardedBindingStore store(config);

  constexpr int kOwners = 3;
  constexpr std::uint32_t kKeys = 600;
  constexpr int kOpsPerOwner = 20000;
  constexpr int kLastPurge = 99;  // every expiry is at(100) or later
  const auto key = [](std::uint32_t i) {
    return "user" + std::to_string(i) + "@x";
  };

  std::vector<SingleMapStore> models(kOwners);
  std::atomic<int> owners_done{0};
  std::vector<std::thread> threads;
  // A failed ASSERT returns from `drive` early; the owner still counts as
  // done so the purging thread stops.
  const auto drive = [&](int t) {
    SingleMapStore& model = models[t];
    Rng rng(static_cast<std::uint64_t>(t) + 1);
    for (int op = 0; op < kOpsPerOwner; ++op) {
      const std::uint32_t i =
          rng.uniform_int(0, kKeys / kOwners - 1) * kOwners + t;
      const std::uint32_t roll = rng.uniform_int(0, 99);
      if (roll < 40) {
        const TimePoint expires =
            at(kLastPurge + 1) + milliseconds(rng.uniform_int(0, 60'000));
        const Uri contact = contact_of(static_cast<int>(roll));
        store.upsert(key(i), contact, expires);
        model.upsert(key(i), contact, expires);
      } else if (roll < 55) {
        ASSERT_EQ(store.erase(key(i)), model.erase(key(i)))
            << "owner " << t << " op " << op;
      } else {
        ASSERT_EQ(describe(store.lookup(key(i), at(kLastPurge))),
                  describe(model.lookup(key(i), at(kLastPurge))))
            << "owner " << t << " op " << op << " lookup " << key(i);
      }
    }
  };
  for (int t = 0; t < kOwners; ++t) {
    threads.emplace_back([&, t] {
      drive(t);
      owners_done.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    Rng rng(99);
    int second = 0;
    while (owners_done.load() < kOwners) {
      EXPECT_EQ(store.purge_expired(at(second)), 0u) << "at " << second;
      second = std::min(second + 1, kLastPurge);
      for (int n = 0; n < 50; ++n) {
        const auto found =
            store.lookup(key(rng.uniform_int(0, kKeys - 1)), at(kLastPurge));
        if (!found) continue;
        EXPECT_EQ(found->contact.user, "u");
        EXPECT_EQ(found->contact.host.rfind("192.0.2.", 0), 0u);
        EXPECT_GT(found->expires, at(kLastPurge));
      }
    }
  });
  for (auto& th : threads) th.join();

  std::size_t expected = 0;
  for (const auto& model : models) expected += model.size();
  EXPECT_EQ(store.size(), expected);
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(describe(store.lookup(key(i), at(kLastPurge))),
              describe(models[i % kOwners].lookup(key(i), at(kLastPurge))))
        << key(i);
  }
}

/// Concurrent readers over two stores at once: each store's shard locks
/// and tables must stay its own, so every lookup sees only its own
/// store's bindings.
TEST(ShardedStoreConcurrency, ReaderSlotsIsolatedAcrossStores) {
  ShardedBindingStore a, b;
  a.upsert("x@a", contact_of(1), at(100));
  b.upsert("x@b", contact_of(2), at(100));

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        EXPECT_TRUE(a.lookup("x@a", at(1)));
        EXPECT_TRUE(b.lookup("x@b", at(1)));
        EXPECT_FALSE(a.lookup("x@b", at(1)));
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace siphoc::sip
