// KeyedDict<K, V>: the hash-partitionable dictionary SE.
//
// This is the state structure behind the paper's key/value store application
// (§6.1) and the word-count state. It implements the full dirty-state
// protocol: while a checkpoint is active, writes land in an overlay map
// (erases become tombstones), reads consult the overlay first, and
// EndCheckpoint folds the overlay back under a short lock — the paper's claim
// that "the locking overhead reduces proportionally to the state update
// rate" (§6.4) falls out of the overlay size.
//
// The dictionary is hash-striped over ShardedState: every entry lives in the
// stripe its partitioning hash selects, single-key operations take only that
// stripe's shared_mutex, and checkpoint serialisation walks stripes
// independently (SerializeShardRecords) so the driver can fan it across a
// thread pool.
//
// Cold tier (ConfigureSpill): under a resident-byte budget, whole stripes are
// evicted to chunk-framed spill files and paged back transparently. The
// per-stripe picture once spilled:
//   - `main` is empty (its merged contents live in the stripe's spill blob),
//   - `cold` absorbs post-spill writes in O(1) (nullopt = erased relative to
//     the blob) so a Put/Erase/Update on a cold stripe never rehydrates,
//   - a read that misses `cold` pages the whole stripe back in under the
//     stripe's exclusive lock (fault-in), EXCEPT while a checkpoint is
//     active, when the blob is part of the frozen snapshot and single keys
//     are answered straight from disk instead.
// Read precedence on a spilled stripe: dirty (checkpoint overlay, if active)
// > cold > blob. Because the blob is already chunk-framed, checkpoints,
// delta epochs, migration streaming and the replica feed all serialize a
// spilled stripe record-by-record from disk without rehydration.
// Eviction and fault-in are disabled while a checkpoint is active (the main
// structure and blob must stay frozen for the lock-free serialize walk), so
// the spilled set is stable across any one checkpoint.
#ifndef SDG_STATE_KEYED_DICT_H_
#define SDG_STATE_KEYED_DICT_H_

#include <atomic>
#include <iterator>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/state/chunk.h"
#include "src/state/codec.h"
#include "src/state/sharded_state.h"
#include "src/state/spill.h"
#include "src/state/state_backend.h"

namespace sdg::state {

template <typename K, typename V>
class KeyedDict final : public StateBackend {
 public:
  explicit KeyedDict(uint32_t num_shards = DefaultStateShards())
      : shards_(num_shards) {}

  // --- Map operations -------------------------------------------------------

  void Put(const K& key, V value) {
    const uint64_t h = Codec<K>::Hash(key);
    const bool spill = shards_.spill_enabled();
    const uint32_t s = shards_.ShardOf(h);
    auto& st = shards_.stripe(s);
    {
      std::unique_lock<std::shared_mutex> lock(st.mutex);
      if (st.delta.enabled()) {  // non-delta hot path pays nothing
        st.delta.Touch(key);
      }
      if (shards_.checkpoint_active()) {
        st.data.dirty[key] = std::move(value);
      } else if (!spill) {
        st.data.main[key] = std::move(value);
      } else {
        st.ref.store(1, std::memory_order_relaxed);
        if (st.spilled.load(std::memory_order_relaxed)) {
          NoteBytes(st, PutColdAccounted(st.data, key,
                                         std::optional<V>(std::move(value))));
        } else {
          NoteBytes(st, PutMainAccounted(st.data, key, value));
        }
      }
    }
    if (spill) {
      MaybeEvict(s);
    }
  }

  std::optional<V> Get(const K& key) const {
    std::optional<V> out;
    View(key, [&](const V& v) { out = v; });
    return out;
  }

  // Zero-copy read: `fn(const V&)` runs under the stripe's shared lock, so
  // large values aren't copied out on every read. Returns false (without
  // calling fn) when the key is absent. `fn` must not reenter this dict.
  // On a spilled stripe this pages the stripe back in (unless a checkpoint
  // is active, when the single key is answered from the blob instead).
  template <typename Fn>
  bool View(const K& key, Fn&& fn) const {
    const uint64_t h = Codec<K>::Hash(key);
    const bool spill = shards_.spill_enabled();
    const uint32_t s = shards_.ShardOf(h);
    const auto& st = shards_.stripe(s);
    for (;;) {
      {
        std::shared_lock<std::shared_mutex> lock(st.mutex);
        const bool active = shards_.checkpoint_active();
        if (active) {
          auto it = st.data.dirty.find(key);
          if (it != st.data.dirty.end()) {
            if (!it->second.has_value()) {
              return false;  // tombstoned
            }
            fn(*it->second);
            return true;
          }
        }
        if (!spill || !st.spilled.load(std::memory_order_relaxed)) {
          if (spill) {
            st.ref.store(1, std::memory_order_relaxed);
          }
          auto it = st.data.main.find(key);
          if (it == st.data.main.end()) {
            return false;
          }
          fn(it->second);
          return true;
        }
        st.ref.store(1, std::memory_order_relaxed);
        auto cit = st.data.cold.find(key);
        if (cit != st.data.cold.end()) {
          if (!cit->second.has_value()) {
            return false;  // erased since the spill
          }
          fn(*cit->second);
          return true;
        }
        if (active) {
          // The blob is part of the frozen snapshot — no fault-in until
          // EndCheckpoint. Answer this key from disk under the shared lock.
          shards_.NoteColdLookup();
          std::optional<V> v = LookupInBlob(s, h, key);
          if (!v.has_value()) {
            return false;
          }
          fn(*v);
          return true;
        }
      }
      // Spilled, not in any overlay, no active checkpoint: page the stripe
      // in and retry (the retry re-checks everything — another thread may
      // have faulted in, re-evicted, or begun a checkpoint meanwhile).
      FaultIn(s);
    }
  }

  bool Contains(const K& key) const {
    return View(key, [](const V&) {});
  }

  void Erase(const K& key) {
    const uint64_t h = Codec<K>::Hash(key);
    const bool spill = shards_.spill_enabled();
    auto& st = shards_.stripe(shards_.ShardOf(h));
    std::unique_lock<std::shared_mutex> lock(st.mutex);
    if (st.delta.enabled()) {
      st.delta.Touch(key);
    }
    if (shards_.checkpoint_active()) {
      st.data.dirty[key] = std::nullopt;  // tombstone
    } else if (!spill) {
      st.data.main.erase(key);
    } else {
      st.ref.store(1, std::memory_order_relaxed);
      if (st.spilled.load(std::memory_order_relaxed)) {
        // Tombstone relative to the blob; also covers "never existed".
        NoteBytes(st, PutColdAccounted(st.data, key, std::nullopt));
      } else {
        auto it = st.data.main.find(key);
        if (it != st.data.main.end()) {
          NoteBytes(st, -EntryBytes(it->first, it->second));
          st.data.main.erase(it);
        }
      }
    }
  }

  // Read-modify-write under the stripe lock; `fn` receives the current value
  // (default-constructed when absent) and returns the new one. On a spilled
  // stripe the current value may be read from the blob, and the result is
  // absorbed into the cold overlay — no rehydration.
  template <typename Fn>
  void Update(const K& key, Fn&& fn) {
    const uint64_t h = Codec<K>::Hash(key);
    const bool spill = shards_.spill_enabled();
    const uint32_t s = shards_.ShardOf(h);
    auto& st = shards_.stripe(s);
    {
      std::unique_lock<std::shared_mutex> lock(st.mutex);
      const bool active = shards_.checkpoint_active();
      if (st.delta.enabled()) {
        st.delta.Touch(key);
      }
      MapShard& sh = st.data;
      const bool spilled = spill && st.spilled.load(std::memory_order_relaxed);
      if (spill) {
        st.ref.store(1, std::memory_order_relaxed);
      }
      V current{};
      if (active) {
        if (auto it = sh.dirty.find(key); it != sh.dirty.end()) {
          if (it->second.has_value()) {
            current = *it->second;
          }
        } else if (spilled) {
          if (auto cit = sh.cold.find(key); cit != sh.cold.end()) {
            if (cit->second.has_value()) {
              current = *cit->second;
            }
          } else {
            shards_.NoteColdLookup();
            if (auto v = LookupInBlob(s, h, key)) {
              current = std::move(*v);
            }
          }
        } else if (auto mit = sh.main.find(key); mit != sh.main.end()) {
          current = mit->second;
        }
        sh.dirty[key] = fn(std::move(current));
      } else if (spilled) {
        if (auto cit = sh.cold.find(key); cit != sh.cold.end()) {
          if (cit->second.has_value()) {
            current = *cit->second;
          }
        } else {
          shards_.NoteColdLookup();
          if (auto v = LookupInBlob(s, h, key)) {
            current = std::move(*v);
          }
        }
        V next = fn(std::move(current));
        NoteBytes(st, PutColdAccounted(sh, key,
                                       std::optional<V>(std::move(next))));
      } else {
        if (auto it = sh.main.find(key); it != sh.main.end()) {
          current = it->second;
        }
        V next = fn(std::move(current));
        if (spill) {
          NoteBytes(st, PutMainAccounted(sh, key, next));
        } else {
          sh.main[key] = std::move(next);
        }
      }
    }
    if (spill) {
      MaybeEvict(s);
    }
  }

  // Visits the logically current contents (main overlaid with dirty, spilled
  // stripes streamed from their blobs), one stripe locked at a time. `fn`
  // must not reenter this dict.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const bool spill = shards_.spill_enabled();
    for (uint32_t s = 0; s < shards_.num_shards(); ++s) {
      const auto& st = shards_.stripe(s);
      std::shared_lock<std::shared_mutex> lock(st.mutex);
      const bool active = shards_.checkpoint_active();
      const MapShard& sh = st.data;
      for (const auto& [k, v] : sh.main) {
        if (active && sh.dirty.count(k) > 0) {
          continue;  // overridden or tombstoned; visited via dirty below
        }
        fn(k, v);
      }
      if (spill && st.spilled.load(std::memory_order_relaxed)) {
        WalkBlob(s, [&](K&& k, V&& v) {
          if (active && sh.dirty.count(k) > 0) {
            return;
          }
          if (sh.cold.count(k) > 0) {
            return;  // superseded since the spill; visited via cold below
          }
          fn(k, v);
        });
        for (const auto& [k, ov] : sh.cold) {
          if (!ov.has_value() || (active && sh.dirty.count(k) > 0)) {
            continue;
          }
          fn(k, *ov);
        }
      }
      if (active) {
        for (const auto& [k, v] : sh.dirty) {
          if (v.has_value()) {
            fn(k, *v);
          }
        }
      }
    }
  }

  uint64_t Size() const {
    if (shards_.spill_enabled()) {
      // Spilled stripes only know their exact count after merging blob and
      // overlays; reuse the ForEach merge (O(state), reads spilled blobs).
      uint64_t n = 0;
      ForEach([&](const K&, const V&) { ++n; });
      return n;
    }
    uint64_t n = 0;
    shards_.ReadEach([&](const MapShard& sh, bool active) {
      n += sh.main.size();
      if (active) {
        for (const auto& [k, v] : sh.dirty) {
          bool in_main = sh.main.count(k) > 0;
          if (v.has_value() && !in_main) {
            ++n;
          } else if (!v.has_value() && in_main) {
            --n;
          }
        }
      }
    });
    return n;
  }

  // --- StateBackend ---------------------------------------------------------

  std::string_view TypeName() const override { return "KeyedDict"; }

  // Resident footprint only — spilled blobs live on disk and are reported
  // via GetSpillStats().spilled_bytes.
  size_t SizeBytes() const override {
    size_t total = 0;
    shards_.ReadEach([&](const MapShard& sh, bool) {
      for (const auto& [k, v] : sh.main) {
        total += DeepSize(k) + DeepSize(v) + 16;
      }
      for (const auto& [k, v] : sh.dirty) {
        total += DeepSize(k) + (v.has_value() ? DeepSize(*v) : 0) + 24;
      }
      for (const auto& [k, v] : sh.cold) {
        total += DeepSize(k) + (v.has_value() ? DeepSize(*v) : 0) + 24;
      }
    });
    return total;
  }

  uint64_t EntryCount() const override { return Size(); }

  void BeginCheckpoint() override { shards_.BeginCheckpoint("KeyedDict"); }

  void SerializeRecords(const RecordSink& sink) const override {
    // Round-robin across the stripes' maps instead of stripe-by-stripe:
    // stripe assignment is hash-random, so an interleaved walk visits nodes
    // in near allocation order — one pass of mostly-sequential heap reads
    // instead of num_shards scattered passes (~4x faster cold). Record order
    // is free to change: records are hash-keyed and order-independent.
    // Spilled stripes have empty mains; their blobs are streamed afterwards.
    auto all = shards_.SerializeLockAll();
    const uint32_t n = shards_.num_shards();
    std::vector<typename std::unordered_map<K, V>::const_iterator> it(n);
    std::vector<typename std::unordered_map<K, V>::const_iterator> end(n);
    for (uint32_t s = 0; s < n; ++s) {
      it[s] = shards_.stripe(s).data.main.begin();
      end[s] = shards_.stripe(s).data.main.end();
    }
    BinaryWriter w;
    bool progress = true;
    while (progress) {
      progress = false;
      for (uint32_t s = 0; s < n; ++s) {
        if (it[s] == end[s]) {
          continue;
        }
        if (auto next = std::next(it[s]); next != end[s]) {
          PrefetchRecord(next);  // one rotation of lead time per stripe
        }
        const auto& [k, v] = *it[s];
        w.Clear();
        Codec<K>::Encode(w, k);
        Codec<V>::Encode(w, v);
        sink(Codec<K>::Hash(k), w.buffer().data(), w.buffer().size());
        ++it[s];
        progress = true;
      }
    }
    if (shards_.spill_enabled()) {
      for (uint32_t s = 0; s < n; ++s) {
        if (shards_.stripe(s).spilled.load(std::memory_order_relaxed)) {
          EmitSpilledStripe(s, sink);
        }
      }
    }
  }

  uint32_t SerializeShardCount() const override {
    return shards_.num_shards();
  }

  void SerializeShardRecords(uint32_t shard,
                             const RecordSink& sink) const override {
    // While a checkpoint is active main is frozen, so iterate without the
    // lock (this is the "asynchronously to the processing" part of §5).
    // Otherwise hold the stripe's shared lock for the duration. A spilled
    // stripe is stable either way: eviction/fault-in are disabled while a
    // checkpoint is active and need the exclusive lock otherwise.
    auto lock = shards_.SerializeLock(shard);
    const auto& st = shards_.stripe(shard);
    if (st.spilled.load(std::memory_order_relaxed)) {
      EmitSpilledStripe(shard, sink);
      return;
    }
    BinaryWriter w;
    for (const auto& [k, v] : st.data.main) {
      w.Clear();
      Codec<K>::Encode(w, k);
      Codec<V>::Encode(w, v);
      sink(Codec<K>::Hash(k), w.buffer().data(), w.buffer().size());
    }
  }

  uint64_t EndCheckpoint() override {
    const bool spill = shards_.spill_enabled();
    uint64_t total = shards_.EndCheckpoint(
        "KeyedDict", [&](uint32_t s, MapShard& sh) {
          auto& st = shards_.stripe(s);
          const bool spilled =
              spill && st.spilled.load(std::memory_order_relaxed);
          uint64_t consolidated = sh.dirty.size();
          int64_t bytes = 0;
          for (auto& [k, v] : sh.dirty) {
            if (spilled) {
              // Fold into the cold overlay, not main: the stripe keeps its
              // blob and stays spilled across checkpoints.
              bytes += PutColdAccounted(sh, k, std::move(v));
            } else if (v.has_value()) {
              if (spill) {
                bytes += PutMainAccounted(sh, k, *v);
              } else {
                sh.main[k] = std::move(*v);
              }
            } else {
              if (spill) {
                auto it = sh.main.find(k);
                if (it != sh.main.end()) {
                  bytes -= EntryBytes(it->first, it->second);
                  sh.main.erase(it);
                }
              } else {
                sh.main.erase(k);
              }
            }
          }
          sh.dirty.clear();
          if (spill) {
            NoteBytes(st, bytes);
          }
          return consolidated;
        });
    if (spill) {
      // Folding the overlay may have pushed a stripe (or its cold map) over
      // the budget; evictions were paused for the whole checkpoint.
      MaybeEvict(ShardedState<MapShard>::kNoVictim);
    }
    return total;
  }

  bool checkpoint_active() const override { return shards_.checkpoint_active(); }

  // --- Delta epochs ----------------------------------------------------------

  void EnableDeltaTracking() override { shards_.EnableDeltaTracking(); }

  bool DeltaReady() const override { return shards_.DeltaReady(); }

  void SerializeDirtyRecords(const DeltaRecordSink& sink) const override {
    for (uint32_t s = 0; s < shards_.num_shards(); ++s) {
      SerializeShardDirtyRecords(s, sink);
    }
  }

  void SerializeShardDirtyRecords(uint32_t shard,
                                  const DeltaRecordSink& sink) const override {
    // Same concurrency contract as SerializeShardRecords: main and the frozen
    // change set are immutable while a checkpoint is active.
    auto lock = shards_.SerializeLock(shard);
    const auto& stripe = shards_.stripe(shard);
    BinaryWriter w;
    if (!stripe.spilled.load(std::memory_order_relaxed)) {
      for (const K& k : stripe.delta.frozen()) {
        auto it = stripe.data.main.find(k);
        w.Clear();
        Codec<K>::Encode(w, k);
        if (it == stripe.data.main.end()) {
          // Erased since the previous epoch: tombstone, payload = key only.
          sink(Codec<K>::Hash(k), w.buffer().data(), w.buffer().size(),
               /*tombstone=*/true);
        } else {
          Codec<V>::Encode(w, it->second);
          sink(Codec<K>::Hash(k), w.buffer().data(), w.buffer().size(),
               /*tombstone=*/false);
        }
      }
      return;
    }
    // Spilled stripe: a frozen key's current value lives in the cold overlay
    // if it was touched after the spill, else in the blob (touched before the
    // spill, then evicted). Found nowhere = erased since the previous epoch.
    const MapShard& sh = stripe.data;
    std::unordered_map<K, bool> pending;  // frozen keys to find in the blob
    for (const K& k : stripe.delta.frozen()) {
      auto cit = sh.cold.find(k);
      if (cit != sh.cold.end()) {
        w.Clear();
        Codec<K>::Encode(w, k);
        if (cit->second.has_value()) {
          Codec<V>::Encode(w, *cit->second);
          sink(Codec<K>::Hash(k), w.buffer().data(), w.buffer().size(),
               /*tombstone=*/false);
        } else {
          sink(Codec<K>::Hash(k), w.buffer().data(), w.buffer().size(),
               /*tombstone=*/true);
        }
      } else {
        pending.emplace(k, false);
      }
    }
    if (pending.empty()) {
      return;
    }
    WalkBlobRaw(shard, [&](uint64_t key_hash, const K& k,
                           const uint8_t* payload, size_t size) {
      auto it = pending.find(k);
      if (it != pending.end() && !it->second) {
        sink(key_hash, payload, size, /*tombstone=*/false);
        it->second = true;
      }
    });
    for (const auto& [k, emitted] : pending) {
      if (!emitted) {
        w.Clear();
        Codec<K>::Encode(w, k);
        sink(Codec<K>::Hash(k), w.buffer().data(), w.buffer().size(),
             /*tombstone=*/true);
      }
    }
  }

  void ResolveEpoch(bool committed) override { shards_.ResolveEpoch(committed); }

  void Clear() override {
    const bool spill = shards_.spill_enabled();
    shards_.ClearAll([&](uint32_t s, MapShard& sh) {
      // Swap-with-empty so the heap actually shrinks (Clear is the "drop this
      // partition" path in the elastic runtime).
      std::unordered_map<K, V>().swap(sh.main);
      std::unordered_map<K, std::optional<V>>().swap(sh.dirty);
      std::unordered_map<K, std::optional<V>>().swap(sh.cold);
      if (spill) {
        auto& st = shards_.stripe(s);
        shards_.NoteResidentBytes(-st.resident_bytes);
        st.resident_bytes = 0;
        if (st.spilled.load(std::memory_order_relaxed)) {
          RemoveSpillFile(shards_.SpillPath(s));
          shards_.NoteStripeResident(st);
        }
      }
    });
  }

  Status RestoreRecord(const uint8_t* payload, size_t size) override {
    BinaryReader r(payload, size);
    SDG_ASSIGN_OR_RETURN(K key, Codec<K>::Decode(r));
    SDG_ASSIGN_OR_RETURN(V value, Codec<V>::Decode(r));
    const uint64_t h = Codec<K>::Hash(key);
    const bool spill = shards_.spill_enabled();
    const uint32_t s = shards_.ShardOf(h);
    {
      auto& st = shards_.stripe(s);
      std::unique_lock<std::shared_mutex> lock(st.mutex);
      st.delta.Invalidate();
      if (!spill) {
        st.data.main[std::move(key)] = std::move(value);
      } else if (st.spilled.load(std::memory_order_relaxed)) {
        NoteBytes(st, PutColdAccounted(st.data, key,
                                       std::optional<V>(std::move(value))));
      } else {
        NoteBytes(st, PutMainAccounted(st.data, key, value));
      }
    }
    if (spill) {
      // A larger-than-budget restore (recovery, migration ingest) spills as
      // it loads instead of blowing past the budget.
      MaybeEvict(s);
    }
    return Status::Ok();
  }

  Status RestoreErase(const uint8_t* payload, size_t size) override {
    BinaryReader r(payload, size);
    SDG_ASSIGN_OR_RETURN(K key, Codec<K>::Decode(r));
    const bool spill = shards_.spill_enabled();
    auto& st = shards_.stripe(shards_.ShardOf(Codec<K>::Hash(key)));
    std::unique_lock<std::shared_mutex> lock(st.mutex);
    st.delta.Invalidate();
    if (!spill) {
      st.data.main.erase(key);  // absent is fine: base may predate it
    } else if (st.spilled.load(std::memory_order_relaxed)) {
      NoteBytes(st, PutColdAccounted(st.data, key, std::nullopt));
    } else {
      auto it = st.data.main.find(key);
      if (it != st.data.main.end()) {
        NoteBytes(st, -EntryBytes(it->first, it->second));
        st.data.main.erase(it);
      }
    }
    return Status::Ok();
  }

  Status ExtractPartition(uint32_t part, uint32_t num_parts,
                          const RecordSink& sink) override {
    return shards_.WriteAll([&](bool active) -> Status {
      if (active) {
        return FailedPreconditionError(
            "cannot repartition KeyedDict during an active checkpoint");
      }
      const bool spill = shards_.spill_enabled();
      BinaryWriter w;
      for (uint32_t s = 0; s < shards_.num_shards(); ++s) {
        auto& stripe = shards_.stripe(s);
        if (spill && stripe.spilled.load(std::memory_order_relaxed)) {
          SDG_RETURN_IF_ERROR(
              ExtractFromSpilledStripe(s, part, num_parts, sink));
          stripe.delta.Invalidate();
          continue;
        }
        for (auto it = stripe.data.main.begin();
             it != stripe.data.main.end();) {
          uint64_t h = Codec<K>::Hash(it->first);
          if (h % num_parts == part) {
            w.Clear();
            Codec<K>::Encode(w, it->first);
            Codec<V>::Encode(w, it->second);
            sink(h, w.buffer().data(), w.buffer().size());
            if (spill) {
              NoteBytes(stripe, -EntryBytes(it->first, it->second));
            }
            it = stripe.data.main.erase(it);
          } else {
            ++it;
          }
        }
        stripe.delta.Invalidate();
      }
      return Status::Ok();
    });
  }

  void ExclusiveBarrier(const std::function<void()>& fn) override {
    shards_.WriteAll([&](bool) { fn(); });
  }

  // --- Cold-tier spill -------------------------------------------------------

  Status ConfigureSpill(const SpillConfig& config) override {
    Status status = shards_.WriteAll([&](bool active) -> Status {
      if (active) {
        return FailedPreconditionError(
            "cannot enable spill during an active checkpoint");
      }
      if (shards_.spill_enabled()) {
        return FailedPreconditionError("spill already configured");
      }
      SDG_RETURN_IF_ERROR(shards_.EnableSpill(config));
      int64_t total = 0;
      for (uint32_t s = 0; s < shards_.num_shards(); ++s) {
        auto& st = shards_.stripe(s);
        st.resident_bytes = ShardResidentBytes(st.data);
        total += st.resident_bytes;
      }
      shards_.NoteResidentBytes(total);
      return Status::Ok();
    });
    if (status.ok()) {
      MaybeEvict(ShardedState<MapShard>::kNoVictim);
    }
    return status;
  }

  SpillStats GetSpillStats() const override { return shards_.GetSpillStats(); }

  // Approximate number of dirty entries (for tests and metrics).
  uint64_t DirtySize() const {
    uint64_t n = 0;
    shards_.ReadEach([&](const MapShard& sh, bool) { n += sh.dirty.size(); });
    return n;
  }

  // Entries the next delta epoch would cover (for tests and metrics).
  uint64_t DeltaChangedCount() const { return shards_.DeltaChangedCount(); }

 private:
  // One stripe's slice of the dictionary: main entries, the checkpoint
  // overlay, and the cold overlay of a spilled stripe (both use nullopt as a
  // tombstone). `cold` is non-empty only while the stripe is spilled.
  struct MapShard {
    using DeltaId = K;
    std::unordered_map<K, V> main;
    std::unordered_map<K, std::optional<V>> dirty;
    std::unordered_map<K, std::optional<V>> cold;
  };
  using Stripe = typename ShardedState<MapShard>::Stripe;

  // Memory accounting that sees through the common value types.
  template <typename T>
  static size_t DeepSize(const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      return sizeof(T) + v.size();
    } else if constexpr (std::is_same_v<T, std::vector<double>> ||
                         std::is_same_v<T, std::vector<int64_t>>) {
      return sizeof(T) + v.size() * sizeof(typename T::value_type);
    } else {
      return sizeof(T);
    }
  }

  static int64_t EntryBytes(const K& k, const V& v) {
    return static_cast<int64_t>(DeepSize(k) + DeepSize(v) + 16);
  }
  static int64_t ColdEntryBytes(const K& k, const std::optional<V>& v) {
    return static_cast<int64_t>(DeepSize(k) +
                                (v.has_value() ? DeepSize(*v) : 0) + 24);
  }

  static int64_t ShardResidentBytes(const MapShard& sh) {
    int64_t total = 0;
    for (const auto& [k, v] : sh.main) {
      total += EntryBytes(k, v);
    }
    for (const auto& [k, v] : sh.cold) {
      total += ColdEntryBytes(k, v);
    }
    return total;
  }

  // Accounted single-lookup upserts; return the resident-byte delta.
  static int64_t PutMainAccounted(MapShard& sh, const K& key, V& value) {
    auto [it, inserted] = sh.main.try_emplace(key, std::move(value));
    if (inserted) {
      return EntryBytes(it->first, it->second);
    }
    int64_t delta = -static_cast<int64_t>(DeepSize(it->second));
    it->second = std::move(value);
    return delta + static_cast<int64_t>(DeepSize(it->second));
  }
  static int64_t PutColdAccounted(MapShard& sh, const K& key,
                                  std::optional<V> value) {
    auto [it, inserted] = sh.cold.try_emplace(key, std::move(value));
    if (inserted) {
      return ColdEntryBytes(it->first, it->second);
    }
    int64_t delta = -static_cast<int64_t>(
        it->second.has_value() ? DeepSize(*it->second) : 0);
    it->second = std::move(value);
    return delta + static_cast<int64_t>(
                       it->second.has_value() ? DeepSize(*it->second) : 0);
  }

  void NoteBytes(Stripe& st, int64_t delta) const {
    if (delta == 0) {
      return;  // same-size overwrite: spare the shared gauge's atomic RMW
    }
    st.resident_bytes += delta;
    shards_.NoteResidentBytes(delta);
  }
  // ReadEach-style paths hold only shared locks and may not touch
  // resident_bytes; all mutating paths above take the exclusive lock.

  // --- Blob access (spilled stripes) ---------------------------------------
  // All callers hold the stripe lock (shared is enough: the blob only
  // changes under the exclusive lock) or run during an active checkpoint,
  // when the blob is frozen.

  // fn(key_hash, decoded key, raw payload, payload size) per blob record.
  template <typename Fn>
  void WalkBlobRaw(uint32_t s, Fn&& fn) const {
    auto blob = ReadSpillFile(shards_.SpillPath(s));
    SDG_CHECK(blob.ok()) << "spill blob unreadable: " << blob.status().ToString();
    if (blob->empty()) {
      return;
    }
    auto reader = ChunkReader::Open(*blob);
    SDG_CHECK(reader.ok()) << "spill blob corrupt: "
                           << reader.status().ToString();
    Status walk = reader->ForEach([&](const ChunkRecordView& rec) {
      BinaryReader r(rec.payload, rec.size);
      auto key = Codec<K>::Decode(r);
      SDG_CHECK(key.ok()) << "spill record key undecodable";
      fn(rec.key_hash, *key, rec.payload, rec.size);
    });
    SDG_CHECK(walk.ok()) << "spill blob walk failed: " << walk.ToString();
  }

  // fn(K&&, V&&) per blob record, fully decoded.
  template <typename Fn>
  void WalkBlob(uint32_t s, Fn&& fn) const {
    WalkBlobRaw(s, [&](uint64_t, const K& k, const uint8_t* payload,
                       size_t size) {
      BinaryReader r(payload, size);
      auto key = Codec<K>::Decode(r);
      auto value = Codec<V>::Decode(r);
      SDG_CHECK(key.ok() && value.ok()) << "spill record undecodable";
      fn(std::move(*key), std::move(*value));
    });
  }

  std::optional<V> LookupInBlob(uint32_t s, uint64_t h, const K& key) const {
    std::optional<V> out;
    WalkBlobRaw(s, [&](uint64_t key_hash, const K& k, const uint8_t* payload,
                       size_t size) {
      if (out.has_value() || key_hash != h || !(k == key)) {
        return;
      }
      BinaryReader r(payload, size);
      auto kk = Codec<K>::Decode(r);
      auto v = Codec<V>::Decode(r);
      SDG_CHECK(kk.ok() && v.ok()) << "spill record undecodable";
      out = std::move(*v);
    });
    return out;
  }

  // Streams one spilled stripe into a full-base sink without rehydration:
  // blob records not superseded by the cold overlay pass through verbatim
  // (their payloads are already in record form), then live cold entries.
  void EmitSpilledStripe(uint32_t s, const RecordSink& sink) const {
    SpillCrashPoint("spill.ckpt");
    const MapShard& sh = shards_.stripe(s).data;
    WalkBlobRaw(s, [&](uint64_t key_hash, const K& k, const uint8_t* payload,
                       size_t size) {
      if (!sh.cold.empty() && sh.cold.count(k) > 0) {
        return;  // overridden or erased since the spill
      }
      sink(key_hash, payload, size);
    });
    BinaryWriter w;
    for (const auto& [k, ov] : sh.cold) {
      if (!ov.has_value()) {
        continue;
      }
      w.Clear();
      Codec<K>::Encode(w, k);
      Codec<V>::Encode(w, *ov);
      sink(Codec<K>::Hash(k), w.buffer().data(), w.buffer().size());
    }
  }

  // --- Eviction / fault-in --------------------------------------------------

  // Runs with no locks held; takes one stripe lock at a time. `exclude`
  // shields the stripe the caller just touched from immediate re-eviction.
  void MaybeEvict(uint32_t exclude) const {
    if (!shards_.spill_enabled()) {
      return;
    }
    uint32_t attempts = 0;
    while (shards_.OverBudget() && !shards_.checkpoint_active()) {
      uint32_t victim = shards_.PickSpillVictim(exclude);
      if (victim == ShardedState<MapShard>::kNoVictim ||
          ++attempts > 2 * shards_.num_shards()) {
        break;
      }
      if (!EvictStripe(victim)) {
        break;  // a checkpoint began or the spill write failed
      }
    }
    // Still over budget with every evictable stripe already cold: the
    // pressure is in cold overlays. Compact them back into their blobs.
    if (shards_.OverBudget() && !shards_.checkpoint_active()) {
      for (uint32_t s = 0;
           s < shards_.num_shards() && shards_.OverBudget(); ++s) {
        if (s != exclude &&
            shards_.stripe(s).spilled.load(std::memory_order_relaxed)) {
          EvictStripe(s);
        }
      }
    }
  }

  // Serializes the stripe's merged view (main for a resident victim; blob +
  // cold for a compaction) into a fresh spill file, then drops the resident
  // containers. Returns false without evicting when a checkpoint is active
  // or the file write fails (state stays resident — spill is best-effort,
  // durability belongs to checkpoints).
  bool EvictStripe(uint32_t s) const {
    auto& st = shards_.stripe(s);
    std::unique_lock<std::shared_mutex> lock(st.mutex);
    if (shards_.checkpoint_active()) {
      return false;  // stable under the stripe lock
    }
    MapShard& sh = st.data;
    const bool was_spilled = st.spilled.load(std::memory_order_relaxed);
    if (was_spilled && sh.cold.empty()) {
      return false;  // nothing resident to shed
    }
    ChunkBuilder builder("spill", {.codec = shards_.spill_config().codec});
    if (was_spilled) {
      // Compaction: fold the cold overlay into a rewritten blob.
      WalkBlobRaw(s, [&](uint64_t key_hash, const K& k,
                         const uint8_t* payload, size_t size) {
        if (sh.cold.count(k) > 0) {
          return;
        }
        builder.AddRecord(key_hash, payload, size);
      });
    }
    BinaryWriter w;
    for (const auto& [k, v] : sh.main) {  // empty when was_spilled
      w.Clear();
      Codec<K>::Encode(w, k);
      Codec<V>::Encode(w, v);
      builder.AddRecord(Codec<K>::Hash(k), w.buffer().data(),
                        w.buffer().size());
    }
    for (const auto& [k, ov] : sh.cold) {
      if (!ov.has_value()) {
        continue;
      }
      w.Clear();
      Codec<K>::Encode(w, k);
      Codec<V>::Encode(w, *ov);
      builder.AddRecord(Codec<K>::Hash(k), w.buffer().data(),
                        w.buffer().size());
    }
    const uint64_t records = builder.record_count();
    std::vector<uint8_t> blob = std::move(builder).Finish();
    if (records > 0) {
      Status written = WriteSpillFileAtomic(shards_.SpillPath(s), blob);
      if (!written.ok()) {
        return false;
      }
    } else {
      RemoveSpillFile(shards_.SpillPath(s));
      blob.clear();
    }
    SpillCrashPoint("spill.evict");
    std::unordered_map<K, V>().swap(sh.main);
    std::unordered_map<K, std::optional<V>>().swap(sh.cold);
    shards_.NoteResidentBytes(-st.resident_bytes);
    st.resident_bytes = 0;
    if (was_spilled) {
      shards_.NoteBlobRewritten(st, records, blob.size());
    } else {
      shards_.NoteStripeSpilled(st, records, blob.size());
    }
    shards_.NoteEviction();
    return true;
  }

  // Pages a spilled stripe back in under its exclusive lock: merge blob
  // records under the cold overlay, fold live cold entries, drop the file.
  // A no-op if the stripe was faulted in by someone else meanwhile, or if a
  // checkpoint began (the caller's retry loop then reads from the blob).
  void FaultIn(uint32_t s) const {
    {
      auto& st = shards_.stripe(s);
      std::unique_lock<std::shared_mutex> lock(st.mutex);
      if (!st.spilled.load(std::memory_order_relaxed) ||
          shards_.checkpoint_active()) {
        return;
      }
      MapShard& sh = st.data;
      WalkBlob(s, [&](K&& k, V&& v) {
        if (sh.cold.count(k) > 0) {
          return;  // superseded after the spill
        }
        sh.main.emplace(std::move(k), std::move(v));
      });
      for (auto& [k, ov] : sh.cold) {
        if (ov.has_value()) {
          sh.main[k] = std::move(*ov);
        }
      }
      std::unordered_map<K, std::optional<V>>().swap(sh.cold);
      const int64_t fresh = ShardResidentBytes(sh);
      shards_.NoteResidentBytes(fresh - st.resident_bytes);
      st.resident_bytes = fresh;
      shards_.NoteStripeResident(st);
      shards_.NoteFaultIn();
      st.ref.store(1, std::memory_order_relaxed);
      SpillCrashPoint("spill.faultin");
      RemoveSpillFile(shards_.SpillPath(s));
    }
    // Paging one stripe in can evict another; never this one (exclude).
    MaybeEvict(s);
  }

  // Spilled-stripe half of ExtractPartition: runs under the all-stripe
  // guard. Streams the partition's records out of the merged blob+cold view
  // and rewrites the blob without them — the stripe stays on disk.
  Status ExtractFromSpilledStripe(uint32_t s, uint32_t part,
                                  uint32_t num_parts, const RecordSink& sink) {
    auto& st = shards_.stripe(s);
    MapShard& sh = st.data;
    ChunkBuilder keep("spill", {.codec = shards_.spill_config().codec});
    WalkBlobRaw(s, [&](uint64_t key_hash, const K& k, const uint8_t* payload,
                       size_t size) {
      if (sh.cold.count(k) > 0) {
        return;  // cold decides this key's fate below
      }
      if (key_hash % num_parts == part) {
        sink(key_hash, payload, size);
      } else {
        keep.AddRecord(key_hash, payload, size);
      }
    });
    BinaryWriter w;
    for (const auto& [k, ov] : sh.cold) {
      if (!ov.has_value()) {
        continue;  // erased either way; extracted partitions get no record
      }
      uint64_t h = Codec<K>::Hash(k);
      w.Clear();
      Codec<K>::Encode(w, k);
      Codec<V>::Encode(w, *ov);
      if (h % num_parts == part) {
        sink(h, w.buffer().data(), w.buffer().size());
      } else {
        keep.AddRecord(h, w.buffer().data(), w.buffer().size());
      }
    }
    const uint64_t records = keep.record_count();
    std::vector<uint8_t> blob = std::move(keep).Finish();
    if (records > 0) {
      SDG_RETURN_IF_ERROR(WriteSpillFileAtomic(shards_.SpillPath(s), blob));
    } else {
      RemoveSpillFile(shards_.SpillPath(s));
      blob.clear();
    }
    std::unordered_map<K, std::optional<V>>().swap(sh.cold);
    shards_.NoteResidentBytes(-st.resident_bytes);
    st.resident_bytes = 0;
    shards_.NoteBlobRewritten(st, records, blob.size());
    return Status::Ok();
  }

  // Mutable: fault-in and eviction mutate stripes from logically-const reads
  // (View on a spilled stripe pages it back in).
  mutable ShardedState<MapShard> shards_;
};

}  // namespace sdg::state

#endif  // SDG_STATE_KEYED_DICT_H_
