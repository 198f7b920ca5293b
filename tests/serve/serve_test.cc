// Unit tests for the serve front door's control pieces: admission hysteresis,
// the SLO-adaptive batch controller against a synthetic latency/batch model,
// and the replica pipeline (SerializeEpochBlobs -> EpochTail -> ReplicaView /
// ReplicaTable) including the staleness bound and owner-change re-basing.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/checkpoint/epoch_tail.h"
#include "src/common/value.h"
#include "src/net/frame.h"
#include "src/serve/admission.h"
#include "src/serve/batcher.h"
#include "src/serve/replica_table.h"
#include "src/state/chunk.h"
#include "src/state/keyed_dict.h"
#include "src/state/replica_view.h"

namespace sdg::serve {
namespace {

using KvDict = state::KeyedDict<int64_t, std::string>;

// --- Admission hysteresis ----------------------------------------------------

TEST(AdmissionTest, HysteresisBand) {
  AdmissionController ac({/*high_water=*/100, /*low_water=*/20});

  // Below the high-water mark: admitting.
  ac.Observe(99);
  EXPECT_FALSE(ac.shedding());
  EXPECT_TRUE(ac.Admit());

  // Crossing high water flips to shedding.
  ac.Observe(100);
  EXPECT_TRUE(ac.shedding());
  EXPECT_FALSE(ac.Admit());

  // Anywhere inside the band while shedding: still shedding. This is the
  // hysteresis — a single threshold would flap admit/shed here.
  ac.Observe(55);
  EXPECT_TRUE(ac.shedding());
  ac.Observe(21);
  EXPECT_TRUE(ac.shedding());

  // Only draining to low water readmits.
  ac.Observe(20);
  EXPECT_FALSE(ac.shedding());
  EXPECT_TRUE(ac.Admit());

  // And the signal must climb all the way back to high water to shed again.
  ac.Observe(99);
  EXPECT_FALSE(ac.shedding());
  ac.Observe(150);
  EXPECT_TRUE(ac.shedding());

  EXPECT_EQ(ac.accepted(), 2u);
  EXPECT_EQ(ac.shed(), 1u);
}

// --- Batch controller --------------------------------------------------------

// Feeds the batcher full windows of a synthetic latency model until the batch
// size settles. Returns the settled batch size.
size_t RunToConvergence(AdaptiveBatcher& b, double (*p99_of_batch)(size_t),
                        int max_rounds = 200) {
  size_t last = 0;
  int stable = 0;
  for (int round = 0; round < max_rounds && stable < 5; ++round) {
    size_t batch = b.batch_size();
    double ms = p99_of_batch(batch);
    for (size_t i = 0; i < b.options().window; ++i) {
      b.RecordLatencyMs(ms);
    }
    stable = (b.batch_size() == last) ? stable + 1 : 0;
    last = b.batch_size();
  }
  return last;
}

// Linear queueing model: p99 = 0.05 ms per batched request. With a 10 ms SLO
// the breach knee is at batch 200 and the grow ceiling (headroom 0.7) at 140.
double LinearModel(size_t batch) { return 0.05 * static_cast<double>(batch); }

TEST(BatcherTest, ConvergesIntoSloBandFromBelow) {
  BatcherOptions o;
  o.slo_p99_ms = 10.0;
  o.initial_batch = 4;
  o.max_batch = 512;
  AdaptiveBatcher b(o);

  size_t settled = RunToConvergence(b, LinearModel);
  // Settled inside the hold band: past the grow ceiling, under the breach.
  EXPECT_GE(LinearModel(settled), o.headroom * o.slo_p99_ms);
  EXPECT_LE(LinearModel(settled), o.slo_p99_ms);
  EXPECT_GT(b.grow_steps(), 0u);
  EXPECT_GT(b.last_window_p99_ms(), 0.0);
}

TEST(BatcherTest, ConvergesIntoSloBandFromAbove) {
  BatcherOptions o;
  o.slo_p99_ms = 10.0;
  o.initial_batch = 512;
  o.max_batch = 512;
  AdaptiveBatcher b(o);

  size_t settled = RunToConvergence(b, LinearModel);
  EXPECT_LE(LinearModel(settled), o.slo_p99_ms);
  // 512 -> 25.6 ms, 256 -> 12.8 ms: at least two multiplicative decreases.
  EXPECT_GE(b.shrink_steps(), 2u);
}

TEST(BatcherTest, HopelessSloClampsToMinBatch) {
  BatcherOptions o;
  o.slo_p99_ms = 1.0;
  o.initial_batch = 64;
  o.min_batch = 1;
  AdaptiveBatcher b(o);

  // Even a batch of one breaches the SLO: the controller must floor at
  // min_batch, not collapse to zero.
  size_t settled =
      RunToConvergence(b, [](size_t) { return 50.0; });
  EXPECT_EQ(settled, o.min_batch);
}

TEST(BatcherTest, HoldsInsideBand) {
  BatcherOptions o;
  o.slo_p99_ms = 10.0;
  o.initial_batch = 32;
  AdaptiveBatcher b(o);

  // p99 between headroom*SLO and SLO: no movement in either direction.
  for (size_t i = 0; i < 10 * o.window; ++i) {
    b.RecordLatencyMs(8.0);
  }
  EXPECT_EQ(b.batch_size(), o.initial_batch);
  EXPECT_EQ(b.grow_steps(), 0u);
  EXPECT_EQ(b.shrink_steps(), 0u);
}

// --- Replica pipeline --------------------------------------------------------

std::unique_ptr<KvDict> MakeDict() { return std::make_unique<KvDict>(); }

// Cuts one epoch from `dict` the way the worker's Checkpoint does: under the
// delta protocol, emitting a delta iff the dirty tracker is armed and the
// tail does not demand a base. With `live` set, a base cut over an armed
// tracker and a non-empty tail also serialises the epoch's delta into it —
// what live subscribers receive instead of the base.
checkpoint::EpochTail::Entry CutEpoch(
    KvDict& dict, checkpoint::EpochTail& tail, uint64_t epoch,
    std::vector<std::vector<uint8_t>>* live = nullptr) {
  dict.BeginCheckpoint();
  const bool extends = dict.DeltaReady() && tail.latest_epoch() != 0;
  bool delta = dict.DeltaReady() && !tail.NeedsBase();
  auto blobs = checkpoint::SerializeEpochBlobs(dict, "store", /*num_chunks=*/2,
                                               delta, state::kChunkCodecPrefix);
  if (live != nullptr) {
    live->clear();
    if (!delta && extends) {
      auto live_blobs = checkpoint::SerializeEpochBlobs(
          dict, "store", /*num_chunks=*/2, /*delta=*/true,
          state::kChunkCodecPrefix);
      EXPECT_TRUE(live_blobs.ok());
      *live = std::move(*live_blobs);
    }
  }
  dict.EndCheckpoint();
  dict.ResolveEpoch(blobs.ok());
  EXPECT_TRUE(blobs.ok()) << blobs.status().ToString();
  if (delta) {
    delta = tail.PushDelta(epoch, *blobs);
  }
  if (!delta) {
    tail.PushBase(epoch, *blobs);
  }
  return checkpoint::EpochTail::Entry{epoch, !delta, std::move(*blobs)};
}

// Every entry of `backend`, for comparing replicas with their owner.
std::map<int64_t, std::string> Contents(const state::StateBackend& backend) {
  std::map<int64_t, std::string> out;
  const auto* dict = dynamic_cast<const KvDict*>(&backend);
  EXPECT_NE(dict, nullptr);
  if (dict != nullptr) {
    dict->ForEach([&](const int64_t& k, const std::string& v) { out[k] = v; });
  }
  return out;
}

TEST(ReplicaPipelineTest, BaseAndDeltaRoundTrip) {
  auto owner = MakeDict();
  owner->EnableDeltaTracking();
  checkpoint::EpochTail tail;
  state::ReplicaView view(MakeDict());

  owner->Put(1, "one");
  owner->Put(2, "two");
  auto e1 = CutEpoch(*owner, tail, 1);
  EXPECT_TRUE(e1.base);  // empty tail demands a base
  ASSERT_TRUE(view.ApplyBase(7, 1, e1.chunks).ok());

  // Delta epoch: one overwrite, one insert, one tombstone.
  owner->Put(2, "two'");
  owner->Put(3, "three");
  owner->Erase(1);
  auto e2 = CutEpoch(*owner, tail, 2);
  EXPECT_FALSE(e2.base);
  ASSERT_TRUE(view.ApplyDelta(7, 2, e2.chunks).ok());

  bool ok = view.ReadWithin(0, [&](const state::StateBackend& b, uint64_t ep) {
    EXPECT_EQ(ep, 2u);
    const auto* dict = dynamic_cast<const KvDict*>(&b);
    ASSERT_NE(dict, nullptr);
    EXPECT_FALSE(dict->Get(1).has_value());  // tombstone applied
    EXPECT_EQ(dict->Get(2).value_or(""), "two'");
    EXPECT_EQ(dict->Get(3).value_or(""), "three");
  });
  EXPECT_TRUE(ok);

  // Duplicate replay (reconnect) is a no-op, not corruption.
  ASSERT_TRUE(view.ApplyDelta(7, 2, e2.chunks).ok());
  EXPECT_EQ(view.applied_epoch(), 2u);
}

TEST(ReplicaPipelineTest, TailReplayCatchesUpFreshSubscriber) {
  auto owner = MakeDict();
  owner->EnableDeltaTracking();
  checkpoint::EpochTail tail;

  owner->Put(10, "a");
  CutEpoch(*owner, tail, 1);
  owner->Put(11, "b");
  CutEpoch(*owner, tail, 2);
  owner->Erase(10);
  owner->Put(12, "c");
  CutEpoch(*owner, tail, 3);

  // A fresh subscriber replays the retained base + deltas in order.
  state::ReplicaView view(MakeDict());
  for (const auto& e : tail.Replay()) {
    if (e.base) {
      ASSERT_TRUE(view.ApplyBase(7, e.epoch, e.chunks).ok());
    } else {
      ASSERT_TRUE(view.ApplyDelta(7, e.epoch, e.chunks).ok());
    }
  }
  EXPECT_EQ(view.applied_epoch(), 3u);
  bool ok = view.ReadWithin(0, [&](const state::StateBackend& b, uint64_t) {
    const auto* dict = dynamic_cast<const KvDict*>(&b);
    ASSERT_NE(dict, nullptr);
    EXPECT_FALSE(dict->Get(10).has_value());
    EXPECT_EQ(dict->Get(11).value_or(""), "b");
    EXPECT_EQ(dict->Get(12).value_or(""), "c");
  });
  EXPECT_TRUE(ok);
}

// The tail re-bases by bytes: once the deltas retained since the base weigh
// as much as the base, the next epoch is a base; and a run of deltas too
// small to reach that still re-bases at DeltaChain::kMaxLinks links.
TEST(ReplicaPipelineTest, DeltaCapForcesRebase) {
  auto owner = MakeDict();
  owner->EnableDeltaTracking();
  checkpoint::EpochTail tail;

  for (int64_t k = 0; k < 256; ++k) {
    owner->Put(k, std::string(100, 'b'));
  }
  uint64_t epoch = 1;
  auto base = CutEpoch(*owner, tail, epoch);
  ASSERT_TRUE(base.base);
  const uint64_t base_bytes = checkpoint::BlobBytes(base.chunks);
  uint64_t delta_bytes = 0;
  int deltas = 0;
  while (delta_bytes < base_bytes) {
    for (int64_t k = 0; k < 16; ++k) {
      owner->Put(k + 16 * deltas, std::string(100, 'd'));
    }
    auto e = CutEpoch(*owner, tail, ++epoch);
    ASSERT_FALSE(e.base) << "re-based at " << delta_bytes << " of "
                         << base_bytes << " bytes";
    delta_bytes += checkpoint::BlobBytes(e.chunks);
    ++deltas;
  }
  EXPECT_GT(deltas, 4);
  owner->Put(0, "x");
  EXPECT_TRUE(CutEpoch(*owner, tail, ++epoch).base);
  EXPECT_EQ(tail.Replay().size(), 1u);

  // Tiny deltas: the link cap, not the bytes, ends the run.
  for (size_t i = 1; i < checkpoint::DeltaChain::kMaxLinks; ++i) {
    owner->Put(1, "y" + std::to_string(i));
    ASSERT_FALSE(CutEpoch(*owner, tail, ++epoch).base) << "link " << i;
  }
  EXPECT_EQ(tail.Replay().size(), checkpoint::DeltaChain::kMaxLinks);
  owner->Put(1, "z");
  EXPECT_TRUE(CutEpoch(*owner, tail, ++epoch).base);
  EXPECT_EQ(tail.Replay().size(), 1u);
}

// A live subscriber keeps up on deltas alone: when the tail re-bases, the
// base goes to the tail (for subscribers that connect later) and the live
// feed gets that epoch's delta, so the base it already holds is never
// re-applied. A late subscriber replaying the re-based tail converges to the
// same contents.
TEST(ReplicaPipelineTest, LiveSubscriberGetsOnlyDeltasAcrossTailRebase) {
  auto owner = MakeDict();
  owner->EnableDeltaTracking();
  checkpoint::EpochTail tail;
  state::ReplicaView live(MakeDict());

  for (int64_t k = 0; k < 128; ++k) {
    owner->Put(k, std::string(64, 'a'));
  }
  std::vector<std::vector<uint8_t>> live_delta;
  auto first = CutEpoch(*owner, tail, 1, &live_delta);
  ASSERT_TRUE(first.base);
  EXPECT_TRUE(live_delta.empty());  // nothing to bridge yet: the base it is
  ASSERT_TRUE(live.ApplyBase(7, 1, first.chunks).ok());

  int rebases = 0;
  uint64_t epoch = 1;
  for (int i = 0; rebases < 2 && i < 1000; ++i) {
    for (int64_t k = 0; k < 24; ++k) {
      owner->Put((k * 7 + i) % 160, "v" + std::to_string(i));
    }
    owner->Erase((i * 13) % 160);
    auto e = CutEpoch(*owner, tail, ++epoch, &live_delta);
    if (e.base) {
      ++rebases;
      ASSERT_FALSE(live_delta.empty());
      EXPECT_LT(checkpoint::BlobBytes(live_delta),
                checkpoint::BlobBytes(e.chunks));
      ASSERT_TRUE(live.ApplyDelta(7, epoch, live_delta).ok());
    } else {
      ASSERT_TRUE(live.ApplyDelta(7, epoch, e.chunks).ok());
    }
  }
  ASSERT_EQ(rebases, 2);
  EXPECT_EQ(live.applied_epoch(), epoch);

  std::map<int64_t, std::string> want = Contents(*owner);
  std::map<int64_t, std::string> got;
  ASSERT_TRUE(live.ReadWithin(0, [&](const state::StateBackend& b, uint64_t) {
    got = Contents(b);
  }));
  EXPECT_EQ(got, want);

  state::ReplicaView late(MakeDict());
  for (const auto& e : tail.Replay()) {
    if (e.base) {
      ASSERT_TRUE(late.ApplyBase(7, e.epoch, e.chunks).ok());
    } else {
      ASSERT_TRUE(late.ApplyDelta(7, e.epoch, e.chunks).ok());
    }
  }
  got.clear();
  ASSERT_TRUE(late.ReadWithin(0, [&](const state::StateBackend& b, uint64_t) {
    got = Contents(b);
  }));
  EXPECT_EQ(got, want);
}

TEST(ReplicaViewTest, StalenessBoundAgainstAnnounceWatermark) {
  auto owner = MakeDict();
  owner->EnableDeltaTracking();
  checkpoint::EpochTail tail;
  state::ReplicaView view(MakeDict());

  owner->Put(1, "v");
  auto e1 = CutEpoch(*owner, tail, 5);
  ASSERT_TRUE(view.ApplyBase(7, 5, e1.chunks).ok());

  // In sync: admissible even at lag 0.
  EXPECT_TRUE(view.ReadWithin(0, [](const state::StateBackend&, uint64_t) {}));

  // The owner cuts epochs 6..8 whose blobs never arrive (wedged feed). The
  // announce watermark moves; the replica must fail the bound, not serve
  // arbitrarily old data.
  view.Announce(7, 8);
  EXPECT_FALSE(view.ReadWithin(2, [](const state::StateBackend&, uint64_t) {}));
  EXPECT_TRUE(view.ReadWithin(3, [](const state::StateBackend&, uint64_t) {}));
}

TEST(ReplicaViewTest, OwnerChangeRefusesReadsUntilNewBase) {
  auto owner = MakeDict();
  owner->EnableDeltaTracking();
  checkpoint::EpochTail tail;
  state::ReplicaView view(MakeDict());

  owner->Put(1, "v");
  auto e1 = CutEpoch(*owner, tail, 3);
  ASSERT_TRUE(view.ApplyBase(7, 3, e1.chunks).ok());
  EXPECT_TRUE(view.ReadWithin(8, [](const state::StateBackend&, uint64_t) {}));

  // The partition migrates: member 9 announces. Reads are refused however
  // generous the lag bound — the applied base belongs to the old owner.
  view.Announce(9, 1);
  EXPECT_FALSE(
      view.ReadWithin(1000, [](const state::StateBackend&, uint64_t) {}));

  // So are deltas from the new owner (no matching base yet).
  owner->Put(2, "w");
  auto stray = CutEpoch(*owner, tail, 4);
  EXPECT_FALSE(view.ApplyDelta(9, 4, stray.chunks).ok());

  // The new owner's base restores service.
  ASSERT_TRUE(view.ApplyBase(9, 4, stray.chunks).ok());
  EXPECT_TRUE(view.ReadWithin(0, [](const state::StateBackend&, uint64_t) {}));
}

TEST(ReplicaTableTest, FeedEventsAnswerBoundedStaleReads) {
  ReplicaTable table(/*partitions=*/1);
  auto owner = MakeDict();
  owner->EnableDeltaTracking();
  checkpoint::EpochTail tail;

  owner->Put(5, "five");
  auto e1 = CutEpoch(*owner, tail, 1);

  net::ReplicaEpochMsg announce;
  announce.partition = 0;
  announce.member_id = 2;
  announce.kind = net::kEpochAnnounce;
  announce.epoch = 1;
  announce.queue_depth = 33;
  table.OnEpoch(announce);

  // Announce landed but no blobs yet: nothing to answer from.
  EXPECT_FALSE(table.TryGet(5, 8).admissible);
  EXPECT_EQ(table.owner_queue_depth(), 33u);

  net::ReplicaEpochMsg base = announce;
  base.kind = net::kEpochBase;
  base.chunks = e1.chunks;
  table.OnEpoch(base);

  auto hit = table.TryGet(5, 0);
  EXPECT_TRUE(hit.admissible);
  EXPECT_TRUE(hit.found);
  EXPECT_EQ(hit.value, "five");
  EXPECT_EQ(hit.epoch, 1u);

  auto miss = table.TryGet(6, 0);
  EXPECT_TRUE(miss.admissible);
  EXPECT_FALSE(miss.found);

  // The owner announces epoch 4 without blobs arriving: lag 3 exceeds a
  // client bound of 2 and the read falls back to the strong path.
  announce.epoch = 4;
  table.OnEpoch(announce);
  EXPECT_FALSE(table.TryGet(5, 2).admissible);
  EXPECT_TRUE(table.TryGet(5, 3).admissible);
  EXPECT_EQ(table.epochs_applied(), 1u);
}

}  // namespace
}  // namespace sdg::serve
