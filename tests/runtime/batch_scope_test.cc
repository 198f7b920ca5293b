// The drained batch as the unit of the upstream-backup hot path: one
// step-lock scope and one delivery flush per slice, a checkpoint cut that
// still lands at an item boundary, and a kill in the middle of a batch that
// recovers exactly once (§5).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "src/common/clock.h"
#include "src/graph/sdg.h"
#include "src/runtime/cluster.h"
#include "src/state/keyed_dict.h"
#include "tests/common/scoped_test_dir.h"

namespace sdg::runtime {
namespace {

using graph::AccessMode;
using graph::Dispatch;
using graph::SdgBuilder;
using graph::StateDistribution;
using state::KeyedDict;
using state::StateAs;

using IntDict = KeyedDict<int64_t, int64_t>;

constexpr int64_t kKeys = 16;
constexpr size_t kBatch = 256;

ClusterOptions AsyncCluster(const std::filesystem::path& dir, uint32_t nodes) {
  ClusterOptions o;
  o.num_nodes = nodes;
  o.max_batch = kBatch;
  o.mailbox_capacity = 8192;
  o.executor_workers = 2;  // private pool: exact executor counters
  o.fault_tolerance.mode = FtMode::kAsyncLocal;
  o.fault_tolerance.checkpoint_interval_s = 0;  // manual checkpoints only
  o.fault_tolerance.store.root = dir;
  o.fault_tolerance.store.num_backup_nodes = 2;
  return o;
}

// feed (stateless entry, one instance) -> count (partitioned, `count_instances`
// instances over a key -> occurrences dict). `slow_feed` makes each feed item
// sleep ~2 ms while set; `fed` counts feed items processed.
Result<graph::Sdg> BuildFeedCount(uint32_t count_instances,
                                  std::atomic<bool>* slow_feed,
                                  std::atomic<int>* fed) {
  SdgBuilder b;
  auto dict = b.AddState("counts", StateDistribution::kPartitioned,
                         [] { return std::make_unique<IntDict>(); });
  auto feed = b.AddEntryTask(
      "feed", [slow_feed, fed](const Tuple& in, graph::TaskContext& ctx) {
        if (slow_feed->load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        fed->fetch_add(1);
        ctx.Emit(0, Tuple{in[0]});
      });
  auto count = b.AddTask("count", [](const Tuple& in, graph::TaskContext& ctx) {
    auto* d = StateAs<IntDict>(ctx.state());
    d->Put(in[0].AsInt(), d->Get(in[0].AsInt()).value_or(0) + 1);
  });
  EXPECT_TRUE(b.SetAccess(count, dict, AccessMode::kPartitioned).ok());
  EXPECT_TRUE(b.Connect(feed, count, Dispatch::kPartitioned, 0).ok());
  b.SetInitialInstances(count, count_instances);
  return std::move(b).Build();
}

std::vector<Tuple> Words(size_t n) {
  std::vector<Tuple> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Tuple{Value(static_cast<int64_t>(i) % kKeys)});
  }
  return out;
}

std::map<int64_t, int64_t> Counts(Deployment& d) {
  std::map<int64_t, int64_t> out;
  for (uint32_t i = 0; i < d.NumStateInstances("counts"); ++i) {
    auto* dict = StateAs<IntDict>(d.StateInstance("counts", i));
    for (int64_t k = 0; k < kKeys; ++k) {
      out[k] += dict->Get(k).value_or(0);
    }
  }
  return out;
}

// Occurrences of key k among Words(n).
int64_t Occurrences(size_t n, int64_t k) {
  const auto full = static_cast<int64_t>(n) / kKeys;
  return full + (k < static_cast<int64_t>(n) % kKeys ? 1 : 0);
}

bool WaitFor(const std::atomic<int>& counter, int at_least) {
  for (int i = 0; i < 5000 && counter.load() < at_least; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return counter.load() >= at_least;
}

TEST(BatchScopeTest, UpstreamBackupPushesPerBatchAndDestination) {
  // With upstream backup on, one drained feed batch of 256 items reaches its
  // 4 destinations with one mailbox push each, not one per item: the
  // executor runs ~1 feed slice + ~4 count slices, where a per-item flush
  // readies a destination (and usually runs a slice) for every item.
  ScopedTestDir dir("batch_pushes");
  std::atomic<bool> slow{false};
  std::atomic<int> fed{0};
  auto g = BuildFeedCount(4, &slow, &fed);
  ASSERT_TRUE(g.ok());
  Cluster cluster(AsyncCluster(dir.path(), 4));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());

  const uint64_t before = (*d)->ExecutorStatsSnapshot().tasks_run;
  ASSERT_TRUE((*d)->InjectAll("feed", Words(kBatch)).ok());
  (*d)->Drain();
  const uint64_t slices = (*d)->ExecutorStatsSnapshot().tasks_run - before;

  EXPECT_EQ((*d)->ProcessedOf("count"), kBatch);
  // 1 feed batch + 4 destinations, with room for a spurious re-run each.
  EXPECT_LE(slices, 10u) << slices
                         << " slices: deliveries flushed per item, not per batch";
  auto counts = Counts(**d);
  for (int64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(counts[k], Occurrences(kBatch, k)) << "key " << k;
  }
  (*d)->Shutdown();
}

TEST(BatchScopeTest, CheckpointCutsASlowBatchAtAnItemBoundary) {
  // The feed slice holds its step lock across a batch of 256 items of ~2 ms
  // each (~0.5 s). A checkpoint requested a few items in must get the lock
  // at the next item boundary, not when the batch ends.
  ScopedTestDir dir("batch_cut");
  std::atomic<bool> slow{true};
  std::atomic<int> fed{0};
  auto g = BuildFeedCount(2, &slow, &fed);
  ASSERT_TRUE(g.ok());
  Cluster cluster(AsyncCluster(dir.path(), 3));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());
  const uint32_t feed_node = (*d)->NodeOfTaskInstance("feed", 0);

  ASSERT_TRUE((*d)->InjectAll("feed", Words(kBatch)).ok());
  ASSERT_TRUE(WaitFor(fed, 3));
  const int fed_before = fed.load();
  Stopwatch timer;
  ASSERT_TRUE((*d)->CheckpointNode(feed_node).ok());
  const double ckpt_ms = timer.ElapsedMillis();
  const int fed_during = fed.load() - fed_before;

  EXPECT_LT(ckpt_ms, 150.0) << "checkpoint waited for the batch to end";
  EXPECT_LT(fed_during, 48) << "checkpoint waited for the batch to end";
  EXPECT_LT(fed.load(), static_cast<int>(kBatch));
  slow = false;
  (*d)->Drain();
  EXPECT_EQ((*d)->ProcessedOf("count"), kBatch);
  (*d)->Shutdown();
}

TEST(BatchScopeTest, KillInTheMiddleOfABatchRecoversExactlyOnce) {
  // Checkpoint, then kill the feed's node while its slice is part-way
  // through a slow batch whose outputs are staged but not yet flushed. The
  // killed slice must deliver none of them (a crashed node sends nothing
  // more); recovery replays the batch from the external log, and every
  // word is counted exactly once.
  ScopedTestDir dir("batch_kill");
  std::atomic<bool> slow{false};
  std::atomic<int> fed{0};
  auto g = BuildFeedCount(2, &slow, &fed);
  ASSERT_TRUE(g.ok());
  Cluster cluster(AsyncCluster(dir.path(), 4));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());
  const uint32_t feed_node = (*d)->NodeOfTaskInstance("feed", 0);
  uint32_t replacement = Deployment::kNoNode;
  for (uint32_t n = 0; n < 4 && replacement == Deployment::kNoNode; ++n) {
    if (n != feed_node && n != (*d)->NodeOfTaskInstance("count", 0) &&
        n != (*d)->NodeOfTaskInstance("count", 1)) {
      replacement = n;
    }
  }
  ASSERT_NE(replacement, Deployment::kNoNode);

  constexpr size_t kFirst = 200;
  ASSERT_TRUE((*d)->InjectAll("feed", Words(kFirst)).ok());
  (*d)->Drain();
  ASSERT_TRUE((*d)->CheckpointAllNodes().ok());

  slow = true;
  const int fed_before = fed.load();
  ASSERT_TRUE((*d)->InjectAll("feed", Words(kBatch)).ok());
  ASSERT_TRUE(WaitFor(fed, fed_before + 20));
  ASSERT_TRUE((*d)->KillNode(feed_node).ok());
  slow = false;
  ASSERT_TRUE((*d)->RecoverNode(feed_node, {replacement}).ok());
  (*d)->Drain();

  auto counts = Counts(**d);
  for (int64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(counts[k], Occurrences(kFirst, k) + Occurrences(kBatch, k))
        << "key " << k;
  }
  (*d)->Shutdown();
}

}  // namespace
}  // namespace sdg::runtime
