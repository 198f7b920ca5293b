// Delta-epoch checkpointing through the runtime: base+delta chains are
// written by CheckpointNode, carried in the meta, applied in order by
// RecoverNode, and surfaced in the deployment's checkpoint stats.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <mutex>

#include "src/graph/sdg.h"
#include "src/runtime/cluster.h"
#include "src/state/codec.h"
#include "src/state/keyed_dict.h"
#include "tests/common/scoped_test_dir.h"

namespace sdg::runtime {
namespace {

using graph::AccessMode;
using graph::SdgBuilder;
using graph::StateDistribution;
using state::KeyedDict;
using state::StateAs;

using IntDict = KeyedDict<int64_t, int64_t>;

Result<graph::Sdg> BuildKvGraph() {
  SdgBuilder b;
  auto dict = b.AddState("dict", StateDistribution::kPartitioned,
                         [] { return std::make_unique<IntDict>(); });
  auto put = b.AddEntryTask("put", [](const Tuple& in, graph::TaskContext& ctx) {
    StateAs<IntDict>(ctx.state())->Put(in[0].AsInt(), in[1].AsInt());
  });
  auto del = b.AddEntryTask("del", [](const Tuple& in, graph::TaskContext& ctx) {
    StateAs<IntDict>(ctx.state())->Erase(in[0].AsInt());
  });
  auto get = b.AddEntryTask("get", [](const Tuple& in, graph::TaskContext& ctx) {
    auto v = StateAs<IntDict>(ctx.state())->Get(in[0].AsInt());
    ctx.Emit(0, Tuple{in[0], Value(v.value_or(-1))});
  });
  EXPECT_TRUE(b.SetAccess(put, dict, AccessMode::kPartitioned).ok());
  EXPECT_TRUE(b.SetAccess(del, dict, AccessMode::kPartitioned).ok());
  EXPECT_TRUE(b.SetAccess(get, dict, AccessMode::kPartitioned).ok());
  return std::move(b).Build();
}

ClusterOptions DeltaCluster(const std::filesystem::path& dir,
                            uint32_t delta_interval = 3) {
  ClusterOptions o;
  o.num_nodes = 3;
  o.mailbox_capacity = 8192;
  o.fault_tolerance.mode = FtMode::kAsyncLocal;
  o.fault_tolerance.checkpoint_interval_s = 0;  // manual checkpoints only
  o.fault_tolerance.chunks_per_state = 4;
  o.fault_tolerance.delta_epoch_interval = delta_interval;
  o.fault_tolerance.chunk_codec = state::kChunkCodecPrefix;
  o.fault_tolerance.store.root = dir;
  o.fault_tolerance.store.num_backup_nodes = 2;
  o.fault_tolerance.store.io_threads = 4;
  return o;
}

std::map<int64_t, int64_t> ReadAll(Deployment& d, int64_t num_keys) {
  std::mutex mu;
  std::map<int64_t, int64_t> results;
  EXPECT_TRUE(d.OnOutput("get", [&](const Tuple& t, uint64_t) {
              std::lock_guard<std::mutex> lock(mu);
              results[t[0].AsInt()] = t[1].AsInt();
            }).ok());
  for (int64_t k = 0; k < num_keys; ++k) {
    EXPECT_TRUE(d.Inject("get", Tuple{Value(k)}).ok());
  }
  d.Drain();
  return results;
}

TEST(DeltaCkptTest, BaseDeltaChainRestoresAfterFailure) {
  ScopedTestDir dir("delta_ckpt");
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  Cluster cluster(DeltaCluster(dir.path()));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());

  // Epoch 1: full base of 300 keys.
  for (int64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(k)}).ok());
  }
  (*d)->Drain();
  ASSERT_TRUE((*d)->CheckpointAllNodes().ok());

  // Epoch 2 (delta): overwrite a few, add a few.
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(k + 1000)}).ok());
  }
  ASSERT_TRUE((*d)->Inject("put", Tuple{Value(300), Value(300)}).ok());
  (*d)->Drain();
  ASSERT_TRUE((*d)->CheckpointAllNodes().ok());

  // Epoch 3 (delta): erase some base keys.
  for (int64_t k = 100; k < 110; ++k) {
    ASSERT_TRUE((*d)->Inject("del", Tuple{Value(k)}).ok());
  }
  (*d)->Drain();
  ASSERT_TRUE((*d)->CheckpointAllNodes().ok());

  auto stats = (*d)->CheckpointStatsSnapshot();
  EXPECT_GT(stats.full_serializations, 0u);
  EXPECT_GT(stats.delta_serializations, 0u);
  EXPECT_GT(stats.tombstones, 0u);
  // The deltas carried only the changed records, not the 300-key base.
  EXPECT_LT(stats.records_delta, stats.records_full);

  // Kill the node hosting the dict and restore from the base+delta chain.
  uint32_t victim = (*d)->NodeOfStateInstance("dict", 0);
  ASSERT_NE(victim, UINT32_MAX);
  uint32_t target = (victim + 1) % 3;
  ASSERT_TRUE((*d)->KillNode(victim).ok());
  ASSERT_TRUE((*d)->RecoverNode(victim, {target}).ok());

  auto all = ReadAll(**d, 301);
  for (int64_t k = 0; k < 301; ++k) {
    int64_t expect = k;
    if (k < 10) {
      expect = k + 1000;
    } else if (k >= 100 && k < 110) {
      expect = -1;  // erased
    }
    EXPECT_EQ(all[k], expect) << "key " << k;
  }
}

TEST(DeltaCkptTest2, FullBaseRewrittenWhenChainHitsInterval) {
  ScopedTestDir dir("delta_interval");
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  Cluster cluster(DeltaCluster(dir.path(), /*delta_interval=*/2));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());

  for (int64_t round = 0; round < 4; ++round) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(round), Value(round)}).ok());
    (*d)->Drain();
    uint32_t dict_node = (*d)->NodeOfStateInstance("dict", 0);
    ASSERT_NE(dict_node, UINT32_MAX);
    ASSERT_TRUE((*d)->CheckpointNode(dict_node).ok());
  }
  auto stats = (*d)->CheckpointStatsSnapshot();
  // Chain cap 2: epochs alternate full, delta, full, delta.
  EXPECT_EQ(stats.full_serializations, 2u);
  EXPECT_EQ(stats.delta_serializations, 2u);
}

TEST(DeltaCkptTest2, StatsAccumulateAndDriverCountersMatch) {
  ScopedTestDir dir("delta_stats");
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  Cluster cluster(DeltaCluster(dir.path()));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());

  for (int64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(k)}).ok());
  }
  (*d)->Drain();
  ASSERT_TRUE((*d)->CheckpointAllNodes().ok());
  auto s1 = (*d)->CheckpointStatsSnapshot();
  EXPECT_EQ(s1.checkpoints, (*d)->CheckpointsCompleted());
  EXPECT_EQ(s1.checkpoints, 3u);  // one per node
  EXPECT_GT(s1.bytes_written, 0u);
  EXPECT_GT(s1.records_full, 0u);

  ASSERT_TRUE(
      (*d)->Inject("put", Tuple{Value(int64_t{1}), Value(int64_t{2})}).ok());
  (*d)->Drain();
  ASSERT_TRUE((*d)->CheckpointAllNodes().ok());
  auto s2 = (*d)->CheckpointStatsSnapshot();
  EXPECT_EQ(s2.checkpoints, 6u);
  EXPECT_GT(s2.bytes_written, s1.bytes_written);
  // The second sweep wrote one delta with a single changed record.
  EXPECT_GE(s2.delta_serializations, 1u);
  EXPECT_EQ(s2.records_full, s1.records_full);
  EXPECT_GE(s2.records_delta, 1u);
}

TEST(DeltaCkptTest2, FullCheckpointsStillWorkWithDeltaDisabled) {
  // delta_epoch_interval = 0 must reproduce the pre-delta behaviour (every
  // epoch a full base) while still using the streaming writer.
  ScopedTestDir dir("delta_off");
  auto g = BuildKvGraph();
  ASSERT_TRUE(g.ok());
  Cluster cluster(DeltaCluster(dir.path(), /*delta_interval=*/0));
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());

  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE((*d)->Inject("put", Tuple{Value(k), Value(k)}).ok());
  }
  (*d)->Drain();
  ASSERT_TRUE((*d)->CheckpointAllNodes().ok());
  ASSERT_TRUE((*d)->CheckpointAllNodes().ok());
  auto stats = (*d)->CheckpointStatsSnapshot();
  EXPECT_EQ(stats.delta_serializations, 0u);

  uint32_t victim = (*d)->NodeOfStateInstance("dict", 0);
  uint32_t target = (victim + 1) % 3;
  ASSERT_TRUE((*d)->KillNode(victim).ok());
  ASSERT_TRUE((*d)->RecoverNode(victim, {target}).ok());
  auto all = ReadAll(**d, 100);
  for (int64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(all[k], k);
  }
}

}  // namespace
}  // namespace sdg::runtime
