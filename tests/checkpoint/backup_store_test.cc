#include "src/checkpoint/backup_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "src/checkpoint/chunk_stream.h"
#include "src/checkpoint/epoch_tail.h"
#include "src/common/clock.h"
#include "src/state/keyed_dict.h"
#include "tests/common/scoped_test_dir.h"

namespace sdg::checkpoint {
namespace {

namespace fs = std::filesystem;

class BackupStoreTest : public ::testing::Test {
 protected:
  BackupStoreOptions Options(uint32_t backups, uint64_t throttle = 0) {
    BackupStoreOptions o;
    o.root = dir_.path();
    o.num_backup_nodes = backups;
    o.throttle_bytes_per_sec = throttle;
    o.io_threads = 2;
    return o;
  }

  // RAII: the directory disappears even when a test fails mid-way.
  ScopedTestDir dir_{"store_test"};
};

std::vector<std::vector<uint8_t>> MakeChunks(int n, size_t size) {
  std::vector<std::vector<uint8_t>> chunks;
  for (int i = 0; i < n; ++i) {
    chunks.emplace_back(size, static_cast<uint8_t>(i));
  }
  return chunks;
}

TEST_F(BackupStoreTest, WriteReadRoundTrip) {
  BackupStore store(Options(2));
  auto chunks = MakeChunks(4, 1024);
  ASSERT_TRUE(store.WriteChunks(0, 1, "se0", chunks).ok());
  auto back = store.ReadChunks(0, 1, "se0", 4);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, chunks);
}

TEST_F(BackupStoreTest, ChunksSpreadAcrossBackupDirs) {
  BackupStore store(Options(2));
  ASSERT_TRUE(store.WriteChunks(0, 1, "se0", MakeChunks(4, 16)).ok());
  size_t in_backup0 = 0, in_backup1 = 0;
  for (const auto& e : fs::directory_iterator(dir_.path() / "backup0")) {
    (void)e;
    ++in_backup0;
  }
  for (const auto& e : fs::directory_iterator(dir_.path() / "backup1")) {
    (void)e;
    ++in_backup1;
  }
  EXPECT_EQ(in_backup0, 2u);  // chunks 0, 2
  EXPECT_EQ(in_backup1, 2u);  // chunks 1, 3
}

TEST_F(BackupStoreTest, MetaRoundTripAndLatestEpoch) {
  BackupStore store(Options(1));
  CheckpointMeta meta;
  meta.epoch = 3;
  meta.tasks.push_back({/*task=*/1, /*instance=*/0, /*emit_clock=*/42,
                        {{2, 0, 17}}});
  meta.states.push_back({/*state=*/0, /*instance=*/0, /*num_chunks=*/4,
                         /*record_count=*/100});
  ASSERT_TRUE(store.WriteMeta(5, 3, meta).ok());

  auto latest = store.LatestEpoch(5);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 3u);

  auto back = store.ReadMeta(5, 3);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->epoch, 3u);
  ASSERT_EQ(back->tasks.size(), 1u);
  EXPECT_EQ(back->tasks[0].emit_clock, 42u);
  ASSERT_EQ(back->tasks[0].last_seen.size(), 1u);
  EXPECT_EQ(back->tasks[0].last_seen[0].ts, 17u);
  ASSERT_EQ(back->states.size(), 1u);
  EXPECT_EQ(back->states[0].record_count, 100u);
}

TEST_F(BackupStoreTest, LatestEpochPicksHighest) {
  BackupStore store(Options(1));
  CheckpointMeta meta;
  for (uint64_t e : {1, 5, 3}) {
    meta.epoch = e;
    ASSERT_TRUE(store.WriteMeta(0, e, meta).ok());
  }
  auto latest = store.LatestEpoch(0);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 5u);
}

// A crash mid-publish leaves a torn `<meta>.tmp` behind: it is not an epoch,
// so the store still recovers to the last published one, and pruning past
// it removes it.
TEST_F(BackupStoreTest, LeftoverMetaTmpIsNotAnEpoch) {
  BackupStore store(Options(1));
  CheckpointMeta meta;
  for (uint64_t e : {1, 2}) {
    meta.epoch = e;
    ASSERT_TRUE(store.WriteMeta(1, e, meta).ok());
  }
  meta.epoch = 3;
  std::vector<uint8_t> torn = meta.ToBytes();
  torn.resize(torn.size() / 2);
  const fs::path tmp = dir_.path() / "meta" / "node1_epoch3.meta.tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(torn.data(), 1, torn.size(), f), torn.size());
    std::fclose(f);
  }
  EXPECT_FALSE(fs::exists(dir_.path() / "meta" / "node1_epoch2.meta.tmp"))
      << "a published meta leaves no temporary behind";

  auto latest = store.LatestEpoch(1);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(*latest, 2u);
  auto back = store.ReadMeta(1, 2);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->epoch, 2u);

  store.PruneBefore(1, 4);
  EXPECT_FALSE(fs::exists(tmp));
}

using Dict = state::KeyedDict<int64_t, std::string>;

std::map<int64_t, std::string> Contents(const Dict& dict) {
  std::map<int64_t, std::string> out;
  dict.ForEach([&](const int64_t& k, const std::string& v) { out[k] = v; });
  return out;
}

// Writes one epoch of `dict` as SE instance (0, 0) of node 1: a delta link
// of `chain` unless its rule asks for a base — the elastic worker's cut.
void CutChainedEpoch(BackupStore& store, Dict& dict, DeltaChain& chain,
                     uint64_t epoch) {
  dict.BeginCheckpoint();
  const bool delta = dict.DeltaReady() && !chain.NeedsBase();
  const std::string name = StateChunkName(0, 0);
  auto blobs = SerializeEpochBlobs(dict, name, /*num_chunks=*/2, delta,
                                   state::kChunkCodecPrefix);
  dict.EndCheckpoint();
  ASSERT_TRUE(blobs.ok());
  ASSERT_TRUE(store.WriteChunks(1, epoch, name, *blobs).ok());
  StateInstanceMeta sm;
  sm.num_chunks = 2;
  sm.kind = delta ? EpochKind::kDelta : EpochKind::kFull;
  if (delta) {
    sm.chain = chain.links();
  }
  sm.chain.push_back({epoch, 2, sm.kind});
  sm.base_epoch = sm.chain.front().epoch;
  CheckpointMeta meta;
  meta.epoch = epoch;
  meta.states.push_back(sm);
  ASSERT_TRUE(store.WriteMeta(1, epoch, meta).ok());
  dict.ResolveEpoch(true);
  chain.Push(sm.chain.back(), BlobBytes(*blobs));
}

// A chain of base + 2 deltas restores exactly, including a delete of a key
// an earlier delta wrote. A newer epoch whose meta is then truncated on disk
// is still the latest: it may have been acked, so the store does not fall
// back past it, and reading it fails.
TEST_F(BackupStoreTest, TornNewestMetaIsNotSkipped) {
  BackupStore store(Options(2));
  Dict owner;
  owner.EnableDeltaTracking();
  DeltaChain chain;
  for (int64_t k = 0; k < 200; ++k) {
    owner.Put(k, "base" + std::to_string(k));
  }
  CutChainedEpoch(store, owner, chain, 1);
  owner.Put(3, "three");
  owner.Erase(4);
  CutChainedEpoch(store, owner, chain, 2);
  owner.Put(5, "five");
  owner.Erase(3);  // a delete of a key the previous delta wrote
  owner.Put(500, "new");
  CutChainedEpoch(store, owner, chain, 3);

  auto meta = store.ReadMeta(1, 3);
  ASSERT_TRUE(meta.ok());
  ASSERT_EQ(meta->states.size(), 1u);
  const auto& links = meta->states[0].chain;
  ASSERT_EQ(links.size(), 3u);
  EXPECT_EQ(links.front().kind, EpochKind::kFull);
  EXPECT_EQ(links.back().kind, EpochKind::kDelta);
  Dict restored;
  Status st = RestoreChain(store, 1, meta->states[0], restored);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(Contents(restored), Contents(owner));

  owner.Put(6, "six");
  CutChainedEpoch(store, owner, chain, 4);
  const fs::path meta4 = dir_.path() / "meta" / "node1_epoch4.meta";
  fs::resize_file(meta4, fs::file_size(meta4) / 2);
  auto latest = store.LatestEpoch(1);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 4u);
  EXPECT_FALSE(store.ReadMeta(1, 4).ok());
}

// A published epoch whose chain lost a chunk file is still the latest, and
// restoring it fails rather than returning part of the state.
TEST_F(BackupStoreTest, ChainWithMissingChunkFailsToRestore) {
  BackupStore store(Options(1));
  Dict owner;
  owner.EnableDeltaTracking();
  DeltaChain chain;
  owner.Put(1, "a");
  CutChainedEpoch(store, owner, chain, 1);
  owner.Put(2, "b");
  CutChainedEpoch(store, owner, chain, 2);
  fs::remove(dir_.path() / "backup0" / "node1_epoch2_se0_0_chunk1.bin");
  auto latest = store.LatestEpoch(1);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 2u);
  auto meta = store.ReadMeta(1, 2);
  ASSERT_TRUE(meta.ok());
  Dict restored;
  EXPECT_FALSE(RestoreChain(store, 1, meta->states[0], restored).ok());
}

TEST_F(BackupStoreTest, LatestEpochOfUnknownNodeFails) {
  BackupStore store(Options(1));
  EXPECT_FALSE(store.LatestEpoch(9).ok());
}

TEST_F(BackupStoreTest, ReadMissingChunkFails) {
  BackupStore store(Options(1));
  auto r = store.ReadChunks(0, 1, "ghost", 2);
  EXPECT_FALSE(r.ok());
}

TEST_F(BackupStoreTest, PruneRemovesOldEpochs) {
  BackupStore store(Options(1));
  CheckpointMeta meta;
  for (uint64_t e : {1, 2, 3}) {
    meta.epoch = e;
    ASSERT_TRUE(store.WriteChunks(0, e, "se0", MakeChunks(1, 8)).ok());
    ASSERT_TRUE(store.WriteMeta(0, e, meta).ok());
  }
  store.PruneBefore(0, 3);
  EXPECT_FALSE(store.ReadMeta(0, 1).ok());
  EXPECT_FALSE(store.ReadMeta(0, 2).ok());
  EXPECT_TRUE(store.ReadMeta(0, 3).ok());
  EXPECT_TRUE(store.ReadChunks(0, 3, "se0", 1).ok());
  EXPECT_FALSE(store.ReadChunks(0, 1, "se0", 1).ok());
}

TEST_F(BackupStoreTest, PruneIsPerNode) {
  BackupStore store(Options(1));
  CheckpointMeta meta;
  meta.epoch = 1;
  ASSERT_TRUE(store.WriteMeta(0, 1, meta).ok());
  ASSERT_TRUE(store.WriteMeta(1, 1, meta).ok());
  store.PruneBefore(0, 2);
  EXPECT_FALSE(store.ReadMeta(0, 1).ok());
  EXPECT_TRUE(store.ReadMeta(1, 1).ok());
}

TEST_F(BackupStoreTest, ThrottleSlowsLargeWrites) {
  // 1 MB at 4 MB/s must take at least ~200 ms; unthrottled is instant.
  auto chunks = MakeChunks(1, 1 << 20);
  Stopwatch fast_timer;
  {
    BackupStore store(Options(1));
    ASSERT_TRUE(store.WriteChunks(0, 1, "se0", chunks).ok());
  }
  double fast = fast_timer.ElapsedSeconds();

  Stopwatch slow_timer;
  {
    BackupStore store(Options(1, /*throttle=*/4 << 20));
    ASSERT_TRUE(store.WriteChunks(0, 1, "se0", chunks).ok());
  }
  double slow = slow_timer.ElapsedSeconds();
  EXPECT_GT(slow, fast);
  EXPECT_GE(slow, 0.15);
}

TEST_F(BackupStoreTest, EmptyChunkListIsOk) {
  BackupStore store(Options(2));
  EXPECT_TRUE(store.WriteChunks(0, 1, "se0", {}).ok());
}

// --- Streaming chunk writes + hash-offset placement --------------------------

TEST_F(BackupStoreTest, StreamedChunksReadBackAsWritten) {
  BackupStore store(Options(2));
  auto stream = store.BeginChunkStream(0, 1, "se0", 0);
  ASSERT_TRUE(stream.ok());
  std::vector<uint8_t> expect;
  for (int i = 0; i < 20; ++i) {
    std::vector<uint8_t> seg(1000 + i, static_cast<uint8_t>(i));
    expect.insert(expect.end(), seg.begin(), seg.end());
    ASSERT_TRUE(store.AppendChunkStream(*stream, std::move(seg)).ok());
  }
  ASSERT_TRUE(store.FinishChunkStream(*stream).ok());

  auto back = store.ReadChunks(0, 1, "se0", 1);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ((*back)[0], expect);
}

TEST_F(BackupStoreTest, StreamingSurvivesTinyBacklogBudget) {
  // A backlog budget smaller than one segment forces the appender to wait on
  // the drainer every time; ordering and content must be unaffected.
  auto opts = Options(1);
  opts.max_stream_backlog_bytes = 512;
  BackupStore store(opts);
  auto stream = store.BeginChunkStream(0, 7, "kv", 0);
  ASSERT_TRUE(stream.ok());
  std::vector<uint8_t> expect;
  for (int i = 0; i < 50; ++i) {
    std::vector<uint8_t> seg(1024, static_cast<uint8_t>(i));
    expect.insert(expect.end(), seg.begin(), seg.end());
    ASSERT_TRUE(store.AppendChunkStream(*stream, std::move(seg)).ok());
  }
  ASSERT_TRUE(store.FinishChunkStream(*stream).ok());
  auto back = store.ReadChunks(0, 7, "kv", 1);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ((*back)[0], expect);
}

TEST_F(BackupStoreTest, InterleavedStreamsStayIndependent) {
  BackupStore store(Options(2));
  auto s0 = store.BeginChunkStream(0, 1, "a", 0);
  auto s1 = store.BeginChunkStream(0, 1, "a", 1);
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.AppendChunkStream(*s0, std::vector<uint8_t>(64, 0xA0))
                    .ok());
    ASSERT_TRUE(store.AppendChunkStream(*s1, std::vector<uint8_t>(32, 0xB1))
                    .ok());
  }
  ASSERT_TRUE(store.FinishChunkStream(*s0).ok());
  ASSERT_TRUE(store.FinishChunkStream(*s1).ok());
  auto back = store.ReadChunks(0, 1, "a", 2);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)[0], std::vector<uint8_t>(640, 0xA0));
  EXPECT_EQ((*back)[1], std::vector<uint8_t>(320, 0xB1));
}

TEST_F(BackupStoreTest, AppendToUnknownStreamFails) {
  BackupStore store(Options(1));
  EXPECT_FALSE(store.AppendChunkStream(999, {1, 2, 3}).ok());
  EXPECT_FALSE(store.FinishChunkStream(999).ok());
}

TEST_F(BackupStoreTest, SingleChunkNamesSpreadAcrossBackupDirs) {
  // The i % m placement is offset by hash(name): single-chunk blobs of
  // different names (TE output buffers) must not all pile onto backup 0.
  BackupStore store(Options(2));
  for (int i = 0; i < 8; ++i) {
    std::string name = "outbuf" + std::to_string(i) + "_0";
    ASSERT_TRUE(store.WriteChunks(0, 1, name, MakeChunks(1, 16)).ok());
  }
  size_t in_backup0 = 0, in_backup1 = 0;
  for (const auto& e : fs::directory_iterator(dir_.path() / "backup0")) {
    (void)e;
    ++in_backup0;
  }
  for (const auto& e : fs::directory_iterator(dir_.path() / "backup1")) {
    (void)e;
    ++in_backup1;
  }
  EXPECT_EQ(in_backup0 + in_backup1, 8u);
  EXPECT_GT(in_backup0, 0u);
  EXPECT_GT(in_backup1, 0u);
}

}  // namespace
}  // namespace sdg::checkpoint
