#include "src/checkpoint/backup_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "src/common/clock.h"
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
