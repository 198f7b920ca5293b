#include "src/state/chunk.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "src/checkpoint/epoch_tail.h"
#include "src/state/codec.h"
#include "src/state/keyed_dict.h"

namespace sdg::state {
namespace {

// Full epoch of `backend` as `m` chunk blobs, the way checkpoints cut it.
std::vector<std::vector<uint8_t>> EpochChunks(const StateBackend& backend,
                                              uint32_t m) {
  auto blobs = checkpoint::SerializeEpochBlobs(backend, "kv", m,
                                               /*delta=*/false, kChunkCodecNone);
  EXPECT_TRUE(blobs.ok()) << blobs.status().ToString();
  return blobs.ok() ? std::move(*blobs) : std::vector<std::vector<uint8_t>>{};
}

TEST(ChunkTest, BuildAndRead) {
  ChunkBuilder b("mystate");
  std::vector<uint8_t> p1{1, 2, 3};
  std::vector<uint8_t> p2{4, 5};
  b.AddRecord(100, p1.data(), p1.size());
  b.AddRecord(200, p2.data(), p2.size());
  EXPECT_EQ(b.record_count(), 2u);
  auto chunk = std::move(b).Finish();

  auto reader = ChunkReader::Open(chunk);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->se_name(), "mystate");
  EXPECT_EQ(reader->record_count(), 2u);

  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> records;
  ASSERT_TRUE(reader->ForEach([&](const ChunkRecordView& rec) {
                EXPECT_FALSE(rec.tombstone);
                records.emplace_back(rec.key_hash,
                                     std::vector<uint8_t>(
                                         rec.payload, rec.payload + rec.size));
              }).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].first, 100u);
  EXPECT_EQ(records[0].second, p1);
  EXPECT_EQ(records[1].first, 200u);
  EXPECT_EQ(records[1].second, p2);
}

TEST(ChunkTest, EmptyChunkRoundTrips) {
  auto chunk = ChunkBuilder("empty").Finish();
  auto reader = ChunkReader::Open(chunk);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->record_count(), 0u);
}

// A well-formed header whose version field is `version`.
std::vector<uint8_t> HeaderWithVersion(uint32_t version) {
  auto chunk = BuildChunkHeader({}, "s", 0);
  std::memcpy(chunk.data() + sizeof(uint32_t), &version, sizeof(version));
  return chunk;
}

TEST(ChunkTest, OpenRejectsBadMagic) {
  std::vector<uint8_t> garbage{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  ASSERT_TRUE(ChunkReader::Open(HeaderWithVersion(kChunkVersion)).ok());
  // Version 1 is the retired codec-less frame.
  for (const auto& bad :
       {garbage, HeaderWithVersion(1), HeaderWithVersion(3)}) {
    auto reader = ChunkReader::Open(bad);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  }
}

TEST(ChunkTest, SinkForwardsIntoBuilder) {
  ChunkBuilder b("s");
  RecordSink sink = b.AsSink();
  uint8_t byte = 42;
  sink(7, &byte, 1);
  EXPECT_EQ(b.record_count(), 1u);
}

TEST(ChunkTest, SplitPreservesAllRecordsDisjointly) {
  ChunkBuilder b("s");
  for (uint64_t h = 0; h < 100; ++h) {
    uint8_t payload = static_cast<uint8_t>(h);
    b.AddRecord(h * 7919, &payload, 1);  // spread hashes
  }
  auto chunk = std::move(b).Finish();
  auto parts = SplitChunk(chunk, 3);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 3u);

  uint64_t total = 0;
  std::set<uint8_t> seen;
  for (uint32_t i = 0; i < 3; ++i) {
    auto reader = ChunkReader::Open((*parts)[i]);
    ASSERT_TRUE(reader.ok());
    total += reader->record_count();
    ASSERT_TRUE(reader->ForEach([&](const ChunkRecordView& rec) {
                EXPECT_EQ(rec.key_hash % 3, i);  // routed to the right sub-chunk
                ASSERT_EQ(rec.size, 1u);
                seen.insert(rec.payload[0]);
              }).ok());
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(seen.size(), 100u);
}

TEST(ChunkTest, FilterKeepsOnlyOnePartition) {
  ChunkBuilder b("s");
  for (uint64_t h = 0; h < 50; ++h) {
    uint8_t payload = 0;
    b.AddRecord(h, &payload, 1);
  }
  auto chunk = std::move(b).Finish();
  auto filtered = FilterChunk(chunk, 1, 4);
  ASSERT_TRUE(filtered.ok());
  auto reader = ChunkReader::Open(*filtered);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->ForEach([&](const ChunkRecordView& rec) {
                EXPECT_EQ(rec.key_hash % 4, 1u);
              }).ok());
  EXPECT_EQ(reader->record_count(), 13u);  // hashes 1,5,9,...,49
}

TEST(ChunkTest, SerializeEpochBlobsAndRestoreEndToEnd) {
  KeyedDict<int64_t, int64_t> source;
  for (int64_t i = 0; i < 1000; ++i) {
    source.Put(i, i * i);
  }
  auto chunks = EpochChunks(source, 4);
  ASSERT_EQ(chunks.size(), 4u);

  KeyedDict<int64_t, int64_t> restored;
  for (const auto& chunk : chunks) {
    ASSERT_TRUE(RestoreChunk(restored, chunk).ok());
  }
  EXPECT_EQ(restored.Size(), 1000u);
  EXPECT_EQ(restored.Get(31), 961);
}

TEST(ChunkTest, MToNRoundTrip) {
  // The full Fig. 4 pattern: serialise to m=2 backup chunks, split each for
  // n=3 recovering nodes, restore, and verify the union is complete and the
  // partitions are disjoint.
  KeyedDict<int64_t, int64_t> source;
  for (int64_t i = 0; i < 500; ++i) {
    source.Put(i, i + 1);
  }
  auto backup_chunks = EpochChunks(source, 2);

  constexpr uint32_t kN = 3;
  std::vector<KeyedDict<int64_t, int64_t>> recovered(kN);
  for (const auto& chunk : backup_chunks) {
    auto split = SplitChunk(chunk, kN);
    ASSERT_TRUE(split.ok());
    for (uint32_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(RestoreChunk(recovered[i], (*split)[i]).ok());
    }
  }

  uint64_t total = 0;
  for (auto& r : recovered) {
    total += r.Size();
  }
  EXPECT_EQ(total, 500u);
  for (int64_t i = 0; i < 500; ++i) {
    int found = 0;
    for (auto& r : recovered) {
      if (r.Contains(i)) {
        ++found;
        EXPECT_EQ(r.Get(i), i + 1);
      }
    }
    EXPECT_EQ(found, 1) << "key " << i << " must live on exactly one node";
  }
}

// --- Codec, tombstones, streamed chunks -------------------------------------

ChunkOptions FrameOptions(uint8_t codec, bool delta) {
  return ChunkOptions{.codec = codec, .delta = delta};
}

TEST(ChunkV2Test, PrefixCodecRoundTripsAndShrinksSharedPrefixes) {
  // Records sharing a long common prefix: the codec should elide it.
  std::vector<std::vector<uint8_t>> payloads;
  for (int i = 0; i < 64; ++i) {
    std::vector<uint8_t> p(100, 0xAB);  // 100 identical leading bytes
    p.push_back(static_cast<uint8_t>(i));
    payloads.push_back(std::move(p));
  }

  ChunkBuilder plain("s", FrameOptions(kChunkCodecNone, false));
  ChunkBuilder packed("s", FrameOptions(kChunkCodecPrefix, false));
  for (uint64_t i = 0; i < payloads.size(); ++i) {
    plain.AddRecord(i, payloads[i].data(), payloads[i].size());
    packed.AddRecord(i, payloads[i].data(), payloads[i].size());
  }
  auto plain_chunk = std::move(plain).Finish();
  auto packed_chunk = std::move(packed).Finish();
  EXPECT_LT(packed_chunk.size(), plain_chunk.size() / 2);

  auto reader = ChunkReader::Open(packed_chunk);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->codec(), kChunkCodecPrefix);
  size_t i = 0;
  ASSERT_TRUE(reader->ForEach([&](const ChunkRecordView& rec) {
                EXPECT_EQ(rec.key_hash, i);
                ASSERT_EQ(rec.size, payloads[i].size());
                EXPECT_EQ(std::vector<uint8_t>(rec.payload, rec.payload + rec.size),
                          payloads[i]);
                ++i;
              }).ok());
  EXPECT_EQ(i, payloads.size());
}

TEST(ChunkV2Test, TombstonesRoundTrip) {
  ChunkBuilder b("s", FrameOptions(kChunkCodecNone, /*delta=*/true));
  uint8_t live = 1, dead = 2;
  b.AddRecord(10, &live, 1);
  b.AddTombstone(20, &dead, 1);
  auto chunk = std::move(b).Finish();

  auto reader = ChunkReader::Open(chunk);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->is_delta());
  std::vector<std::pair<uint64_t, bool>> seen;
  ASSERT_TRUE(reader->ForEach([&](const ChunkRecordView& rec) {
                seen.emplace_back(rec.key_hash, rec.tombstone);
              }).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<uint64_t, bool>{10, false}));
  EXPECT_EQ(seen[1], (std::pair<uint64_t, bool>{20, true}));
}

TEST(ChunkV2Test, SplitPreservesOptionsAndTombstones) {
  ChunkBuilder b("s", FrameOptions(kChunkCodecPrefix, /*delta=*/true));
  for (uint64_t h = 0; h < 60; ++h) {
    std::vector<uint8_t> p(20, 0x11);
    p.push_back(static_cast<uint8_t>(h));
    if (h % 5 == 0) {
      b.AddTombstone(h, p.data(), p.size());
    } else {
      b.AddRecord(h, p.data(), p.size());
    }
  }
  auto chunk = std::move(b).Finish();
  auto parts = SplitChunk(chunk, 3);
  ASSERT_TRUE(parts.ok());

  size_t total = 0, tombstones = 0;
  for (uint32_t i = 0; i < 3; ++i) {
    auto reader = ChunkReader::Open((*parts)[i]);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader->codec(), kChunkCodecPrefix);
    EXPECT_TRUE(reader->is_delta());
    ASSERT_TRUE(reader->ForEach([&](const ChunkRecordView& rec) {
                  EXPECT_EQ(rec.key_hash % 3, i);
                  ASSERT_EQ(rec.size, 21u);
                  EXPECT_EQ(rec.payload[20], static_cast<uint8_t>(rec.key_hash));
                  ++total;
                  if (rec.tombstone) {
                    ++tombstones;
                  }
                }).ok());
  }
  EXPECT_EQ(total, 60u);
  EXPECT_EQ(tombstones, 12u);  // hashes 0,5,...,55
}

TEST(ChunkV2Test, FilterKeepsPartitionTombstones) {
  ChunkBuilder b("s", FrameOptions(kChunkCodecNone, /*delta=*/true));
  uint8_t p = 0;
  for (uint64_t h = 0; h < 40; ++h) {
    if (h % 2 == 0) {
      b.AddTombstone(h, &p, 1);
    } else {
      b.AddRecord(h, &p, 1);
    }
  }
  auto chunk = std::move(b).Finish();
  auto filtered = FilterChunk(chunk, 2, 4);
  ASSERT_TRUE(filtered.ok());
  auto reader = ChunkReader::Open(*filtered);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->is_delta());
  size_t count = 0;
  ASSERT_TRUE(reader->ForEach([&](const ChunkRecordView& rec) {
                EXPECT_EQ(rec.key_hash % 4, 2u);
                EXPECT_TRUE(rec.tombstone);  // partition 2 of 4 = even hashes
                ++count;
              }).ok());
  EXPECT_EQ(count, 10u);
}

TEST(ChunkV2Test, StreamedSentinelWalksBodyToEnd) {
  // A streamed chunk is framed segment-by-segment: header first (count
  // unknown), record frames appended after.
  ChunkOptions opts = FrameOptions(kChunkCodecPrefix, false);
  auto chunk = BuildChunkHeader(opts, "s", kStreamedRecordCount);
  std::vector<uint8_t> prev;
  std::vector<std::vector<uint8_t>> payloads;
  for (uint64_t i = 0; i < 10; ++i) {
    std::vector<uint8_t> p(8, 0x7F);
    p.push_back(static_cast<uint8_t>(i));
    AppendRecordFrame(opts, i, p.data(), p.size(), /*tombstone=*/false, chunk,
                      prev);
    payloads.push_back(std::move(p));
  }
  auto reader = ChunkReader::Open(chunk);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->record_count(), kStreamedRecordCount);
  size_t i = 0;
  ASSERT_TRUE(reader->ForEach([&](const ChunkRecordView& rec) {
                ASSERT_LT(i, payloads.size());
                EXPECT_EQ(rec.key_hash, i);
                EXPECT_EQ(std::vector<uint8_t>(rec.payload, rec.payload + rec.size),
                          payloads[i]);
                ++i;
              }).ok());
  EXPECT_EQ(i, payloads.size());
}

TEST(ChunkV2Test, TruncatedV2BodyFailsCleanly) {
  ChunkBuilder b("s", FrameOptions(kChunkCodecPrefix, false));
  std::vector<uint8_t> p(32, 0x42);
  b.AddRecord(1, p.data(), p.size());
  b.AddRecord(2, p.data(), p.size());
  auto chunk = std::move(b).Finish();
  chunk.resize(chunk.size() - 5);
  auto reader = ChunkReader::Open(chunk);
  ASSERT_TRUE(reader.ok());  // header intact
  Status s = reader->ForEach([](const ChunkRecordView&) {});
  EXPECT_FALSE(s.ok());
}

TEST(ChunkV2Test, BaseThenDeltaRestoreAppliesTombstones) {
  // A streamed full base followed by a built delta epoch: the delta's
  // tombstone erases a base key and its record overwrites another.
  KeyedDict<int64_t, int64_t> base;
  for (int64_t i = 0; i < 100; ++i) {
    base.Put(i, i);
  }
  auto base_chunks = EpochChunks(base, 2);

  KeyedDict<int64_t, int64_t> next;
  next.EnableDeltaTracking();
  for (int64_t i = 0; i < 100; ++i) {
    next.Put(i, i);
  }
  next.BeginCheckpoint();
  next.EndCheckpoint();
  next.ResolveEpoch(true);  // baseline committed; tracking live
  next.Put(7, 700);
  next.Erase(13);
  next.BeginCheckpoint();
  ChunkBuilder delta("kv", FrameOptions(kChunkCodecPrefix, /*delta=*/true));
  next.SerializeDirtyRecords([&](uint64_t h, const uint8_t* pl, size_t n,
                                 bool tomb) {
    if (tomb) {
      delta.AddTombstone(h, pl, n);
    } else {
      delta.AddRecord(h, pl, n);
    }
  });
  next.EndCheckpoint();
  next.ResolveEpoch(true);
  auto delta_chunk = std::move(delta).Finish();

  KeyedDict<int64_t, int64_t> restored;
  for (const auto& c : base_chunks) {
    ASSERT_TRUE(RestoreChunk(restored, c).ok());
  }
  ASSERT_TRUE(RestoreChunk(restored, delta_chunk).ok());
  EXPECT_EQ(restored.Size(), 99u);
  EXPECT_EQ(restored.Get(7), 700);
  EXPECT_FALSE(restored.Contains(13));
  EXPECT_EQ(restored.Get(42), 42);
}

}  // namespace
}  // namespace sdg::state
