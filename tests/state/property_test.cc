// Property-based tests: random operation sequences against reference models,
// with checkpoints interleaved at random points. These pin down the central
// state invariants of §5:
//   P1  the logical contents always equal the reference model, checkpoint or
//       not (dirty overlay transparency);
//   P2  a snapshot serialised during a checkpoint equals the model exactly as
//       it was at BeginCheckpoint (consistency);
//   P3  serialise -> chunk -> split(n) -> restore reproduces the state for
//       any chunk/split fan-out (m-to-n integrity).
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "src/checkpoint/epoch_tail.h"
#include "src/common/rng.h"
#include "src/state/chunk.h"
#include "src/state/codec.h"
#include "src/state/keyed_dict.h"
#include "src/state/sparse_matrix.h"
#include "src/state/vector_state.h"

namespace sdg::state {
namespace {

using Model = std::map<int64_t, int64_t>;

Model DictContents(const KeyedDict<int64_t, int64_t>& d) {
  Model m;
  d.ForEach([&](int64_t k, int64_t v) { m[k] = v; });
  return m;
}

Model RestoreToModel(const KeyedDict<int64_t, int64_t>& d) {
  KeyedDict<int64_t, int64_t> copy;
  d.SerializeRecords([&](uint64_t, const uint8_t* p, size_t n) {
    EXPECT_TRUE(copy.RestoreRecord(p, n).ok());
  });
  Model m;
  copy.ForEach([&](int64_t k, int64_t v) { m[k] = v; });
  return m;
}

class DictPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DictPropertyTest, RandomOpsWithCheckpointsMatchModel) {
  Rng rng(GetParam());
  KeyedDict<int64_t, int64_t> dict;
  Model model;
  std::optional<Model> snapshot_at_begin;

  constexpr int kOps = 4000;
  for (int i = 0; i < kOps; ++i) {
    uint64_t roll = rng.NextBounded(100);
    int64_t key = static_cast<int64_t>(rng.NextBounded(200));
    if (roll < 45) {
      int64_t value = static_cast<int64_t>(rng.NextBounded(1000));
      dict.Put(key, value);
      model[key] = value;
    } else if (roll < 60) {
      dict.Erase(key);
      model.erase(key);
    } else if (roll < 75) {
      dict.Update(key, [](int64_t v) { return v + 1; });
      model[key] += 1;
    } else if (roll < 85) {
      // P1: point reads agree with the model.
      auto got = dict.Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_FALSE(got.has_value()) << "key " << key << " op " << i;
      } else {
        ASSERT_TRUE(got.has_value()) << "key " << key << " op " << i;
        EXPECT_EQ(*got, it->second) << "key " << key << " op " << i;
      }
    } else if (roll < 92) {
      if (!dict.checkpoint_active()) {
        dict.BeginCheckpoint();
        snapshot_at_begin = model;  // what the snapshot must contain (P2)
      }
    } else {
      if (dict.checkpoint_active()) {
        // P2: the serialised snapshot equals the model at Begin time.
        EXPECT_EQ(RestoreToModel(dict), *snapshot_at_begin) << "op " << i;
        dict.EndCheckpoint();
        snapshot_at_begin.reset();
        // P1 after consolidation.
        EXPECT_EQ(DictContents(dict), model) << "op " << i;
      }
    }
  }
  if (dict.checkpoint_active()) {
    dict.EndCheckpoint();
  }
  EXPECT_EQ(DictContents(dict), model);
  EXPECT_EQ(dict.Size(), model.size());
}

TEST_P(DictPropertyTest, ChunkSplitRestoreIdentity) {
  Rng rng(GetParam() ^ 0xc0ffee);
  KeyedDict<int64_t, int64_t> dict;
  Model model;
  int entries = 100 + static_cast<int>(rng.NextBounded(900));
  for (int i = 0; i < entries; ++i) {
    int64_t k = static_cast<int64_t>(rng.NextBounded(100000));
    int64_t v = static_cast<int64_t>(rng.Next());
    dict.Put(k, v);
    model[k] = v;
  }
  uint32_t m = 1 + static_cast<uint32_t>(rng.NextBounded(6));
  uint32_t n = 1 + static_cast<uint32_t>(rng.NextBounded(6));

  // P3: m chunks, each split n ways, restored into n instances, reassembled.
  auto chunks = checkpoint::SerializeEpochBlobs(dict, "prop", m,
                                                /*delta=*/false,
                                                kChunkCodecPrefix);
  ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
  ASSERT_EQ(chunks->size(), m);
  std::vector<KeyedDict<int64_t, int64_t>> nodes(n);
  for (const auto& chunk : *chunks) {
    auto parts = SplitChunk(chunk, n);
    ASSERT_TRUE(parts.ok());
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(RestoreChunk(nodes[i], (*parts)[i]).ok());
    }
  }
  Model reassembled;
  uint64_t total = 0;
  for (auto& node : nodes) {
    total += node.Size();
    node.ForEach([&](int64_t k, int64_t v) { reassembled[k] = v; });
  }
  EXPECT_EQ(total, model.size()) << "m=" << m << " n=" << n
                                 << " (keys duplicated across nodes)";
  EXPECT_EQ(reassembled, model) << "m=" << m << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DictPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

class MatrixPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatrixPropertyTest, RandomOpsWithCheckpointsMatchModel) {
  Rng rng(GetParam());
  SparseMatrix matrix;
  std::map<std::pair<int64_t, int64_t>, double> model;

  constexpr int kOps = 2000;
  for (int i = 0; i < kOps; ++i) {
    uint64_t roll = rng.NextBounded(100);
    int64_t r = static_cast<int64_t>(rng.NextBounded(30));
    int64_t c = static_cast<int64_t>(rng.NextBounded(30));
    if (roll < 40) {
      double v = rng.NextDoubleIn(-10, 10);
      matrix.Set(r, c, v);
      model[{r, c}] = v;
    } else if (roll < 70) {
      matrix.Add(r, c, 1.0);
      model[{r, c}] += 1.0;
    } else if (roll < 85) {
      auto it = model.find({r, c});
      EXPECT_DOUBLE_EQ(matrix.Get(r, c),
                       it == model.end() ? 0.0 : it->second)
          << "op " << i;
    } else if (roll < 92) {
      if (!matrix.checkpoint_active()) {
        matrix.BeginCheckpoint();
      }
    } else {
      if (matrix.checkpoint_active()) {
        matrix.EndCheckpoint();
      }
    }
  }
  if (matrix.checkpoint_active()) {
    matrix.EndCheckpoint();
  }
  for (const auto& [rc, v] : model) {
    EXPECT_DOUBLE_EQ(matrix.Get(rc.first, rc.second), v);
  }
}

TEST_P(MatrixPropertyTest, MultiplyMatchesNaiveReference) {
  Rng rng(GetParam() ^ 0xabcd);
  SparseMatrix matrix;
  constexpr size_t kDim = 24;
  std::vector<std::vector<double>> dense(kDim, std::vector<double>(kDim, 0.0));
  for (int i = 0; i < 150; ++i) {
    auto r = static_cast<size_t>(rng.NextBounded(kDim));
    auto c = static_cast<size_t>(rng.NextBounded(kDim));
    double v = rng.NextDoubleIn(-5, 5);
    matrix.Set(static_cast<int64_t>(r), static_cast<int64_t>(c), v);
    dense[r][c] = v;
  }
  std::vector<double> x(kDim);
  for (auto& e : x) {
    e = rng.NextDoubleIn(-1, 1);
  }
  auto got = matrix.MultiplyDense(x, kDim);
  for (size_t r = 0; r < kDim; ++r) {
    double expected = 0;
    for (size_t c = 0; c < kDim; ++c) {
      expected += dense[r][c] * x[c];
    }
    EXPECT_NEAR(got[r], expected, 1e-9) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixPropertyTest,
                         ::testing::Values(7, 11, 17, 23, 31));

class VectorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VectorPropertyTest, RandomOpsWithCheckpointsMatchModel) {
  Rng rng(GetParam());
  VectorState vec;
  std::vector<double> model;

  constexpr int kOps = 2000;
  for (int i = 0; i < kOps; ++i) {
    uint64_t roll = rng.NextBounded(100);
    auto idx = static_cast<size_t>(rng.NextBounded(500));
    if (roll < 40) {
      double v = rng.NextDoubleIn(-10, 10);
      vec.Set(idx, v);
      if (idx >= model.size()) {
        model.resize(idx + 1, 0.0);
      }
      model[idx] = v;
    } else if (roll < 70) {
      vec.Add(idx, 0.5);
      if (idx >= model.size()) {
        model.resize(idx + 1, 0.0);
      }
      model[idx] += 0.5;
    } else if (roll < 85) {
      double expected = idx < model.size() ? model[idx] : 0.0;
      EXPECT_DOUBLE_EQ(vec.Get(idx), expected) << "op " << i;
    } else if (roll < 92) {
      if (!vec.checkpoint_active()) {
        vec.BeginCheckpoint();
      }
    } else {
      if (vec.checkpoint_active()) {
        vec.EndCheckpoint();
      }
    }
  }
  if (vec.checkpoint_active()) {
    vec.EndCheckpoint();
  }
  auto dense = vec.ToDense();
  ASSERT_EQ(dense.size(), model.size());
  for (size_t i = 0; i < model.size(); ++i) {
    EXPECT_DOUBLE_EQ(dense[i], model[i]) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorPropertyTest,
                         ::testing::Values(2, 4, 6, 10, 12));

}  // namespace
}  // namespace sdg::state
