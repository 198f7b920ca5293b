// Checkpoint data-path microbench (BENCH_checkpoint.json).
//
// Two comparisons on a KV deployment whose dict holds `keys` string records:
//
//  1. Delta vs full epoch bytes at a 1% update rate: after a full base, each
//     epoch rewrites 1% of the keys; a delta epoch persists only those
//     records (plus tombstones), a full epoch rewrites everything. Reports
//     bytes/epoch for both and the full/delta ratio (the headline win of
//     incremental checkpointing).
//
//  2. The same comparison for an elastic worker's epochs: the first
//     checkpoint is each partition's base, every later one a delta link of
//     its durable chain. Reports the chunk bytes of the base epoch and of
//     each chained delta epoch and their ratio within the run.
//
//  3. Streaming checkpoint wall time under a per-backup-node write throttle
//     that models the paper's disk-bound regime: the checkpoint overlaps
//     SerializeRecords with backup I/O segment-by-segment. Also reports the
//     foreground ingest rate measured while the checkpoint runs (async-local
//     checkpoints must not dent it).
//
// Short mode: SDG_BENCH_SCALE=0.05 (CI smoke) — this bench is sized by state
// volume, so the scale knob is the one that shortens it.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/apps/kv.h"
#include "src/checkpoint/backup_store.h"
#include "src/graph/sdg.h"
#include "src/runtime/cluster.h"
#include "src/runtime/elastic.h"
#include "src/state/codec.h"
#include "src/state/keyed_dict.h"

namespace sdg::bench {
namespace {

using state::KeyedDict;
using state::StateAs;
using StrDict = KeyedDict<int64_t, std::string>;

constexpr size_t kValueBytes = 200;
constexpr uint32_t kChunks = 8;

Result<graph::Sdg> BuildKvGraph() {
  graph::SdgBuilder b;
  auto dict = b.AddState("dict", graph::StateDistribution::kPartitioned,
                         [] { return std::make_unique<StrDict>(); });
  auto put = b.AddEntryTask("put", [](const Tuple& in, graph::TaskContext& ctx) {
    StateAs<StrDict>(ctx.state())->Put(in[0].AsInt(), in[1].AsString());
  });
  (void)b.SetAccess(put, dict, graph::AccessMode::kPartitioned);
  return std::move(b).Build();
}

runtime::ClusterOptions MakeOptions(const std::filesystem::path& dir,
                                    uint32_t delta_interval,
                                    uint64_t throttle_bytes_per_sec) {
  runtime::ClusterOptions o;
  o.num_nodes = 1;
  o.mailbox_capacity = 1 << 15;
  o.fault_tolerance.mode = runtime::FtMode::kAsyncLocal;
  o.fault_tolerance.checkpoint_interval_s = 0;  // bench-driven
  o.fault_tolerance.chunks_per_state = kChunks;
  o.fault_tolerance.delta_epoch_interval = delta_interval;
  o.fault_tolerance.chunk_codec = state::kChunkCodecPrefix;
  o.fault_tolerance.store.root = dir;
  o.fault_tolerance.store.num_backup_nodes = 2;
  o.fault_tolerance.store.io_threads = 2;
  o.fault_tolerance.store.throttle_bytes_per_sec = throttle_bytes_per_sec;
  return o;
}

std::string MakeValue(int64_t key, int rev) {
  std::string v(kValueBytes, 'v');
  // A distinct tail per (key, rev) so epochs genuinely change the record.
  std::string tag = std::to_string(key) + ":" + std::to_string(rev);
  v.replace(0, std::min(tag.size(), v.size()), tag);
  return v;
}

void LoadKeys(runtime::Deployment& d, int64_t keys, int rev) {
  std::vector<Tuple> batch;
  for (int64_t k = 0; k < keys; ++k) {
    batch.push_back(Tuple{Value(k), Value(MakeValue(k, rev))});
    if (batch.size() == 512 || k + 1 == keys) {
      (void)d.InjectAll("put", std::move(batch));
      batch.clear();
    }
  }
  d.Drain();
}

void UpdateSample(runtime::Deployment& d, int64_t keys, double rate, int rev,
                  std::mt19937_64& rng) {
  const int64_t count = std::max<int64_t>(1, keys * rate);
  std::vector<Tuple> batch;
  for (int64_t i = 0; i < count; ++i) {
    int64_t k = static_cast<int64_t>(rng() % keys);
    batch.push_back(Tuple{Value(k), Value(MakeValue(k, rev))});
  }
  (void)d.InjectAll("put", std::move(batch));
  d.Drain();
}

struct EpochCost {
  double bytes_per_epoch = 0;
  double records_per_epoch = 0;
  double wall_ms = 0;
};

// Loads `keys`, writes a full base, then runs `epochs` epochs each updating
// `rate` of the keys, and averages their cost. delta_interval 0 = every
// epoch full (control).
EpochCost MeasureEpochs(const std::string& tag, int64_t keys, double rate,
                        int epochs, uint32_t delta_interval) {
  auto dir = FreshBenchDir("ckpt_" + tag);
  auto g = BuildKvGraph();
  runtime::Cluster cluster(MakeOptions(dir, delta_interval, /*throttle=*/0));
  auto d = cluster.Deploy(std::move(*g));
  LoadKeys(**d, keys, /*rev=*/0);
  (void)(*d)->CheckpointNode(0);  // base (always full)

  std::mt19937_64 rng(42);
  auto before = (*d)->CheckpointStatsSnapshot();
  double wall_ms = 0;
  for (int e = 0; e < epochs; ++e) {
    UpdateSample(**d, keys, rate, /*rev=*/e + 1, rng);
    Stopwatch timer;
    (void)(*d)->CheckpointNode(0);
    wall_ms += timer.ElapsedSeconds() * 1e3;
  }
  auto after = (*d)->CheckpointStatsSnapshot();
  EpochCost c;
  c.bytes_per_epoch =
      static_cast<double>(after.bytes_written - before.bytes_written) / epochs;
  c.records_per_epoch =
      static_cast<double>((after.records_full + after.records_delta) -
                          (before.records_full + before.records_delta)) /
      epochs;
  c.wall_ms = wall_ms / epochs;
  (*d)->Shutdown();
  std::filesystem::remove_all(dir);
  return c;
}

struct WorkerEpochs {
  double full_bytes = 0;
  double delta_bytes = 0;  // per chained delta epoch
  double delta_wall_ms = 0;
};

// Chunk bytes of member 1's chain link `link` for SE instance `sm`.
uint64_t LinkBytes(const std::filesystem::path& backup,
                   const checkpoint::StateInstanceMeta& sm,
                   const checkpoint::ChainLink& link) {
  const std::string prefix =
      "node1_epoch" + std::to_string(link.epoch) + "_" +
      checkpoint::StateChunkName(sm.state, sm.instance) + "_chunk";
  uint64_t bytes = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(backup, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec) &&
        it->path().filename().string().rfind(prefix, 0) == 0) {
      bytes += it->file_size(ec);
    }
  }
  return bytes;
}

// Member 1's latest meta in the store under `backup`.
checkpoint::CheckpointMeta LatestMeta(const std::filesystem::path& backup) {
  checkpoint::BackupStoreOptions o;
  o.root = backup;
  checkpoint::BackupStore store(o);
  auto epoch = store.LatestEpoch(1);
  if (!epoch.ok()) {
    return {};
  }
  auto meta = store.ReadMeta(1, *epoch);
  return meta.ok() ? *meta : checkpoint::CheckpointMeta{};
}

// An elastic worker (4 partitions, assigned by an in-process head) loaded
// with `keys`, checkpointed once (the base), then `epochs` times after
// updating `rate` of the keys each.
WorkerEpochs MeasureWorkerEpochs(int64_t keys, double rate, int epochs) {
  constexpr uint32_t kPartitions = 4;
  auto dir = FreshBenchDir("ckpt_worker");
  const std::string backup = (dir / "backup").string();
  elastic::ElasticHeadOptions h;
  h.state = "store";
  h.partitions = kPartitions;
  h.entries = {"put", "del"};
  h.backup_root = backup;
  elastic::ElasticHead head(std::move(h));
  apps::KvOptions kv;
  kv.partitions = kPartitions;
  auto g = apps::BuildKvSdg(kv);
  WorkerEpochs out;
  if (!g.ok() || !head.Start().ok()) {
    std::fprintf(stderr, "worker epochs: set-up failed\n");
    return out;
  }
  elastic::ElasticWorkerOptions w;
  w.member_id = 1;
  w.head_port = head.port();
  w.state = "store";
  w.partitions = kPartitions;
  w.entries = {"put", "del"};
  w.backup_root = backup;
  elastic::ElasticWorker worker(std::move(*g), std::move(w));
  if (!worker.Start().ok() || !worker.WaitJoined(20000) ||
      !head.WaitForAssignment(20000)) {
    std::fprintf(stderr, "worker epochs: worker never joined\n");
    return out;
  }
  runtime::Deployment& d = *worker.deployment();
  LoadKeys(d, keys, /*rev=*/0);
  (void)worker.Checkpoint();  // outgrows the empty bases cut at assignment
  for (const auto& sm : LatestMeta(backup).states) {
    out.full_bytes +=
        static_cast<double>(LinkBytes(backup, sm, sm.chain.front()));
  }
  std::mt19937_64 rng(42);
  for (int e = 0; e < epochs; ++e) {
    UpdateSample(d, keys, rate, /*rev=*/e + 1, rng);
    Stopwatch timer;
    (void)worker.Checkpoint();
    out.delta_wall_ms += timer.ElapsedSeconds() * 1e3 / epochs;
    for (const auto& sm : LatestMeta(backup).states) {
      out.delta_bytes +=
          static_cast<double>(LinkBytes(backup, sm, sm.chain.back())) /
          epochs;
    }
  }
  worker.Stop();
  head.Stop();
  std::filesystem::remove_all(dir);
  return out;
}

struct CkptRun {
  double wall_ms = 0;
  double items_per_sec_during = 0;
};

// Loads `keys`, then checkpoints while a foreground injector keeps writing;
// reports checkpoint wall time and the foreground rate during it.
CkptRun MeasureCheckpointWall(const std::string& tag, int64_t keys,
                              uint64_t throttle) {
  auto dir = FreshBenchDir("ckpt_" + tag);
  auto g = BuildKvGraph();
  runtime::Cluster cluster(MakeOptions(dir, /*delta_interval=*/0, throttle));
  auto d = cluster.Deploy(std::move(*g));
  LoadKeys(**d, keys, /*rev=*/0);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> injected{0};
  std::thread fg([&] {
    std::mt19937_64 rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      if (Backpressure(**d)) {
        continue;
      }
      int64_t k = static_cast<int64_t>(rng() % keys);
      if ((*d)->Inject("put", Tuple{Value(k), Value(MakeValue(k, 99))}).ok()) {
        injected.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  Stopwatch timer;
  uint64_t fg_before = injected.load();
  (void)(*d)->CheckpointNode(0);
  double wall_s = timer.ElapsedSeconds();
  uint64_t fg_during = injected.load() - fg_before;
  stop = true;
  fg.join();
  (*d)->Drain();

  CkptRun r;
  r.wall_ms = wall_s * 1e3;
  r.items_per_sec_during = wall_s > 0 ? fg_during / wall_s : 0;
  (*d)->Shutdown();
  std::filesystem::remove_all(dir);
  return r;
}

}  // namespace
}  // namespace sdg::bench

int main() {
  using namespace sdg::bench;

  const int64_t keys =
      std::max<int64_t>(2000, static_cast<int64_t>(100000 * Scale()));
  const int epochs = 3;
  // Per-backup-node write cap modelling the disk-bound regime; sized so the
  // write leg is comparable to serialisation and the overlap is visible.
  const uint64_t throttle = 200ull << 20;  // 200 MiB/s per backup node

  PrintHeader("micro_ckpt", "checkpoint data path: delta epochs + streaming");
  std::printf("  keys=%lld value_bytes=%zu chunks=%u\n",
              static_cast<long long>(keys), kValueBytes, kChunks);

  BenchJson json;

  // Full-epoch cost is the whole state regardless of update rate; measure it
  // once at 1% as the baseline for every delta rate.
  auto full = MeasureEpochs("full", keys, 0.01, epochs, /*delta_interval=*/0);
  std::printf("  full epoch:            %10.0f bytes/epoch  %8.0f records"
              "  %7.1f ms\n",
              full.bytes_per_epoch, full.records_per_epoch, full.wall_ms);
  json.BeginRow();
  json.Add("config", std::string("full_epoch"));
  json.Add("keys", static_cast<uint64_t>(keys));
  json.Add("hw_threads", HwThreads());
  json.Add("bytes_per_epoch", full.bytes_per_epoch);
  json.Add("records_per_epoch", full.records_per_epoch);
  json.Add("wall_ms", full.wall_ms);

  for (double rate : {0.01, 0.10, 0.50}) {
    auto delta = MeasureEpochs("delta", keys, rate, epochs,
                               /*delta_interval=*/1u << 20);
    double ratio = delta.bytes_per_epoch > 0
                       ? full.bytes_per_epoch / delta.bytes_per_epoch
                       : 0;
    std::printf("  delta epoch (%4.0f%%):   %10.0f bytes/epoch  %8.0f records"
                "  %7.1f ms  (full/delta bytes: %.1fx)\n",
                rate * 100, delta.bytes_per_epoch, delta.records_per_epoch,
                delta.wall_ms, ratio);
    json.BeginRow();
    json.Add("config",
             "delta_epoch_" + std::to_string(static_cast<int>(rate * 100)) +
                 "pct");
    json.Add("keys", static_cast<uint64_t>(keys));
    json.Add("hw_threads", HwThreads());
    json.Add("update_rate", rate);
    json.Add("bytes_per_epoch", delta.bytes_per_epoch);
    json.Add("records_per_epoch", delta.records_per_epoch);
    json.Add("wall_ms", delta.wall_ms);
    json.Add("full_over_delta_bytes", ratio);
  }

  auto worker = MeasureWorkerEpochs(keys, 0.01, epochs);
  const double worker_ratio =
      worker.delta_bytes > 0 ? worker.full_bytes / worker.delta_bytes : 0;
  std::printf("  worker epoch (1%%):     %10.0f bytes base  %10.0f bytes/delta"
              "  %7.1f ms  (full/delta bytes: %.1fx)\n",
              worker.full_bytes, worker.delta_bytes, worker.delta_wall_ms,
              worker_ratio);
  json.BeginRow();
  json.Add("config", std::string("worker_epoch_1pct"));
  json.Add("keys", static_cast<uint64_t>(keys));
  json.Add("hw_threads", HwThreads());
  json.Add("update_rate", 0.01);
  json.Add("full_bytes_per_epoch", worker.full_bytes);
  json.Add("delta_bytes_per_epoch", worker.delta_bytes);
  json.Add("delta_wall_ms", worker.delta_wall_ms);
  json.Add("worker_full_over_delta_bytes", worker_ratio);

  auto stream = MeasureCheckpointWall("stream", keys, throttle);
  std::printf("  streaming:    %7.1f ms  fg %8.0f items/s during ckpt\n",
              stream.wall_ms, stream.items_per_sec_during);
  json.BeginRow();
  json.Add("config", std::string("streaming_ckpt"));
  json.Add("keys", static_cast<uint64_t>(keys));
  json.Add("hw_threads", HwThreads());
  json.Add("throttle_mib_s", static_cast<uint64_t>(throttle >> 20));
  json.Add("wall_ms", stream.wall_ms);
  json.Add("items_per_sec_during", stream.items_per_sec_during);

  if (json.WriteFile("BENCH_checkpoint.json")) {
    PrintNote("wrote BENCH_checkpoint.json");
  }
  return 0;
}
