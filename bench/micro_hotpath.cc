// Hot-path pipeline throughput microbench: items/sec through a two-hop
// dataflow (entry TE -> partitioned stateful TE) as the node count, the
// cross-node serialisation flag, the worker batch size and the fault-
// tolerance mode (upstream-backup logging + async checkpoints) vary. This is
// the repo's perf-trajectory anchor for the dataflow hot path: every item pays
// mailbox push/pop, in-flight accounting, routing and (optionally) a
// serialise/deserialise round trip, so the numbers move whenever those costs
// do. Each configuration runs `SDG_BENCH_REPS` times (default 3) and reports
// the best rate — on a shared/small machine the peak is the stable statistic,
// the mean just measures scheduler noise. Emits BENCH_hotpath.json next to
// the printed table, plus a within-run ratio row (fault tolerance on vs off)
// that carries across hosts where the absolute rates do not.
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/graph/sdg.h"
#include "src/runtime/cluster.h"
#include "src/state/keyed_dict.h"

namespace sdg::bench {
namespace {

using state::KeyedDict;
using state::StateAs;
using IntDict = KeyedDict<int64_t, int64_t>;

struct Config {
  std::string name;
  uint32_t nodes = 1;
  bool serialize = false;
  size_t max_batch = 256;    // worker mailbox drain limit
  size_t inject_chunk = 64;  // tuples per InjectAll call
  uint32_t instances = 4;    // materialised `count` instances
  runtime::FtMode ft = runtime::FtMode::kNone;
};

int Reps() {
  const char* env = std::getenv("SDG_BENCH_REPS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v > 0) {
      return v;
    }
  }
  return 3;
}

// feed (entry) --kPartitioned--> count (stateful, 4 partitions). Returns
// items/sec processed by the `count` stage.
double RunPipeline(const Config& cfg, double seconds) {
  graph::SdgBuilder b;
  auto dict = b.AddState("d", graph::StateDistribution::kPartitioned,
                         [] { return std::make_unique<IntDict>(); });
  auto feed = b.AddEntryTask("feed", [](const Tuple& in,
                                        graph::TaskContext& ctx) {
    ctx.Emit(0, in);
  });
  auto count = b.AddTask("count", [](const Tuple& in, graph::TaskContext& ctx) {
    StateAs<IntDict>(ctx.state())->Put(in[0].AsInt(), in[1].AsInt());
  });
  (void)b.SetAccess(count, dict, graph::AccessMode::kPartitioned);
  b.SetInitialInstances(count, cfg.instances);
  (void)b.Connect(feed, count, graph::Dispatch::kPartitioned, 0);
  auto g = std::move(b).Build();

  runtime::ClusterOptions o;
  o.num_nodes = cfg.nodes;
  o.serialize_cross_node = cfg.serialize;
  o.max_batch = cfg.max_batch;
  if (cfg.ft != runtime::FtMode::kNone) {
    // Periodic async checkpoints keep the upstream-backup logs trimmed.
    o.fault_tolerance.mode = cfg.ft;
    o.fault_tolerance.checkpoint_interval_s = 0.5;
    o.fault_tolerance.store.root = FreshBenchDir("hotpath_" + cfg.name);
    o.fault_tolerance.store.num_backup_nodes = 2;
  }
  runtime::Cluster cluster(o);
  auto d = cluster.Deploy(std::move(*g));

  Stopwatch timer;
  std::atomic<int64_t> key{0};
  DriveLoad(seconds, 1, [&](int) {
    if (Backpressure(**d, 8192)) {
      return false;
    }
    std::vector<Tuple> chunk;
    chunk.reserve(cfg.inject_chunk);
    for (size_t i = 0; i < cfg.inject_chunk; ++i) {
      int64_t k = key.fetch_add(1, std::memory_order_relaxed);
      chunk.push_back(Tuple{Value(k % 10000), Value(k)});
    }
    return (*d)->InjectAll("feed", std::move(chunk)).ok();
  });
  (*d)->Drain();
  double elapsed = timer.ElapsedSeconds();
  auto processed = static_cast<double>((*d)->ProcessedOf("count"));
  (*d)->Shutdown();
  if (cfg.ft != runtime::FtMode::kNone) {
    std::filesystem::remove_all(o.fault_tolerance.store.root);
  }
  return processed / elapsed;
}

double BestOf(int reps, const Config& cfg, double seconds) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    best = std::max(best, RunPipeline(cfg, seconds));
  }
  return best;
}

}  // namespace
}  // namespace sdg::bench

int main() {
  using namespace sdg::bench;
  const double seconds = MeasureSeconds(2.0);
  const int reps = Reps();
  PrintHeader("Hotpath", "pipeline items/sec vs nodes x serialisation x batch");

  // Main grid at the default batch size, then a batch-size sweep on the
  // heaviest configuration (4 nodes, serialised) down to max_batch = 1,
  // which reproduces strict item-at-a-time processing.
  std::vector<Config> configs = {
      {"1node_raw", 1, false},
      {"1node_ser", 1, true},
      {"4node_raw", 4, false},
      {"4node_ser", 4, true},
      // The same pipeline with upstream backup on: every routed item is
      // logged in its source's output buffer and deliveries flush once per
      // step-lock scope, as in the checkpointed wordcount.
      {"4node_ser_async", 4, true, /*max_batch=*/256, /*inject_chunk=*/64,
       /*instances=*/4, sdg::runtime::FtMode::kAsyncLocal},
      {"4node_ser_b1", 4, true, /*max_batch=*/1, /*inject_chunk=*/1},
      {"4node_ser_b8", 4, true, /*max_batch=*/8, /*inject_chunk=*/8},
      {"4node_ser_b64", 4, true, /*max_batch=*/64, /*inject_chunk=*/64},
      // Instance scaling on the shared fixed pool: the same two-hop pipeline
      // with the stateful stage materialised 64/256/1024-wide. Before the
      // executor this sweep was unrunnable (one thread per instance); now the
      // instances multiplex over hw_threads workers and the rows track the
      // scheduling overhead of an oversubscribed ready set.
      {"4node_ser_inst64", 4, true, 256, 64, /*instances=*/64},
      {"4node_ser_inst256", 4, true, 256, 64, /*instances=*/256},
      {"4node_ser_inst1024", 4, true, 256, 64, /*instances=*/1024},
  };

  BenchJson json;
  std::printf("%-22s %8s %10s %10s %10s %12s %16s\n", "config", "nodes",
              "serialize", "max_batch", "instances", "ft", "items/sec");
  std::map<std::string, double> rates;
  for (const auto& cfg : configs) {
    double rate = BestOf(reps, cfg, seconds);
    rates[cfg.name] = rate;
    const std::string ft(sdg::runtime::FtModeName(cfg.ft));
    std::printf("%-22s %8u %10s %10zu %10u %12s %16.0f\n", cfg.name.c_str(),
                cfg.nodes, cfg.serialize ? "on" : "off", cfg.max_batch,
                cfg.instances, ft.c_str(), rate);
    json.BeginRow();
    json.Add("config", cfg.name);
    json.Add("nodes", static_cast<uint64_t>(cfg.nodes));
    json.Add("serialize", std::string(cfg.serialize ? "on" : "off"));
    json.Add("max_batch", static_cast<uint64_t>(cfg.max_batch));
    json.Add("instances", static_cast<uint64_t>(cfg.instances));
    json.Add("ft", ft);
    json.Add("reps", static_cast<uint64_t>(reps));
    json.Add("hw_threads", HwThreads());
    json.Add("items_per_sec", rate);
  }
  // Throughput kept with upstream backup on, as a fraction of the same
  // pipeline without it (1.0 = fault tolerance is free on the hot path).
  const double ft_ratio = rates["4node_ser_async"] / rates["4node_ser"];
  std::printf("%-22s %.3f\n", "4node_ser_async/ser", ft_ratio);
  json.BeginRow();
  json.Add("config", std::string("4node_ser_async_over_ser"));
  json.Add("reps", static_cast<uint64_t>(reps));
  json.Add("hw_threads", HwThreads());
  json.Add("speedup_vs_4node_ser", ft_ratio);
  if (!json.WriteFile("BENCH_hotpath.json")) {
    std::printf("  warning: could not write BENCH_hotpath.json\n");
    return 1;
  }
  PrintNote("wrote BENCH_hotpath.json");
  return 0;
}
