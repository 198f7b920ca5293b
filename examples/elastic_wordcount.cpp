// Head-side driver for a live elastic scale-out demo (docs/runtime.md).
//
//   elastic_wordcount --backup DIR [--port P] [--lines N] [--partitions K]
//
// Run it with real worker processes (tools/elastic_worker):
//
//   term 1: elastic_wordcount --backup /tmp/ew --port 7500
//   term 2: elastic_worker --app wordcount --head-port 7500 --id 1 \
//             --backup /tmp/ew --slow-us 2000 --ckpt-interval-ms 0
//   term 3: elastic_worker --app wordcount --head-port 7500 --id 2 \
//             --backup /tmp/ew --ckpt-interval-ms 0
//
// The head assigns every count partition to the first worker that joins and
// starts injecting single-word lines. When the second worker joins, the
// management loop notices the load imbalance (the first worker's unacked
// backlog is pinned high while the newcomer's is empty) and sheds a
// partition to it — a live migration with a sub-frame pause, while the
// stream keeps flowing. The head then quiesces, checkpoints, and verifies
// the fleet's durable word counts against its own reference model by
// reading the shared backup store: nothing lost, nothing double-counted.
// scripts/net_smoke.sh drives this as the three-process scale-out smoke.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "src/checkpoint/backup_store.h"
#include "src/checkpoint/chunk_stream.h"
#include "src/runtime/elastic.h"
#include "src/state/keyed_dict.h"

namespace {

using sdg::Tuple;
using sdg::Value;

struct Args {
  uint16_t port = 0;  // 0 = ephemeral, printed on the HEAD line
  std::string backup;
  uint32_t partitions = 4;
  uint64_t lines = 4000;
  uint64_t vocab = 50;
  size_t backlog_high = 200;
  int scale_wait_ms = 30000;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --backup DIR [--port N] [--partitions N] "
               "[--lines N] [--vocab N] [--backlog-high N] "
               "[--scale-wait-ms N]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      args.port = static_cast<uint16_t>(std::atoi(need("--port")));
    } else if (std::strcmp(argv[i], "--backup") == 0) {
      args.backup = need("--backup");
    } else if (std::strcmp(argv[i], "--partitions") == 0) {
      args.partitions = static_cast<uint32_t>(std::atoi(need("--partitions")));
    } else if (std::strcmp(argv[i], "--lines") == 0) {
      args.lines = std::strtoull(need("--lines"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--vocab") == 0) {
      args.vocab = std::strtoull(need("--vocab"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--backlog-high") == 0) {
      args.backlog_high = std::strtoull(need("--backlog-high"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--scale-wait-ms") == 0) {
      args.scale_wait_ms = std::atoi(need("--scale-wait-ms"));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      Usage(argv[0]);
    }
  }
  if (args.backup.empty()) {
    Usage(argv[0]);
  }

  sdg::elastic::ElasticHeadOptions options;
  options.port = args.port;
  options.state = "counts";
  options.entries = {"line"};
  options.partitions = args.partitions;
  options.backup_root = args.backup;
  options.auto_scale = true;
  options.backlog_high = args.backlog_high;
  options.cooldown_ms = 500;
  options.monitor_interval_ms = 50;
  sdg::elastic::ElasticHead head(std::move(options));
  sdg::Status st = head.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("HEAD port=%u\n", static_cast<unsigned>(head.port()));
  std::fflush(stdout);

  if (!head.WaitForMembers(1, 30000) || !head.WaitForAssignment(30000)) {
    std::fprintf(stderr, "no worker joined\n");
    return 1;
  }
  std::printf("ASSIGNED partitions=%u\n", args.partitions);
  std::fflush(stdout);

  // Stream single-word lines (line hash == word hash, so head routing and
  // count partitioning agree) while recording the reference model.
  std::map<std::string, int64_t> model;
  for (uint64_t i = 0; i < args.lines; ++i) {
    std::string word = "w" + std::to_string(i % args.vocab);
    st = head.Inject(0, Tuple{Value(word)}, 60000);
    if (!st.ok()) {
      std::fprintf(stderr, "inject %llu: %s\n",
                   static_cast<unsigned long long>(i),
                   st.ToString().c_str());
      return 1;
    }
    model[word] += 1;
  }
  std::printf("INJECTED lines=%llu\n",
              static_cast<unsigned long long>(args.lines));
  std::fflush(stdout);

  // The unacked backlog stays pinned (workers only checkpoint when driven),
  // so as soon as a second worker joins, the management loop sheds a
  // partition to it. Wait for that live migration to complete.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(args.scale_wait_ms);
  while (head.migrations_completed() == 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "no scale-out migration within %d ms\n",
                   args.scale_wait_ms);
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::printf("MIGRATED n=%llu pause_ms=%lld\n",
              static_cast<unsigned long long>(head.migrations_completed()),
              static_cast<long long>(head.last_migration_pause_ms()));
  std::fflush(stdout);

  if (!head.AwaitQuiesce(60000)) {
    std::fprintf(stderr, "quiesce failed, %llu items unacked\n",
                 static_cast<unsigned long long>(head.UnackedTotal()));
    return 1;
  }
  st = head.CheckpointAll();
  if (!st.ok()) {
    std::fprintf(stderr, "checkpoint: %s\n", st.ToString().c_str());
    return 1;
  }

  // Verify the durable counts against the model by reading every
  // partition's chunks from its current owner's latest epoch. The fleet is
  // quiesced and nothing else checkpoints, so the store is static.
  sdg::checkpoint::BackupStoreOptions bso;
  bso.root = args.backup;
  sdg::checkpoint::BackupStore store(bso);
  std::map<std::string, int64_t> merged;
  for (uint32_t p = 0; p < args.partitions; ++p) {
    uint32_t owner = head.OwnerOf(p);
    if (owner == sdg::elastic::kNoOwner) {
      std::fprintf(stderr, "p%u has no owner after quiesce\n", p);
      return 1;
    }
    auto epoch = store.LatestEpoch(owner);
    if (!epoch.ok()) {
      std::fprintf(stderr, "m%u has no durable epoch\n", owner);
      return 1;
    }
    auto meta = store.ReadMeta(owner, *epoch);
    if (!meta.ok()) {
      std::fprintf(stderr, "meta m%u e%llu: %s\n", owner,
                   static_cast<unsigned long long>(*epoch),
                   meta.status().ToString().c_str());
      return 1;
    }
    sdg::state::KeyedDict<std::string, int64_t> dict;
    for (const auto& sm : meta->states) {
      if (sm.instance != p) {
        continue;
      }
      auto st = sdg::checkpoint::RestoreChain(store, owner, sm, dict);
      if (!st.ok()) {
        std::fprintf(stderr, "restore p%u: %s\n", p, st.ToString().c_str());
        return 1;
      }
    }
    dict.ForEach([&](const std::string& w, const int64_t& c) {
      merged[w] += c;
    });
  }
  if (merged != model) {
    std::fprintf(stderr, "COUNTS MISMATCH: %zu durable words vs %zu modeled\n",
                 merged.size(), model.size());
    return 1;
  }
  uint64_t mass = 0;
  for (const auto& [w, c] : merged) {
    mass += static_cast<uint64_t>(c);
  }
  std::printf("COUNTS OK words=%zu mass=%llu\n", merged.size(),
              static_cast<unsigned long long>(mass));
  return 0;
}
