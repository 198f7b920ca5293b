// Standalone elastic worker process: joins a running deployment's head and
// serves state partitions until told otherwise. The multi-process chaos
// harness (tests/harness/chaos_process_test.cc) and the scale-out smoke
// (scripts/net_smoke.sh) spawn this binary as the real-process half of the
// membership/migration tests.
//
//   elastic_worker --app kv --head-port 9000 --id 1 --backup /tmp/b \
//                  [--data-port 0] [--partitions 4] [--slow-us 0] \
//                  [--ckpt-interval-ms 0] [--crash-at migrate.base] [--name w1]
//
// Prints "READY port=<data port>" on stdout once joined (the parent learns
// the ephemeral port from it), then runs until SIGTERM/SIGINT. Crash points
// _Exit(41) from inside the migration machinery (see ElasticWorkerOptions).
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/apps/kv.h"
#include "src/apps/wordcount.h"
#include "src/common/logging.h"
#include "src/runtime/elastic.h"
#include "src/state/spill.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --app kv|wordcount --head-port N --id N --backup "
               "DIR [--head-host H] [--data-port N] [--partitions N] "
               "[--slow-us N] [--ckpt-interval-ms N] [--crash-at PHASE] "
               "[--name S] [--serve] [--spill-budget-kb N] "
               "[--spill-dir DIR] [--store-stripes N]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string app = "kv";
  bool serve = false;
  uint64_t spill_budget_kb = 0;
  std::string spill_dir;
  uint32_t store_stripes = 0;
  sdg::elastic::ElasticWorkerOptions options;
  options.partitions = 4;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--app") == 0) {
      app = need("--app");
    } else if (std::strcmp(argv[i], "--head-host") == 0) {
      options.head_host = need("--head-host");
    } else if (std::strcmp(argv[i], "--head-port") == 0) {
      options.head_port = static_cast<uint16_t>(std::atoi(need("--head-port")));
    } else if (std::strcmp(argv[i], "--data-port") == 0) {
      options.data_port = static_cast<uint16_t>(std::atoi(need("--data-port")));
    } else if (std::strcmp(argv[i], "--id") == 0) {
      options.member_id = static_cast<uint32_t>(std::atoi(need("--id")));
    } else if (std::strcmp(argv[i], "--backup") == 0) {
      options.backup_root = need("--backup");
    } else if (std::strcmp(argv[i], "--partitions") == 0) {
      options.partitions =
          static_cast<uint32_t>(std::atoi(need("--partitions")));
    } else if (std::strcmp(argv[i], "--slow-us") == 0) {
      options.slow_us = std::atoi(need("--slow-us"));
    } else if (std::strcmp(argv[i], "--ckpt-interval-ms") == 0) {
      options.checkpoint_interval_ms = std::atoi(need("--ckpt-interval-ms"));
    } else if (std::strcmp(argv[i], "--crash-at") == 0) {
      options.crash_at = need("--crash-at");
    } else if (std::strcmp(argv[i], "--name") == 0) {
      options.name = need("--name");
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    } else if (std::strcmp(argv[i], "--spill-budget-kb") == 0) {
      spill_budget_kb =
          static_cast<uint64_t>(std::atoll(need("--spill-budget-kb")));
    } else if (std::strcmp(argv[i], "--spill-dir") == 0) {
      spill_dir = need("--spill-dir");
    } else if (std::strcmp(argv[i], "--store-stripes") == 0) {
      store_stripes =
          static_cast<uint32_t>(std::atoi(need("--store-stripes")));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      Usage(argv[0]);
    }
  }
  if (options.head_port == 0 || options.member_id == 0 ||
      options.backup_root.empty()) {
    Usage(argv[0]);
  }
  if (options.name.empty()) {
    options.name = "w" + std::to_string(options.member_id);
  }
  // "spill.*" crash points live in the state layer, not the migration
  // machinery — arm them there and keep them out of ElasticWorkerOptions.
  if (options.crash_at.rfind("spill.", 0) == 0) {
    sdg::state::ArmSpillCrashPoint(options.crash_at);
    options.crash_at.clear();
  }

  sdg::Result<sdg::graph::Sdg> g =
      sdg::Status(sdg::StatusCode::kInvalidArgument, "unset");
  if (app == "kv") {
    sdg::apps::KvOptions kv;
    kv.partitions = options.partitions;
    if (spill_budget_kb > 0) {
      kv.spill_budget_bytes = spill_budget_kb * 1024;
      // Spill dirs are wiped on startup, so they must be process-private:
      // default to a member-scoped subtree of the backup root.
      kv.spill_dir = !spill_dir.empty()
                         ? spill_dir
                         : options.backup_root + "/spill-m" +
                               std::to_string(options.member_id);
      kv.store_stripes = store_stripes;
    }
    g = sdg::apps::BuildKvSdg(kv);
    options.state = "store";
    if (serve) {
      // Serve fleet: gets flow through the dataflow too (strong reads ride
      // user_tag to the "get" sink), and checkpoints feed the replica stream.
      // The entries list numbers source instances, so head and workers must
      // agree on it — plain fleets keep {"put", "del"}.
      options.entries = {"put", "get", "del"};
      options.serve_feed = true;
      options.forward_sinks = {"get"};
    } else {
      options.entries = {"put", "del"};
    }
  } else if (app == "wordcount") {
    sdg::apps::WordCountOptions wc;
    wc.count_partitions = options.partitions;
    g = sdg::apps::BuildWordCountSdg(wc);
    options.state = "counts";
    options.entries = {"line"};
  } else {
    std::fprintf(stderr, "unknown app %s\n", app.c_str());
    Usage(argv[0]);
  }
  if (!g.ok()) {
    std::fprintf(stderr, "build sdg: %s\n", g.status().ToString().c_str());
    return 1;
  }

  sdg::elastic::ElasticWorker worker(std::move(*g), std::move(options));
  sdg::Status st = worker.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return 1;
  }
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  if (!worker.WaitJoined(30000)) {
    std::fprintf(stderr, "never joined the head\n");
    worker.Stop();
    return 1;
  }
  std::printf("READY port=%u\n", static_cast<unsigned>(worker.data_port()));
  std::fflush(stdout);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  worker.Stop();
  std::printf("STOPPED ingested=%llu\n",
              static_cast<unsigned long long>(worker.ItemsIngested()));
  return 0;
}
