// Two-process cluster wordcount over the TCP transport (docs/runtime.md).
//
//   cluster_wordcount --role receiver --port P --snapshot FILE
//   cluster_wordcount --role sender   --port P --lines N [--batch B]
//
// The receiver hosts the wordcount deployment behind a net::ChannelServer:
// wire batches flow through Deployment::InjectRemote into the same batched
// dispatch as local traffic. Durability is snapshot + watermark: a periodic
// checkpoint pauses ingest, drains the pipeline, serialises the "counts" SE
// instances plus the highest received timestamp to FILE (tmp + rename), and
// only then broadcasts the watermark as an ack — so the sender's
// OutputBuffer retains exactly what a crash of this process could lose.
// Kill the receiver (even SIGKILL) and restart it on the same port: it
// restores FILE, hands the watermark to reconnecting senders, and their
// replay re-delivers everything past it, losing nothing and (thanks to the
// watermark filter) double-counting nothing.
//
// The sender stamps monotone timestamps, delivers through net::RemoteChannel
// (log-before-send) over a net::MuxPool connection, and exits 0 only once
// every line is durably acknowledged. scripts/net_smoke.sh drives the
// kill/restart scenario.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/wordcount.h"
#include "src/checkpoint/epoch_tail.h"
#include "src/common/clock.h"
#include "src/common/serialize.h"
#include "src/net/channel_server.h"
#include "src/net/mux.h"
#include "src/net/remote_channel.h"
#include "src/runtime/cluster.h"
#include "src/state/chunk.h"
#include "src/state/codec.h"
#include "src/state/keyed_dict.h"

namespace {

using sdg::BinaryReader;
using sdg::BinaryWriter;
using sdg::LogicalClock;
using sdg::Tuple;
using sdg::Value;

constexpr uint32_t kSnapshotMagic = 0x53444757;  // "SDGW"
constexpr uint32_t kCountPartitions = 2;

struct Args {
  std::string role;
  uint16_t port = 7001;
  std::string snapshot = "/tmp/cluster_wordcount.snap";
  uint64_t lines = 2000;
  size_t batch = 64;
  int ckpt_interval_ms = 300;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--role") {
      a.role = value;
    } else if (flag == "--port") {
      a.port = static_cast<uint16_t>(std::stoi(value));
    } else if (flag == "--snapshot") {
      a.snapshot = value;
    } else if (flag == "--lines") {
      a.lines = std::stoull(value);
    } else if (flag == "--batch") {
      a.batch = std::stoull(value);
    } else if (flag == "--ckpt-interval-ms") {
      a.ckpt_interval_ms = std::stoi(value);
    }
  }
  return a;
}

// Snapshot file: magic, watermark, then per "counts" instance its chunk blobs.
bool WriteSnapshot(const std::string& path, uint64_t watermark,
                   const std::vector<std::vector<std::vector<uint8_t>>>& per_instance) {
  BinaryWriter w;
  w.Write<uint32_t>(kSnapshotMagic);
  w.Write<uint64_t>(watermark);
  w.Write<uint64_t>(per_instance.size());
  for (const auto& chunks : per_instance) {
    w.Write<uint64_t>(chunks.size());
    for (const auto& chunk : chunks) {
      w.WriteVector(chunk);
    }
  }
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  size_t written = std::fwrite(w.data(), 1, w.size(), f);
  std::fflush(f);
  std::fclose(f);
  if (written != w.size()) {
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

bool ReadSnapshot(const std::string& path, uint64_t* watermark,
                  std::vector<std::vector<std::vector<uint8_t>>>* per_instance) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  BinaryReader r(bytes);
  auto magic = r.Read<uint32_t>();
  if (!magic.ok() || *magic != kSnapshotMagic) {
    return false;
  }
  auto wm = r.Read<uint64_t>();
  auto num_inst = r.Read<uint64_t>();
  if (!wm.ok() || !num_inst.ok()) {
    return false;
  }
  per_instance->clear();
  for (uint64_t i = 0; i < *num_inst; ++i) {
    auto num_chunks = r.Read<uint64_t>();
    if (!num_chunks.ok()) {
      return false;
    }
    std::vector<std::vector<uint8_t>> chunks;
    for (uint64_t c = 0; c < *num_chunks; ++c) {
      auto chunk = r.ReadVector<uint8_t>();
      if (!chunk.ok()) {
        return false;
      }
      chunks.push_back(std::move(*chunk));
    }
    per_instance->push_back(std::move(chunks));
  }
  *watermark = *wm;
  return true;
}

int RunReceiver(const Args& args) {
  sdg::apps::WordCountOptions wc;
  wc.count_partitions = kCountPartitions;
  auto g = sdg::apps::BuildWordCountSdg(wc);
  if (!g.ok()) {
    std::fprintf(stderr, "build sdg: %s\n", g.status().ToString().c_str());
    return 1;
  }
  sdg::runtime::ClusterOptions copts;
  copts.num_nodes = 2;
  sdg::runtime::Cluster cluster(copts);
  auto d = cluster.Deploy(std::move(*g));
  if (!d.ok()) {
    std::fprintf(stderr, "deploy: %s\n", d.status().ToString().c_str());
    return 1;
  }

  // Restore the previous incarnation's snapshot, if any.
  uint64_t durable_w = 0;
  std::vector<std::vector<std::vector<uint8_t>>> restored;
  if (ReadSnapshot(args.snapshot, &durable_w, &restored)) {
    for (uint32_t i = 0; i < restored.size() && i < kCountPartitions; ++i) {
      auto* backend = (*d)->StateInstance("counts", i);
      for (const auto& chunk : restored[i]) {
        auto st = sdg::state::RestoreChunk(*backend, chunk);
        if (!st.ok()) {
          std::fprintf(stderr, "restore: %s\n", st.ToString().c_str());
          return 1;
        }
      }
    }
    std::fprintf(stderr, "restored snapshot w=%llu\n",
                 static_cast<unsigned long long>(durable_w));
  }

  // Ingest state shared between the wire and the checkpointer. The mutex
  // gates ingest: while a checkpoint holds it, on_batch blocks on the
  // stream's dispatch entity, whose credit window backpressures the wire.
  std::mutex ingest_mu;
  uint64_t received_w = durable_w;

  sdg::net::ChannelServer server(sdg::net::ChannelServerOptions{args.port});
  auto started = server.Start(
      [&](const sdg::net::Handshake&) -> sdg::Result<uint64_t> {
        std::lock_guard<std::mutex> lock(ingest_mu);
        return durable_w;
      },
      [&](const sdg::net::Handshake& hs,
          std::vector<sdg::runtime::DataItem> items) {
        std::lock_guard<std::mutex> lock(ingest_mu);
        // Items at or below the restored watermark are already reflected in
        // the restored state; a fresh deployment has no last-seen record of
        // them, so they must be filtered here.
        std::vector<sdg::runtime::DataItem> fresh;
        fresh.reserve(items.size());
        for (auto& item : items) {
          if (item.ts <= durable_w && item.replayed) {
            continue;
          }
          received_w = std::max(received_w, item.ts);
          fresh.push_back(std::move(item));
        }
        if (fresh.empty()) {
          return;
        }
        auto st = (*d)->InjectRemote(hs.entry, std::move(fresh));
        if (!st.ok()) {
          std::fprintf(stderr, "inject: %s\n", st.ToString().c_str());
        }
      });
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %u\n", server.port());
  std::fflush(stdout);

  // Checkpoint loop: pause ingest, drain, serialise state + watermark, make
  // it durable, then (and only then) ack the senders.
  for (;;) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(args.ckpt_interval_ms));
    uint64_t w;
    uint64_t words = 0;
    {
      std::lock_guard<std::mutex> lock(ingest_mu);
      if (received_w == durable_w) {
        continue;  // nothing new since the last checkpoint
      }
      w = received_w;
      (*d)->Drain();  // everything received is now applied to the SEs
      std::vector<std::vector<std::vector<uint8_t>>> per_instance;
      bool serialized = true;
      for (uint32_t i = 0; i < kCountPartitions; ++i) {
        auto* backend = (*d)->StateInstance("counts", i);
        auto blobs = sdg::checkpoint::SerializeEpochBlobs(
            *backend, "counts", /*num_chunks=*/1, /*delta=*/false,
            sdg::state::kChunkCodecNone);
        serialized = blobs.ok();
        if (!serialized) {
          break;
        }
        per_instance.push_back(std::move(*blobs));
        auto* dict =
            sdg::state::StateAs<sdg::state::KeyedDict<std::string, int64_t>>(
                backend);
        dict->ForEach([&](const std::string&, const int64_t& v) {
          words += static_cast<uint64_t>(v);
        });
      }
      if (!serialized || !WriteSnapshot(args.snapshot, w, per_instance)) {
        std::fprintf(stderr, "snapshot write failed\n");
        continue;  // do NOT ack: senders keep the entries
      }
      durable_w = w;
    }
    server.Ack(w);
    std::printf("CKPT w=%llu words=%llu\n",
                static_cast<unsigned long long>(w),
                static_cast<unsigned long long>(words));
    std::fflush(stdout);
  }
}

int RunSender(const Args& args) {
  sdg::runtime::OutputBuffer log;
  sdg::net::MuxConnection::Options mopts;
  mopts.deployment_id = 1;
  sdg::net::MuxPool pool(mopts);
  sdg::net::RemoteChannelOptions opts;
  opts.port = args.port;
  opts.entry = "line";
  opts.deployment_id = 1;
  opts.reconnect_attempts = 300;
  opts.reconnect_backoff_ms = 100;
  opts.mux = &pool;
  sdg::net::RemoteChannel chan(opts, &log);
  auto st = chan.Connect();
  if (!st.ok()) {
    std::fprintf(stderr, "connect: %s\n", st.ToString().c_str());
    return 1;
  }

  LogicalClock clock;
  uint64_t sent = 0;
  while (sent < args.lines) {
    std::vector<sdg::runtime::DataItem> batch;
    size_t count = std::min<uint64_t>(args.batch, args.lines - sent);
    for (size_t i = 0; i < count; ++i) {
      sdg::runtime::DataItem item;
      item.from =
          sdg::runtime::SourceId{sdg::runtime::kRemoteSourceTask, 0};
      item.ts = clock.Next();
      // Two words per line: a spread key and a shared hot key, so the final
      // count of "common" equals the number of lines delivered exactly once.
      item.payload = Tuple{Value("w" + std::to_string(sent + i) + " common")};
      batch.push_back(std::move(item));
    }
    size_t accepted = chan.DeliverAll(std::move(batch));
    if (accepted != count) {
      std::fprintf(stderr, "delivery failed at line %llu\n",
                   static_cast<unsigned long long>(sent));
      return 1;
    }
    sent += count;
  }

  // Exit only when every line is durable at the receiver (acked), riding out
  // receiver restarts via reconnect-replay.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (chan.UnackedCount() > 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "timed out with %zu unacked\n", chan.UnackedCount());
      return 1;
    }
    if (!chan.connected()) {
      // The receiver died after the send loop finished; nothing else will
      // touch the channel, so the drain loop owns the redial. Connect() is
      // idempotent on a live channel and replays past the ack watermark the
      // restarted receiver reports in its open-ack.
      (void)chan.Connect();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("SENDER DONE lines=%llu words=%llu\n",
              static_cast<unsigned long long>(args.lines),
              static_cast<unsigned long long>(args.lines * 2));
  std::fflush(stdout);
  chan.Close();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (args.role == "receiver") {
    return RunReceiver(args);
  }
  if (args.role == "sender") {
    return RunSender(args);
  }
  std::fprintf(stderr,
               "usage: %s --role receiver|sender [--port P] [--snapshot FILE] "
               "[--lines N] [--batch B]\n",
               argv[0]);
  return 2;
}
