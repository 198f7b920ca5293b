// Loopback integration tests of the TCP transport: RemoteChannel senders on
// a MuxPool, ChannelServer receiver, upstream-backup trim on acks, the
// kill/restart reconnect-replay path (§5 as the transport's error path), and
// the read-interest backpressure of client peers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/graph/sdg.h"
#include "src/net/channel_server.h"
#include "src/net/connection.h"
#include "src/net/mux.h"
#include "src/net/remote_channel.h"
#include "src/runtime/cluster.h"

namespace sdg::net {
namespace {

using runtime::DataItem;
using runtime::OutputBuffer;

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 10000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

DataItem MakeItem(uint64_t ts, uint32_t instance = 0) {
  DataItem item;
  item.from = runtime::SourceId{runtime::kRemoteSourceTask, instance};
  item.ts = ts;
  item.payload = Tuple{Value(static_cast<int64_t>(ts))};
  return item;
}

std::vector<DataItem> MakeItems(uint64_t first_ts, uint64_t last_ts,
                                uint32_t instance = 0) {
  std::vector<DataItem> items;
  for (uint64_t ts = first_ts; ts <= last_ts; ++ts) {
    items.push_back(MakeItem(ts, instance));
  }
  return items;
}

TEST(ChannelTest, LoopbackDeliverAckTrim) {
  std::mutex mu;
  std::vector<uint64_t> received;
  ChannelServer server(ChannelServerOptions{});
  ASSERT_TRUE(server
                  .Start([](const Handshake&) { return uint64_t{0}; },
                         [&](const Handshake& hs, std::vector<DataItem> items) {
                           EXPECT_EQ(hs.entry, "t");
                           std::lock_guard<std::mutex> lock(mu);
                           for (const auto& item : items) {
                             received.push_back(item.ts);
                           }
                         })
                  .ok());

  MuxPool pool(MuxConnection::Options{});
  OutputBuffer log;
  RemoteChannelOptions opts;
  opts.port = server.port();
  opts.entry = "t";
  opts.mux = &pool;
  RemoteChannel chan(opts, &log);
  ASSERT_TRUE(chan.Connect().ok());
  ASSERT_TRUE(chan.connected());

  EXPECT_EQ(chan.DeliverAll(MakeItems(1, 50)), 50u);
  EXPECT_TRUE(chan.Deliver(MakeItem(51)));
  ASSERT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return received.size() == 51;
  }));
  {
    // Wire order is sender FIFO order.
    std::lock_guard<std::mutex> lock(mu);
    for (uint64_t i = 0; i < received.size(); ++i) {
      EXPECT_EQ(received[i], i + 1);
    }
  }

  // Everything is logged until the receiver acknowledges durability.
  EXPECT_EQ(chan.UnackedCount(), 51u);
  server.Ack(30);
  ASSERT_TRUE(WaitUntil([&] { return chan.UnackedCount() == 21; }));
  EXPECT_EQ(chan.acked_watermark(), 30u);
  server.Ack(51);
  ASSERT_TRUE(WaitUntil([&] { return chan.UnackedCount() == 0; }));

  chan.Close();
  server.Stop();
}

// Regression test for the read-interest backpressure protocol. Data streams
// are bounded by their credit windows, but client (and feed) peers still
// pause reads: a slow on_request lets the client's frame backlog repeatedly
// cross the pause watermark while the executor drains it back under the
// resume watermark, cycling pause/resume many times. A stale interest update
// losing the race (reads off while unpaused) wedges the peer permanently —
// the test then times out with requests missing.
TEST(ChannelTest, BackpressurePauseResumeStress) {
  constexpr uint64_t kRequests = 4000;
  std::atomic<uint64_t> received{0};
  std::atomic<bool> in_order{true};
  uint64_t next_id = 1;  // dispatch slices are serialized, no lock needed
  ChannelServer server(ChannelServerOptions{});
  ASSERT_TRUE(server
                  .Start([](const Handshake&) { return uint64_t{0}; },
                         [](const Handshake&, std::vector<DataItem>) {})
                  .ok());
  server.SetServeHandlers(
      [&](uint64_t, RequestMsg req) {
        if (req.request_id != next_id) {
          in_order.store(false);
        }
        ++next_id;
        uint64_t total = received.fetch_add(1) + 1;
        // Stall in bursts so the frame backlog climbs past the pause
        // watermark, then drains below resume.
        if (total % 64 < 8) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      },
      /*on_feed=*/nullptr);

  // A raw pipelining client: blocking writes, so once the server stops
  // reading, the kernel buffers fill and the writer stalls on TCP flow
  // control until reads resume.
  auto sock = Socket::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  RequestMsg req;
  req.op = kOpPut;
  req.value = std::string(512, 'v');
  for (uint64_t id = 1; id <= kRequests; ++id) {
    req.request_id = id;
    req.key = static_cast<int64_t>(id);
    ASSERT_TRUE(WriteFrameBlocking(*sock, FrameType::kRequest, req.Encode())
                    .ok())
        << "request " << id;
  }
  ASSERT_TRUE(WaitUntil([&] { return received.load() == kRequests; }, 30000))
      << "delivered " << received.load() << "/" << kRequests
      << " — read interest likely wedged off";
  EXPECT_TRUE(in_order.load());

  sock->Close();
  server.Stop();
}

TEST(ChannelTest, HandshakeRejectionSurfacesAsError) {
  ChannelServer server(ChannelServerOptions{});
  ASSERT_TRUE(server
                  .Start(
                      [](const Handshake& hs) -> Result<uint64_t> {
                        return InvalidArgumentError("unknown entry '" +
                                                    hs.entry + "'");
                      },
                      [](const Handshake&, std::vector<DataItem>) {})
                  .ok());
  MuxPool pool(MuxConnection::Options{});
  OutputBuffer log;
  RemoteChannelOptions opts;
  opts.port = server.port();
  opts.entry = "nope";
  opts.mux = &pool;
  opts.reconnect_attempts = 2;
  opts.reconnect_backoff_ms = 10;
  RemoteChannel chan(opts, &log);
  // The rejection arrives in the stream's kMuxOpenAck.
  Status s = chan.Connect();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("unknown entry 'nope'"), std::string::npos)
      << s.ToString();
  EXPECT_FALSE(chan.connected());
  server.Stop();
}

// Several channels share one pooled socket, each acked to its own
// watermark, then the receiver dies. After a restart on the same port, every
// channel must be back on ONE fresh socket (the pool drops the dead
// connection and redials once) and replay exactly its unacked suffix,
// marked replayed, with nothing at or below its watermark resent.
TEST(ChannelTest, ServerRestartReplaysExactlyTheUnacked) {
  constexpr uint32_t kChannels = 4;
  // Channel i is durable up to ts 3 + i of the 10 it sent.
  auto watermark_of = [](uint32_t instance) { return uint64_t{3} + instance; };

  // Receiver half 1: sees ts 1..10 on every channel, then dies.
  std::mutex mu;
  std::vector<std::set<uint64_t>> seen1(kChannels);
  auto server1 = std::make_unique<ChannelServer>(ChannelServerOptions{});
  ASSERT_TRUE(server1
                  ->Start([](const Handshake&) { return uint64_t{0}; },
                          [&](const Handshake& hs, std::vector<DataItem> items) {
                            std::lock_guard<std::mutex> lock(mu);
                            for (const auto& item : items) {
                              seen1[hs.source_instance].insert(item.ts);
                            }
                          })
                  .ok());
  uint16_t port = server1->port();

  MuxPool pool(MuxConnection::Options{});
  std::vector<std::unique_ptr<OutputBuffer>> logs;
  std::vector<std::unique_ptr<RemoteChannel>> chans;
  for (uint32_t i = 0; i < kChannels; ++i) {
    RemoteChannelOptions opts;
    opts.port = port;
    opts.entry = "t";
    opts.source_instance = i;
    opts.reconnect_backoff_ms = 20;
    opts.mux = &pool;
    logs.push_back(std::make_unique<OutputBuffer>());
    chans.push_back(std::make_unique<RemoteChannel>(opts, logs.back().get()));
    ASSERT_TRUE(chans.back()->Connect().ok());
  }
  EXPECT_EQ(server1->connections_accepted(), 1u);
  for (uint32_t i = 0; i < kChannels; ++i) {
    EXPECT_EQ(chans[i]->DeliverAll(MakeItems(1, 10, i)), 10u);
  }
  ASSERT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& seen : seen1) {
      if (seen.size() != 10) {
        return false;
      }
    }
    return true;
  }));
  std::vector<ChannelServer::SourceAck> acks;
  for (uint32_t i = 0; i < kChannels; ++i) {
    acks.push_back({runtime::kRemoteSourceTask, i, watermark_of(i)});
  }
  server1->AckSources(acks);
  for (uint32_t i = 0; i < kChannels; ++i) {
    ASSERT_TRUE(WaitUntil(
        [&] { return chans[i]->UnackedCount() == 10 - watermark_of(i); }));
  }

  // Kill the receiver; every sender must notice the broken wire.
  server1->Stop();
  server1.reset();
  for (auto& chan : chans) {
    ASSERT_TRUE(WaitUntil([&] { return !chan->connected(); }));
  }

  // Receiver half 2 on the SAME port, restored to the per-channel
  // watermarks. It must see each channel's unacked suffix again (replayed)
  // plus the new 11..20 — and nothing at or below the channel's watermark.
  std::vector<std::set<uint64_t>> seen2(kChannels);
  std::vector<int> replayed(kChannels, 0);
  ChannelServerOptions opts2;
  opts2.port = port;
  ChannelServer server2(opts2);
  ASSERT_TRUE(server2
                  .Start(
                      [&](const Handshake& hs) {
                        return watermark_of(hs.source_instance);
                      },
                      [&](const Handshake& hs, std::vector<DataItem> items) {
                        std::lock_guard<std::mutex> lock(mu);
                        const uint32_t i = hs.source_instance;
                        for (const auto& item : items) {
                          EXPECT_GT(item.ts, watermark_of(i))
                              << "channel " << i << " re-sent an acked item";
                          if (item.replayed) {
                            ++replayed[i];
                          }
                          seen2[i].insert(item.ts);
                        }
                      })
                  .ok());

  // Delivering through a broken channel reconnects (unless the background
  // repair already did), replays the unacked suffix, then sends the new
  // batch.
  for (uint32_t i = 0; i < kChannels; ++i) {
    EXPECT_EQ(chans[i]->DeliverAll(MakeItems(11, 20, i)), 10u);
  }
  ASSERT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    for (uint32_t i = 0; i < kChannels; ++i) {
      if (seen2[i].size() != 20 - watermark_of(i)) {
        return false;
      }
    }
    return true;
  }));
  {
    std::lock_guard<std::mutex> lock(mu);
    for (uint32_t i = 0; i < kChannels; ++i) {
      for (uint64_t ts = watermark_of(i) + 1; ts <= 20; ++ts) {
        EXPECT_TRUE(seen2[i].count(ts))
            << "channel " << i << " lost item ts=" << ts;
      }
      EXPECT_EQ(replayed[i], static_cast<int>(10 - watermark_of(i)))
          << "channel " << i << " replay was not exactly its unacked suffix";
    }
  }
  // Every channel is back on one shared socket.
  for (auto& chan : chans) {
    EXPECT_TRUE(chan->connected());
  }
  EXPECT_EQ(server2.connections_accepted(), 1u);

  // The union of both incarnations covers every item ever sent.
  server2.Ack(20);
  for (auto& chan : chans) {
    ASSERT_TRUE(WaitUntil([&] { return chan->UnackedCount() == 0; }));
    chan->Close();
  }
  pool.CloseAll();
  server2.Stop();
}

TEST(ChannelTest, InjectRemoteFeedsDeployment) {
  // Full receive path: wire batches land in a live deployment through
  // InjectRemote, flowing through the same batched dispatch as local
  // injection.
  graph::SdgBuilder b;
  std::shared_ptr<std::atomic<int64_t>> sum =
      std::make_shared<std::atomic<int64_t>>(0);
  (void)b.AddEntryTask("t", [sum](const Tuple& in, graph::TaskContext&) {
    sum->fetch_add(in[0].AsInt());
  });
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  runtime::Cluster cluster(runtime::ClusterOptions{});
  auto d = cluster.Deploy(std::move(*g));
  ASSERT_TRUE(d.ok());

  ChannelServer server(ChannelServerOptions{});
  ASSERT_TRUE(server
                  .Start([](const Handshake&) { return uint64_t{0}; },
                         [&](const Handshake& hs, std::vector<DataItem> items) {
                           auto st =
                               (*d)->InjectRemote(hs.entry, std::move(items));
                           EXPECT_TRUE(st.ok()) << st.ToString();
                         })
                  .ok());

  MuxPool pool(MuxConnection::Options{});
  OutputBuffer log;
  RemoteChannelOptions opts;
  opts.port = server.port();
  opts.entry = "t";
  opts.mux = &pool;
  RemoteChannel chan(opts, &log);
  ASSERT_TRUE(chan.Connect().ok());
  constexpr int64_t kN = 200;
  EXPECT_EQ(chan.DeliverAll(MakeItems(1, kN)), static_cast<size_t>(kN));
  ASSERT_TRUE(WaitUntil(
      [&] { return (*d)->ProcessedOf("t") == static_cast<uint64_t>(kN); }));
  EXPECT_EQ(sum->load(), kN * (kN + 1) / 2);

  server.Ack(kN);
  ASSERT_TRUE(WaitUntil([&] { return chan.UnackedCount() == 0; }));
  chan.Close();
  server.Stop();
  (*d)->Drain();
  (*d)->Shutdown();
}

}  // namespace
}  // namespace sdg::net
