// Multiplexed-transport tests: mux message codec round-trips plus
// truncation/corruption fuzz (malformed bytes surface as Status, never a
// crash), mux-framing round-trips across arbitrary read() splits, per-stream
// flow control (a hot stream out of credits blocks only its own sender), and
// the reconnect-replay contract per stream (each stream replays past its OWN
// durable watermark after the shared socket dies).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/net/channel_server.h"
#include "src/net/frame.h"
#include "src/net/mux.h"
#include "src/net/remote_channel.h"

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

DataItem MakeItem(uint64_t ts, uint32_t instance) {
  DataItem item;
  item.from = runtime::SourceId{runtime::kRemoteSourceTask, instance};
  item.ts = ts;
  item.payload = Tuple{Value(static_cast<int64_t>(ts))};
  return item;
}

std::vector<DataItem> MakeItems(uint64_t first_ts, uint64_t last_ts,
                                uint32_t instance) {
  std::vector<DataItem> items;
  for (uint64_t ts = first_ts; ts <= last_ts; ++ts) {
    items.push_back(MakeItem(ts, instance));
  }
  return items;
}

// --- Codec round-trips --------------------------------------------------------

TEST(MuxCodecTest, HelloRoundTrip) {
  MuxHelloMsg m;
  m.protocol = kProtocolVersion;
  m.deployment_id = 0xdeadbeefcafe;
  auto decoded = MuxHelloMsg::Decode(m.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->protocol, m.protocol);
  EXPECT_EQ(decoded->deployment_id, m.deployment_id);
}

TEST(MuxCodecTest, HelloAckRoundTrip) {
  MuxHelloAckMsg m;
  m.accepted = true;
  m.window = 128;
  m.message = "";
  auto decoded = MuxHelloAckMsg::Decode(m.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->accepted);
  EXPECT_EQ(decoded->window, 128u);

  MuxHelloAckMsg rej;
  rej.accepted = false;
  rej.message = "deployment mismatch";
  auto decoded2 = MuxHelloAckMsg::Decode(rej.Encode());
  ASSERT_TRUE(decoded2.ok());
  EXPECT_FALSE(decoded2->accepted);
  EXPECT_EQ(decoded2->message, "deployment mismatch");
}

TEST(MuxCodecTest, OpenRoundTrip) {
  MuxOpenMsg m;
  m.kind = kMuxStreamReply;
  m.deployment_id = 42;
  m.member_id = 7;
  m.source_task = 1000;
  m.source_instance = 3;
  m.entry = "wordcount";
  m.emit_clock = 12345678901234ull;
  auto decoded = MuxOpenMsg::Decode(m.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, kMuxStreamReply);
  EXPECT_EQ(decoded->deployment_id, 42u);
  EXPECT_EQ(decoded->member_id, 7u);
  EXPECT_EQ(decoded->source_task, 1000u);
  EXPECT_EQ(decoded->source_instance, 3u);
  EXPECT_EQ(decoded->entry, "wordcount");
  EXPECT_EQ(decoded->emit_clock, 12345678901234ull);
}

TEST(MuxCodecTest, OpenAckAndWindowRoundTrip) {
  MuxOpenAckMsg ack;
  ack.accepted = true;
  ack.acked_ts = 999;
  ack.window = 64;
  auto decoded = MuxOpenAckMsg::Decode(ack.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->accepted);
  EXPECT_EQ(decoded->acked_ts, 999u);
  EXPECT_EQ(decoded->window, 64u);

  MuxWindowMsg win;
  win.credits = 17;
  auto decoded2 = MuxWindowMsg::Decode(win.Encode());
  ASSERT_TRUE(decoded2.ok());
  EXPECT_EQ(decoded2->credits, 17u);
}

TEST(MuxCodecTest, AckBatchRoundTrip) {
  MuxAckBatchMsg m;
  for (uint32_t i = 1; i <= 5; ++i) {
    m.entries.push_back({i * 2, i * 1000ull});
  }
  auto decoded = MuxAckBatchMsg::Decode(m.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->entries.size(), 5u);
  for (uint32_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(decoded->entries[i - 1].stream, i * 2);
    EXPECT_EQ(decoded->entries[i - 1].acked_ts, i * 1000ull);
  }

  MuxAckBatchMsg empty;
  auto decoded2 = MuxAckBatchMsg::Decode(empty.Encode());
  ASSERT_TRUE(decoded2.ok());
  EXPECT_TRUE(decoded2->entries.empty());
}

// --- Truncation / corruption fuzz ---------------------------------------------

// Every strict prefix of a valid encoding must fail as a Status: the decoders
// bounds-check each read and reject trailing garbage, so there is no length
// at which a cut-off message silently half-parses.
TEST(MuxCodecTest, TruncationNeverCrashesAlwaysErrors) {
  MuxOpenMsg open;
  open.kind = kMuxStreamData;
  open.deployment_id = 77;
  open.entry = "entry-name-long-enough-to-truncate-mid-string";
  open.emit_clock = 5;
  MuxAckBatchMsg batch;
  batch.entries = {{1, 10}, {2, 20}, {3, 30}};
  MuxHelloMsg hello;
  MuxHelloAckMsg hello_ack;
  hello_ack.accepted = true;
  hello_ack.message = "ok";
  MuxOpenAckMsg open_ack;
  open_ack.message = "why";
  MuxWindowMsg win;
  win.credits = 1;

  std::vector<std::pair<const char*, std::vector<uint8_t>>> encodings = {
      {"open", open.Encode()},           {"ack-batch", batch.Encode()},
      {"hello", hello.Encode()},         {"hello-ack", hello_ack.Encode()},
      {"open-ack", open_ack.Encode()},   {"window", win.Encode()},
  };
  for (const auto& [name, bytes] : encodings) {
    for (size_t len = 0; len < bytes.size(); ++len) {
      std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
      bool ok = false;
      if (std::string(name) == "open") {
        ok = MuxOpenMsg::Decode(prefix).ok();
      } else if (std::string(name) == "ack-batch") {
        ok = MuxAckBatchMsg::Decode(prefix).ok();
      } else if (std::string(name) == "hello") {
        ok = MuxHelloMsg::Decode(prefix).ok();
      } else if (std::string(name) == "hello-ack") {
        ok = MuxHelloAckMsg::Decode(prefix).ok();
      } else if (std::string(name) == "open-ack") {
        ok = MuxOpenAckMsg::Decode(prefix).ok();
      } else {
        ok = MuxWindowMsg::Decode(prefix).ok();
      }
      EXPECT_FALSE(ok) << name << " accepted a " << len << "-byte prefix of "
                       << bytes.size() << " bytes";
    }
  }
}

// Random byte flips must never crash a decoder. A flip may still produce a
// decodable message (most fields carry no redundancy) — the contract under
// fuzz is memory safety and Status-or-value, not detection.
TEST(MuxCodecTest, CorruptionNeverCrashes) {
  Rng rng(20260809);
  MuxOpenMsg open;
  open.entry = "kv";
  open.deployment_id = 1;
  MuxAckBatchMsg batch;
  batch.entries = {{1, 100}, {9, 900}};
  const std::vector<std::vector<uint8_t>> bases = {open.Encode(),
                                                   batch.Encode()};
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> bytes = bases[iter % bases.size()];
    int flips = 1 + static_cast<int>(rng.Next() % 4);
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Next() % bytes.size();
      bytes[pos] ^= static_cast<uint8_t>(1u << (rng.Next() % 8));
    }
    // Either outcome is fine; it must not crash or hang.
    (void)MuxOpenMsg::Decode(bytes);
    (void)MuxAckBatchMsg::Decode(bytes);
  }
}

// Mux framing (stream id in the header) round-trips through the decoder at
// every read() split point, and the stream id survives.
TEST(MuxCodecTest, MuxFramingRoundTripAcrossSplits) {
  std::vector<uint8_t> payload = {9, 8, 7, 6, 5, 4};
  BinaryWriter w;
  EncodeMuxFrame(w, FrameType::kData, /*stream=*/0x01020304, payload.data(),
                 payload.size());
  EncodeMuxFrame(w, FrameType::kAck, /*stream=*/7, nullptr, 0);
  const std::vector<uint8_t>& bytes = w.buffer();

  for (size_t split = 0; split <= bytes.size(); ++split) {
    FrameDecoder dec;
    dec.EnableMux();
    dec.Feed(bytes.data(), split);
    dec.Feed(bytes.data() + split, bytes.size() - split);
    Frame f1, f2, extra;
    auto r1 = dec.Next(&f1);
    ASSERT_TRUE(r1.ok() && *r1) << "split=" << split;
    EXPECT_EQ(f1.type, FrameType::kData);
    EXPECT_EQ(f1.stream, 0x01020304u);
    EXPECT_EQ(f1.payload, payload);
    auto r2 = dec.Next(&f2);
    ASSERT_TRUE(r2.ok() && *r2) << "split=" << split;
    EXPECT_EQ(f2.type, FrameType::kAck);
    EXPECT_EQ(f2.stream, 7u);
    EXPECT_TRUE(f2.payload.empty());
    auto r3 = dec.Next(&extra);
    ASSERT_TRUE(r3.ok());
    EXPECT_FALSE(*r3);
  }
}

// A corrupt mux frame header (unknown type byte) poisons the decoder with a
// Status instead of crashing or resynchronizing onto garbage.
TEST(MuxCodecTest, CorruptMuxHeaderPoisonsDecoder) {
  BinaryWriter w;
  EncodeMuxFrame(w, FrameType::kData, 1, nullptr, 0);
  std::vector<uint8_t> bytes = w.buffer();
  bytes[4] = 0xEE;  // type byte (after the 4-byte magic/length prelude)
  FrameDecoder dec;
  dec.EnableMux();
  dec.Feed(bytes.data(), bytes.size());
  Frame f;
  auto r = dec.Next(&f);
  if (r.ok()) {
    // Some byte positions decode as a different valid header; acceptable —
    // the guarantee under corruption is no crash and no wrong-frame reuse.
    return;
  }
  EXPECT_FALSE(r.ok());
}

// --- Per-stream flow control --------------------------------------------------

// One shared socket, two streams: the hot stream's consumer is slow, so the
// hot sender exhausts its credit window and blocks — but only ITSELF. The
// cold stream on the same socket must finish its (tiny) workload while the
// hot stream is still mid-flight; if window exhaustion blocked the shared
// socket, the cold items would queue behind ~seconds of hot dispatch.
TEST(MuxFlowControlTest, HotStreamCannotStarveColdSibling) {
  constexpr uint64_t kHot = 3000;
  constexpr uint64_t kCold = 50;
  std::atomic<uint64_t> hot_received{0};
  std::atomic<uint64_t> cold_received{0};
  // Hot progress at the moment the cold stream completed (sentinel ~0).
  std::atomic<uint64_t> hot_at_cold_done{~0ull};

  ChannelServer server(ChannelServerOptions{});
  ASSERT_TRUE(
      server
          .Start([](const Handshake&) { return uint64_t{0}; },
                 [&](const Handshake& hs, std::vector<DataItem> items) {
                   if (hs.source_instance == 0) {
                     // Slow consumer: bounded stall per item so the hot
                     // stream needs >= kHot * 300us of wall clock.
                     std::this_thread::sleep_for(
                         std::chrono::microseconds(300) * items.size());
                     hot_received.fetch_add(items.size());
                   } else {
                     uint64_t total =
                         cold_received.fetch_add(items.size()) + items.size();
                     if (total >= kCold) {
                       hot_at_cold_done.store(hot_received.load());
                     }
                   }
                 })
          .ok());

  MuxPool pool(MuxConnection::Options{});

  auto make_channel = [&](uint32_t instance, OutputBuffer* log) {
    RemoteChannelOptions opts;
    opts.port = server.port();
    opts.entry = "t";
    opts.source_instance = instance;
    opts.mux = &pool;
    return std::make_unique<RemoteChannel>(opts, log);
  };
  OutputBuffer hot_log, cold_log;
  auto hot = make_channel(0, &hot_log);
  auto cold = make_channel(1, &cold_log);
  ASSERT_TRUE(hot->Connect().ok());
  ASSERT_TRUE(cold->Connect().ok());

  std::thread hot_sender([&] {
    for (uint64_t ts = 1; ts <= kHot; ++ts) {
      ASSERT_TRUE(hot->Deliver(MakeItem(ts, 0)));
    }
  });
  // Give the hot stream a head start so its window is already exhausted
  // (and its backlog deep) when the cold items enter the shared socket.
  ASSERT_TRUE(WaitUntil([&] { return hot_received.load() >= 64; }, 30000));
  std::thread cold_sender([&] {
    for (uint64_t ts = 1; ts <= kCold; ++ts) {
      ASSERT_TRUE(cold->Deliver(MakeItem(ts, 1)));
    }
  });

  ASSERT_TRUE(WaitUntil([&] { return cold_received.load() == kCold; }, 30000))
      << "cold stream starved behind the hot stream's window: "
      << cold_received.load() << "/" << kCold << " (hot at "
      << hot_received.load() << "/" << kHot << ")";
  EXPECT_LT(hot_at_cold_done.load(), kHot)
      << "hot stream finished before cold — the test lost its contention";

  cold_sender.join();
  hot_sender.join();
  ASSERT_TRUE(WaitUntil([&] { return hot_received.load() == kHot; }, 60000));

  // Window accounting survived: every credit comes back once the consumer
  // drains, so a follow-up burst still flows.
  ASSERT_TRUE(hot->Deliver(MakeItem(kHot + 1, 0)));
  ASSERT_TRUE(WaitUntil([&] { return hot_received.load() == kHot + 1; }));

  hot->Close();
  cold->Close();
  pool.CloseAll();
  server.Stop();
}

// --- Reconnect-replay per stream ----------------------------------------------

// Two channels on one shared socket, acked to DIFFERENT watermarks, then the
// receiver dies. After a restart on the same port, each channel must replay
// exactly ITS unacked suffix — stream A past 5, stream B past 8 — marked
// replayed, with nothing at or below the per-stream watermark resent.
TEST(MuxReconnectTest, ReplayHonorsPerStreamWatermarks) {
  std::mutex mu;
  std::set<uint64_t> seen_a1, seen_b1;
  auto server1 = std::make_unique<ChannelServer>(ChannelServerOptions{});
  ASSERT_TRUE(
      server1
          ->Start([](const Handshake&) { return uint64_t{0}; },
                  [&](const Handshake& hs, std::vector<DataItem> items) {
                    std::lock_guard<std::mutex> lock(mu);
                    for (const auto& item : items) {
                      (hs.source_instance == 0 ? seen_a1 : seen_b1)
                          .insert(item.ts);
                    }
                  })
          .ok());
  uint16_t port = server1->port();

  MuxPool pool(MuxConnection::Options{});

  OutputBuffer log_a, log_b;
  RemoteChannelOptions opts;
  opts.port = port;
  opts.entry = "t";
  opts.reconnect_backoff_ms = 20;
  opts.mux = &pool;
  opts.source_instance = 0;
  RemoteChannel chan_a(opts, &log_a);
  opts.source_instance = 1;
  RemoteChannel chan_b(opts, &log_b);
  ASSERT_TRUE(chan_a.Connect().ok());
  ASSERT_TRUE(chan_b.Connect().ok());

  EXPECT_EQ(chan_a.DeliverAll(MakeItems(1, 10, 0)), 10u);
  EXPECT_EQ(chan_b.DeliverAll(MakeItems(1, 10, 1)), 10u);
  ASSERT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return seen_a1.size() == 10 && seen_b1.size() == 10;
  }));
  // Different durable watermarks per stream — the coalesced ack path must
  // keep them separate, not broadcast one value.
  server1->AckSource(runtime::kRemoteSourceTask, 0, 5);
  server1->AckSource(runtime::kRemoteSourceTask, 1, 8);
  ASSERT_TRUE(WaitUntil([&] { return chan_a.UnackedCount() == 5; }));
  ASSERT_TRUE(WaitUntil([&] { return chan_b.UnackedCount() == 2; }));

  server1->Stop();
  server1.reset();
  ASSERT_TRUE(WaitUntil([&] { return !chan_a.connected(); }));
  ASSERT_TRUE(WaitUntil([&] { return !chan_b.connected(); }));

  // Restart on the same port, restored to the per-stream watermarks.
  std::set<uint64_t> seen_a2, seen_b2;
  std::atomic<int> replayed_a{0}, replayed_b{0};
  ChannelServerOptions sopts2;
  sopts2.port = port;
  ChannelServer server2(sopts2);
  ASSERT_TRUE(
      server2
          .Start(
              [](const Handshake& hs) {
                return hs.source_instance == 0 ? uint64_t{5} : uint64_t{8};
              },
              [&](const Handshake& hs, std::vector<DataItem> items) {
                std::lock_guard<std::mutex> lock(mu);
                for (const auto& item : items) {
                  if (hs.source_instance == 0) {
                    EXPECT_GT(item.ts, 5u) << "stream A acked item resent";
                    if (item.replayed) replayed_a.fetch_add(1);
                    seen_a2.insert(item.ts);
                  } else {
                    EXPECT_GT(item.ts, 8u) << "stream B acked item resent";
                    if (item.replayed) replayed_b.fetch_add(1);
                    seen_b2.insert(item.ts);
                  }
                }
              })
          .ok());

  // Delivering through the dead shared socket redials the pool, reopens each
  // stream, and replays each log past its own open-ack watermark.
  EXPECT_EQ(chan_a.DeliverAll(MakeItems(11, 20, 0)), 10u);
  EXPECT_EQ(chan_b.DeliverAll(MakeItems(11, 20, 1)), 10u);
  ASSERT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return seen_a2.size() == 15 && seen_b2.size() == 12;
  }));
  {
    std::lock_guard<std::mutex> lock(mu);
    for (uint64_t ts = 6; ts <= 20; ++ts) {
      EXPECT_TRUE(seen_a2.count(ts)) << "stream A lost ts=" << ts;
    }
    for (uint64_t ts = 9; ts <= 20; ++ts) {
      EXPECT_TRUE(seen_b2.count(ts)) << "stream B lost ts=" << ts;
    }
  }
  EXPECT_EQ(replayed_a.load(), 5) << "stream A replay was not exactly 6..10";
  EXPECT_EQ(replayed_b.load(), 2) << "stream B replay was not exactly 9..10";

  server2.Ack(20);
  ASSERT_TRUE(WaitUntil([&] { return chan_a.UnackedCount() == 0; }));
  ASSERT_TRUE(WaitUntil([&] { return chan_b.UnackedCount() == 0; }));
  chan_a.Close();
  chan_b.Close();
  pool.CloseAll();
  server2.Stop();
}

}  // namespace
}  // namespace sdg::net
