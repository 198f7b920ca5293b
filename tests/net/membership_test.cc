// Membership-protocol tests (kJoin/kJoinAck/kControl on a bare ChannelServer)
// plus in-process end-to-end tests of the elastic runtime: initial
// assignment, live migration with the watermark handoff, and the
// restart/reconnect-replay regression — the single-process complement of the
// multi-process chaos harness (tests/harness/chaos_process_test.cc).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/kv.h"
#include "src/checkpoint/backup_store.h"
#include "src/net/channel_server.h"
#include "src/net/connection.h"
#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/runtime/elastic.h"
#include "src/state/keyed_dict.h"
#include "src/state/state_backend.h"

namespace sdg {
namespace {

using net::ChannelServer;
using net::ChannelServerOptions;
using net::ControlMsg;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::JoinAckMsg;
using net::JoinMsg;
using net::ReadFrameBlocking;
using net::Socket;
using net::WriteFrameBlocking;

Result<Socket> DialJoin(uint16_t port, uint32_t member_id,
                        FrameDecoder& carry, JoinAckMsg* ack,
                        uint64_t deployment_id = 1) {
  SDG_ASSIGN_OR_RETURN(Socket s, Socket::Connect("127.0.0.1", port));
  JoinMsg join;
  join.deployment_id = deployment_id;
  join.member_id = member_id;
  join.data_port = 1;  // tests never dial back
  join.name = "test";
  SDG_RETURN_IF_ERROR(
      WriteFrameBlocking(s, FrameType::kJoin, join.Encode()));
  s.SetRecvTimeout(5000);
  SDG_ASSIGN_OR_RETURN(Frame reply, ReadFrameBlocking(s, carry));
  if (reply.type != FrameType::kJoinAck) {
    return Status(StatusCode::kDataLoss, "expected kJoinAck");
  }
  SDG_ASSIGN_OR_RETURN(*ack, JoinAckMsg::Decode(reply.payload));
  s.SetRecvTimeout(0);
  return s;
}

struct MemberServer {
  ChannelServer server{ChannelServerOptions{}};
  std::mutex mu;
  std::vector<std::pair<uint32_t, ControlMsg>> control_frames;

  Status Start() {
    return server.Start(
        [](const net::Handshake&) -> Result<uint64_t> {
          return Status(StatusCode::kFailedPrecondition, "no data channels");
        },
        [](const net::Handshake&, std::vector<runtime::DataItem>) {},
        [](const JoinMsg& join) -> Result<uint32_t> {
          if (join.deployment_id != 1) {
            return Status(StatusCode::kFailedPrecondition, "wrong deployment");
          }
          return join.member_id;
        },
        [this](uint32_t member, Frame frame) {
          if (frame.type != FrameType::kControl) {
            return;
          }
          auto msg = ControlMsg::Decode(frame.payload);
          if (msg.ok()) {
            std::lock_guard<std::mutex> lock(mu);
            control_frames.emplace_back(member, *msg);
          }
        });
  }
};

TEST(MembershipProtocol, JoinAckAndControlRoundtrip) {
  MemberServer ms;
  ASSERT_TRUE(ms.Start().ok());

  FrameDecoder carry;
  JoinAckMsg ack;
  auto sock = DialJoin(ms.server.port(), 7, carry, &ack);
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  EXPECT_TRUE(ack.accepted);
  EXPECT_EQ(ack.member_id, 7u);
  EXPECT_EQ(ms.server.MemberCount(), 1u);

  // Head -> member.
  ControlMsg ping;
  ping.op = net::kCtrlPing;
  ASSERT_TRUE(ms.server.SendToMember(7, FrameType::kControl, ping.Encode()));
  sock->SetRecvTimeout(5000);
  auto frame = ReadFrameBlocking(*sock, carry);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, FrameType::kControl);
  auto msg = ControlMsg::Decode(frame->payload);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->op, net::kCtrlPing);

  // Member -> head.
  ControlMsg report;
  report.op = net::kCtrlStraggler;
  report.arg = 3;
  ASSERT_TRUE(
      WriteFrameBlocking(*sock, FrameType::kControl, report.Encode()).ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(ms.mu);
      if (!ms.control_frames.empty()) {
        EXPECT_EQ(ms.control_frames[0].first, 7u);
        EXPECT_EQ(ms.control_frames[0].second.op, net::kCtrlStraggler);
        EXPECT_EQ(ms.control_frames[0].second.arg, 3u);
        break;
      }
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "control frame never reached on_member";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ms.server.Stop();
}

TEST(MembershipProtocol, JoinRejectedWrongDeployment) {
  MemberServer ms;
  ASSERT_TRUE(ms.Start().ok());
  FrameDecoder carry;
  JoinAckMsg ack;
  auto sock =
      DialJoin(ms.server.port(), 9, carry, &ack, /*deployment_id=*/42);
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  EXPECT_FALSE(ack.accepted);
  EXPECT_FALSE(ack.message.empty());
  EXPECT_EQ(ms.server.MemberCount(), 0u);
  ms.server.Stop();
}

TEST(MembershipProtocol, DuplicateJoinSupersedes) {
  MemberServer ms;
  ASSERT_TRUE(ms.Start().ok());

  FrameDecoder carry1, carry2;
  JoinAckMsg ack1, ack2;
  auto first = DialJoin(ms.server.port(), 5, carry1, &ack1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(ack1.accepted);
  auto second = DialJoin(ms.server.port(), 5, carry2, &ack2);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(ack2.accepted);

  // The rejoin replaced the first incarnation: one member, and control
  // traffic lands on the SECOND connection (the first reads EOF).
  EXPECT_EQ(ms.server.MemberCount(), 1u);
  ControlMsg ping;
  ping.op = net::kCtrlPing;
  ASSERT_TRUE(ms.server.SendToMember(5, FrameType::kControl, ping.Encode()));
  second->SetRecvTimeout(5000);
  auto frame = ReadFrameBlocking(*second, carry2);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kControl);

  first->SetRecvTimeout(5000);
  auto stale = ReadFrameBlocking(*first, carry1);
  EXPECT_FALSE(stale.ok()) << "superseded channel should be closed";
  ms.server.Stop();
}

TEST(MembershipProtocol, JoinThenImmediateDisconnect) {
  MemberServer ms;
  ASSERT_TRUE(ms.Start().ok());
  {
    FrameDecoder carry;
    JoinAckMsg ack;
    auto sock = DialJoin(ms.server.port(), 11, carry, &ack);
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(ack.accepted);
    // Socket drops here — the member vanished right after joining.
  }
  // Sends eventually fail (the break may take a send to surface), and the
  // server keeps accepting new members afterwards.
  ControlMsg ping;
  ping.op = net::kCtrlPing;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ms.server.SendToMember(11, FrameType::kControl, ping.Encode())) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "send to a disconnected member never failed";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  FrameDecoder carry;
  JoinAckMsg ack;
  auto sock = DialJoin(ms.server.port(), 12, carry, &ack);
  ASSERT_TRUE(sock.ok());
  EXPECT_TRUE(ack.accepted);
  ms.server.Stop();
}

// --- In-process elastic runtime ---------------------------------------------

constexpr uint32_t kPartitions = 4;

class ElasticFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("sdg_elastic_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  elastic::ElasticHeadOptions HeadOptions() {
    elastic::ElasticHeadOptions h;
    h.state = "store";
    h.partitions = kPartitions;
    h.entries = {"put", "del"};
    h.backup_root = (root_ / "backup").string();
    h.monitor_interval_ms = 20;
    h.migrate_timeout_ms = 20000;
    return h;
  }

  std::unique_ptr<elastic::ElasticWorker> MakeWorker(uint32_t member_id,
                                                     uint16_t head_port,
                                                     uint16_t data_port = 0,
                                                     bool serve_feed = false) {
    apps::KvOptions kv;
    kv.partitions = kPartitions;
    auto g = apps::BuildKvSdg(kv);
    EXPECT_TRUE(g.ok());
    elastic::ElasticWorkerOptions w;
    w.member_id = member_id;
    w.name = "w" + std::to_string(member_id);
    w.head_port = head_port;
    w.data_port = data_port;
    w.state = "store";
    w.partitions = kPartitions;
    w.entries = {"put", "del"};
    w.backup_root = (root_ / "backup").string();
    w.serve_feed = serve_feed;
    return std::make_unique<elastic::ElasticWorker>(std::move(*g),
                                                    std::move(w));
  }

  // Reads every owned partition of `workers` into one map, asserting no
  // partition is owned twice and all partitions are covered.
  std::map<int64_t, std::string> MergedState(
      const std::vector<elastic::ElasticWorker*>& workers) {
    std::map<int64_t, std::string> merged;
    std::set<uint32_t> seen;
    for (auto* w : workers) {
      for (uint32_t p : w->OwnedPartitions()) {
        EXPECT_TRUE(seen.insert(p).second) << "partition " << p
                                           << " owned twice";
        auto* backend = w->deployment()->StateInstance("store", p);
        auto* dict =
            state::StateAs<state::KeyedDict<int64_t, std::string>>(backend);
        EXPECT_NE(dict, nullptr);
        dict->ForEach([&](const int64_t& k, const std::string& v) {
          EXPECT_TRUE(merged.emplace(k, v).second)
              << "key " << k << " present in two partitions";
        });
      }
    }
    EXPECT_EQ(seen.size(), kPartitions);
    return merged;
  }

  // Every backup-store file (chunks and metas) of `member`, relative to the
  // store root.
  std::vector<std::filesystem::path> MemberFiles(uint32_t member) {
    const std::string prefix = "node" + std::to_string(member) + "_epoch";
    const auto store = root_ / "backup";
    std::vector<std::filesystem::path> files;
    for (const auto& e :
         std::filesystem::recursive_directory_iterator(store)) {
      if (e.is_regular_file() &&
          e.path().filename().string().rfind(prefix, 0) == 0) {
        files.push_back(std::filesystem::relative(e.path(), store));
      }
    }
    return files;
  }

  // Copies `member`'s store files aside, to be put back by RestoreStore.
  void SaveStore(uint32_t member) {
    for (const auto& rel : MemberFiles(member)) {
      std::filesystem::create_directories((root_ / "saved" / rel).parent_path());
      std::filesystem::copy_file(root_ / "backup" / rel, root_ / "saved" / rel);
    }
  }

  // Replaces `member`'s store files with the ones SaveStore copied aside.
  void RestoreStore(uint32_t member) {
    for (const auto& rel : MemberFiles(member)) {
      std::filesystem::remove(root_ / "backup" / rel);
    }
    for (const auto& e :
         std::filesystem::recursive_directory_iterator(root_ / "saved")) {
      if (e.is_regular_file()) {
        std::filesystem::copy_file(
            e.path(),
            root_ / "backup" / std::filesystem::relative(e.path(), root_ / "saved"));
      }
    }
  }

  // Writes `keys` of the partitions `w` owns straight into its deployment
  // (the bulk path, bypassing the head's log) and checkpoints once. The
  // partitions' first bases were cut empty at assignment; the load outgrows
  // them, so that one checkpoint is each chain's new base, and small writes
  // extend it link by link.
  void LoadDirect(elastic::ElasticWorker& w, int64_t keys,
                  std::map<int64_t, std::string>& model) {
    std::vector<uint32_t> owned = w.OwnedPartitions();
    std::vector<Tuple> batch;
    for (int64_t k = 0; k < keys; ++k) {
      const uint32_t p = Value(k).Hash() % kPartitions;
      if (std::find(owned.begin(), owned.end(), p) != owned.end()) {
        std::string v = "load" + std::to_string(k);
        batch.push_back(Tuple{Value(k), Value(v)});
        model[k] = v;
      }
    }
    ASSERT_TRUE(w.deployment()->InjectAll("put", std::move(batch)).ok());
    w.deployment()->Drain();
    ASSERT_TRUE(w.Checkpoint().ok());
  }

  // The meta a restart of `member` would restore from.
  checkpoint::CheckpointMeta LatestMeta(uint32_t member) {
    checkpoint::BackupStoreOptions o;
    o.root = root_ / "backup";
    checkpoint::BackupStore store(o);
    auto epoch = store.LatestEpoch(member);
    EXPECT_TRUE(epoch.ok()) << epoch.status().ToString();
    if (!epoch.ok()) {
      return {};
    }
    auto meta = store.ReadMeta(member, *epoch);
    EXPECT_TRUE(meta.ok());
    return meta.ok() ? *meta : checkpoint::CheckpointMeta{};
  }

  // Shortest state chain in `member`'s latest meta (0 without states).
  size_t MinChainLength(uint32_t member) {
    auto meta = LatestMeta(member);
    size_t n = meta.states.empty() ? 0 : SIZE_MAX;
    for (const auto& sm : meta.states) {
      n = std::min(n, sm.chain.size());
    }
    return n;
  }

  // Moves the chunk files of link `link` of `member`'s chain `sm` out of
  // the store; returns (store path, aside path) pairs to move them back.
  std::vector<std::pair<std::filesystem::path, std::filesystem::path>>
  MoveLinkAside(uint32_t member, const checkpoint::StateInstanceMeta& sm,
                const checkpoint::ChainLink& link) {
    const std::string prefix =
        "node" + std::to_string(member) + "_epoch" +
        std::to_string(link.epoch) + "_" +
        checkpoint::StateChunkName(sm.state, sm.instance) + "_chunk";
    std::vector<std::pair<std::filesystem::path, std::filesystem::path>>
        moved;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(root_ / "backup")) {
      if (entry.path().filename().string().rfind(prefix, 0) == 0) {
        moved.emplace_back(entry.path(), root_ / entry.path().filename());
      }
    }
    EXPECT_EQ(moved.size(), link.num_chunks);
    for (const auto& [from, to] : moved) {
      std::filesystem::rename(from, to);
    }
    return moved;
  }

  std::filesystem::path root_;
};

TEST_F(ElasticFixture, AssignInjectCheckpointQuiesce) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  std::map<int64_t, std::string> model;
  for (int64_t k = 0; k < 200; ++k) {
    std::string v = "v" + std::to_string(k);
    ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value(v)}, 20000).ok());
    model[k] = v;
  }
  ASSERT_TRUE(head.CheckpointAll().ok());
  ASSERT_TRUE(head.AwaitQuiesce(20000));
  EXPECT_EQ(head.UnackedTotal(), 0u);
  EXPECT_EQ(MergedState({w1.get()}), model);

  w1->Stop();
  head.Stop();
}

TEST_F(ElasticFixture, LiveMigrationMovesPartitionExactlyOnce) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  auto w2 = MakeWorker(2, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w2->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(w2->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  std::map<int64_t, std::string> model;
  auto put_range = [&](int64_t lo, int64_t hi) {
    for (int64_t k = lo; k < hi; ++k) {
      std::string v = "v" + std::to_string(k);
      ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value(v)}, 20000).ok());
      model[k] = v;
    }
  };
  put_range(0, 300);

  // Move a partition from its current owner to the other worker, live.
  uint32_t part = 0;
  uint32_t from = head.OwnerOf(part);
  uint32_t to = from == 1 ? 2 : 1;
  ASSERT_TRUE(head.MigratePartition(part, to).ok());
  EXPECT_EQ(head.OwnerOf(part), to);
  EXPECT_EQ(head.migrations_completed(), 1u);
  EXPECT_GT(head.last_migration_pause_ms(), 0.0);

  // Deletes and overwrites after the cutover land on the new owner.
  put_range(300, 500);
  for (int64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(head.Inject(1, Tuple{Value(k)}, 20000).ok());
    model.erase(k);
  }
  ASSERT_TRUE(head.CheckpointAll().ok());
  ASSERT_TRUE(head.AwaitQuiesce(20000));
  EXPECT_EQ(MergedState({w1.get(), w2.get()}), model);

  w1->Stop();
  w2->Stop();
  head.Stop();
}

TEST_F(ElasticFixture, RestartReplaysUnackedSuffix) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));
  uint16_t data_port = w1->data_port();

  std::map<int64_t, std::string> model;
  for (int64_t k = 0; k < 100; ++k) {
    std::string v = "a" + std::to_string(k);
    ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value(v)}, 20000).ok());
    model[k] = v;
  }
  ASSERT_TRUE(head.CheckpointAll().ok());
  ASSERT_TRUE(head.AwaitQuiesce(20000));

  // A second wave that is applied in memory but never checkpointed: the
  // restarted worker must get exactly this suffix replayed.
  for (int64_t k = 50; k < 150; ++k) {
    std::string v = "b" + std::to_string(k);
    ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value(v)}, 20000).ok());
    model[k] = v;
  }
  EXPECT_GT(head.UnackedTotal(), 0u);

  w1->Stop();
  w1.reset();
  auto w1b = MakeWorker(1, head.port(), data_port);
  ASSERT_TRUE(w1b->Start().ok());
  ASSERT_TRUE(w1b->WaitJoined(10000));

  ASSERT_TRUE(head.AwaitQuiesce(30000)) << "replay did not drain the logs";
  ASSERT_TRUE(head.CheckpointAll().ok());
  EXPECT_EQ(MergedState({w1b.get()}), model);

  w1b->Stop();
  head.Stop();
}

// The source of a migration makes the hand-off durable: a restart from its
// store must not bring the migrated partition back.
TEST_F(ElasticFixture, MigratedOutPartitionStaysGoneAfterRestart) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  auto w2 = MakeWorker(2, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w2->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(w2->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));
  uint32_t part = kPartitions;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    if (head.OwnerOf(p) == 2) {
      part = p;
      break;
    }
  }
  ASSERT_NE(part, kPartitions) << "w2 was assigned nothing";
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value("v")}, 20000).ok());
  }
  ASSERT_TRUE(head.CheckpointAll().ok());  // w2's durable epoch claims `part`
  ASSERT_TRUE(head.MigratePartition(part, 1).ok());

  const uint16_t data_port = w2->data_port();
  w2->Stop();  // joins the control thread, so the cutover has finished
  w2 = MakeWorker(2, head.port(), data_port);
  ASSERT_TRUE(w2->Start().ok());
  auto owned = w2->OwnedPartitions();
  EXPECT_EQ(std::find(owned.begin(), owned.end(), part), owned.end())
      << "restart restored partition " << part << " it had migrated out";

  w2->Stop();
  w1->Stop();
  head.Stop();
}

// A worker restarted from an epoch cut before it migrated a partition out
// still claims that partition, so a migration back to it is rejected. The
// head's release of that stale claim must leave the worker live: releasing
// an owned partition checkpoints the release, and doing so while still
// holding the op lock self-deadlocked the worker's control loop (no more
// checkpoints, so its streams were never acked again).
TEST_F(ElasticFixture, ReleaseOfStaleClaimKeepsWorkerLive) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  auto w2 = MakeWorker(2, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w2->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(w2->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));
  uint32_t part = kPartitions;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    if (head.OwnerOf(p) == 2) {
      part = p;
      break;
    }
  }
  ASSERT_NE(part, kPartitions) << "w2 was assigned nothing";
  ASSERT_TRUE(head.CheckpointAll().ok());  // w2's durable epoch claims `part`
  SaveStore(2);
  ASSERT_TRUE(head.MigratePartition(part, 1).ok());

  // The source checkpoints the hand-off right after the cutover; a crash
  // before that checkpoint lands leaves the pre-migration epoch as w2's
  // latest. Recreate that store, then restart w2: it restores the stale
  // claim.
  const uint16_t data_port = w2->data_port();
  w2->Stop();
  RestoreStore(2);
  w2 = MakeWorker(2, head.port(), data_port);
  ASSERT_TRUE(w2->Start().ok());
  ASSERT_TRUE(w2->WaitJoined(10000));
  auto owned = w2->OwnedPartitions();
  ASSERT_NE(std::find(owned.begin(), owned.end(), part), owned.end())
      << "restart did not restore the stale claim; the scenario is gone";

  EXPECT_FALSE(head.MigratePartition(part, 2).ok());
  // The abort released the claim; the worker still answers checkpoints, and
  // the partition can now move to it.
  ASSERT_TRUE(head.CheckpointAll(10000).ok()) << "worker wedged by release";
  owned = w2->OwnedPartitions();
  EXPECT_EQ(std::find(owned.begin(), owned.end(), part), owned.end());
  ASSERT_TRUE(head.MigratePartition(part, 2).ok());
  EXPECT_EQ(head.OwnerOf(part), 2u);

  w2->Stop();
  w1->Stop();
  head.Stop();
}

TEST_F(ElasticFixture, JoinDuringActiveCheckpoint) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  for (int64_t k = 0; k < 400; ++k) {
    ASSERT_TRUE(head
                    .Inject(0, Tuple{Value(k), Value("v" + std::to_string(k))},
                            20000)
                    .ok());
  }
  // Join a second worker while the first is checkpointing.
  std::thread ckpt([&] { ASSERT_TRUE(head.CheckpointAll().ok()); });
  auto w2 = MakeWorker(2, head.port());
  ASSERT_TRUE(w2->Start().ok());
  ASSERT_TRUE(w2->WaitJoined(10000));
  ckpt.join();

  EXPECT_EQ(head.AliveMembers().size(), 2u);
  ASSERT_TRUE(head.AwaitQuiesce(20000));
  w1->Stop();
  w2->Stop();
  head.Stop();
}

// The first `n` keys that route to `partition` (the head's payload[0] hash
// routing).
std::vector<int64_t> KeysOfPartition(uint32_t partition, size_t n) {
  std::vector<int64_t> keys;
  for (int64_t k = 0; keys.size() < n; ++k) {
    if (Value(k).Hash() % kPartitions == partition) {
      keys.push_back(k);
    }
  }
  return keys;
}

// A checkpoint cut on the source between a live migration's rounds must not
// commit the dirty set that the migration's next delta still needs: every
// write made to the partition while it moves has to reach the target. A
// checkpoint thread hammers both workers while a writer keeps overwriting
// the moving partition's keys, and the partition moves back and forth.
TEST_F(ElasticFixture, CheckpointBetweenMigrationRoundsKeepsWrites) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port(), 0, /*serve_feed=*/true);
  auto w2 = MakeWorker(2, head.port(), 0, /*serve_feed=*/true);
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w2->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(w2->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  constexpr uint32_t kPart = 0;
  const std::vector<int64_t> keys = KeysOfPartition(kPart, 300);
  std::map<int64_t, std::string> model;
  for (int64_t k : keys) {
    ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value("a")}, 20000).ok());
    model[k] = "a";
  }
  ASSERT_TRUE(head.CheckpointAll().ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> write_failed{false};
  std::thread writer([&] {
    for (uint64_t i = 0; !stop.load(); ++i) {
      const int64_t k = keys[i % keys.size()];
      std::string v = "w" + std::to_string(i);
      if (!head.Inject(0, Tuple{Value(k), Value(v)}, 20000).ok()) {
        write_failed.store(true);
        return;
      }
      model[k] = std::move(v);  // one writer: the last inject wins
    }
  });
  std::thread checkpointer([&] {
    while (!stop.load()) {
      (void)w1->Checkpoint();
      (void)w2->Checkpoint();
    }
  });
  bool migrated = true;
  for (int i = 0; i < 4 && migrated; ++i) {
    const uint32_t to = head.OwnerOf(kPart) == 1 ? 2 : 1;
    migrated = head.MigratePartition(kPart, to).ok();
    EXPECT_TRUE(migrated) << "migration " << i;
  }
  stop.store(true);
  writer.join();
  checkpointer.join();
  ASSERT_TRUE(migrated);
  ASSERT_FALSE(write_failed.load());

  ASSERT_TRUE(head.CheckpointAll().ok());
  ASSERT_TRUE(head.AwaitQuiesce(20000));
  EXPECT_EQ(MergedState({w1.get(), w2.get()}), model);

  w1->Stop();
  w2->Stop();
  head.Stop();
}

// Every checkpoint after a base is a delta link of the partition's durable
// chain. A restart restores base + deltas — including a delete made inside
// the chain — exactly.
TEST_F(ElasticFixture, RestartRestoresDeltaChainExactly) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));
  const uint16_t data_port = w1->data_port();

  std::map<int64_t, std::string> model;
  LoadDirect(*w1, 400, model);
  const uint64_t base_epoch = LatestMeta(1).epoch;
  // The load was serialised once: each chain is that epoch's base alone.
  for (const auto& sm : LatestMeta(1).states) {
    ASSERT_EQ(sm.chain.size(), 1u) << "p" << sm.instance;
    EXPECT_EQ(sm.chain[0].kind, checkpoint::EpochKind::kFull);
    EXPECT_EQ(sm.chain[0].epoch, base_epoch);
    EXPECT_GT(sm.record_count, 0u);
  }
  auto put = [&](int64_t k, const std::string& v) {
    ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value(v)}, 20000).ok());
    model[k] = v;
  };
  for (int64_t k = 0; k < 20; ++k) {
    put(k, "b" + std::to_string(k));
  }
  ASSERT_TRUE(head.CheckpointAll().ok());
  for (int64_t k = 10; k < 30; ++k) {
    ASSERT_TRUE(head.Inject(1, Tuple{Value(k)}, 20000).ok());  // delete
    model.erase(k);
  }
  // Deletes and puts ride different entry channels: let the deletes land
  // (durably, in their own links) before re-creating one.
  ASSERT_TRUE(head.AwaitQuiesce(20000));
  put(15, "c15");  // re-created after its delete, in a later link
  ASSERT_TRUE(head.CheckpointAll().ok());
  put(300, "d300");
  ASSERT_TRUE(head.CheckpointAll().ok());
  ASSERT_TRUE(head.AwaitQuiesce(20000));
  EXPECT_GE(MinChainLength(1), 4u);
  for (const auto& sm : LatestMeta(1).states) {
    EXPECT_EQ(sm.chain.front().kind, checkpoint::EpochKind::kFull);
    EXPECT_EQ(sm.chain.front().epoch, base_epoch);
    EXPECT_EQ(sm.chain.back().kind, checkpoint::EpochKind::kDelta);
  }

  w1->Stop();
  w1.reset();
  auto w1b = MakeWorker(1, head.port(), data_port);
  ASSERT_TRUE(w1b->Start().ok());
  EXPECT_EQ(MergedState({w1b.get()}), model);
  ASSERT_TRUE(w1b->WaitJoined(10000));
  ASSERT_TRUE(head.AwaitQuiesce(20000));

  // The restored partitions have no delta baseline: the next epoch is a base.
  put(400, "e400");
  ASSERT_TRUE(head.CheckpointAll().ok());
  EXPECT_EQ(MinChainLength(1), 1u);
  EXPECT_EQ(MergedState({w1b.get()}), model);

  w1b->Stop();
  head.Stop();
}

// A damaged newest epoch is one the head may already have trimmed its logs
// for: its acks went out once its meta was published. Falling back to an
// older epoch would restore watermarks the logs no longer reach back to, so
// a restart refuses to start instead of returning with writes missing. Once
// the epoch is whole again, the restart restores every write.
TEST_F(ElasticFixture, RestartRefusesDamagedAckedEpoch) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));
  const uint16_t data_port = w1->data_port();

  std::map<int64_t, std::string> model;
  LoadDirect(*w1, 400, model);
  auto put_range = [&](int64_t lo, int64_t hi, const std::string& tag) {
    for (int64_t k = lo; k < hi; ++k) {
      std::string v = tag + std::to_string(k);
      ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value(v)}, 20000).ok());
      model[k] = v;
    }
  };
  put_range(50, 60, "b");
  ASSERT_TRUE(head.CheckpointAll().ok());
  put_range(0, 10, "c");
  ASSERT_TRUE(head.CheckpointAll().ok());
  ASSERT_TRUE(head.AwaitQuiesce(20000));  // every write acked
  const auto acked = LatestMeta(1);
  EXPECT_GE(MinChainLength(1), 3u);
  put_range(90, 160, "d");  // unacked: the head replays it
  w1->Stop();
  w1.reset();

  const auto meta_path = root_ / "backup" / "meta" /
                         ("node1_epoch" + std::to_string(acked.epoch) +
                          ".meta");
  auto write_meta = [&](const std::vector<uint8_t>& bytes) {
    std::FILE* f = std::fopen(meta_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  };
  // A torn meta.
  std::vector<uint8_t> torn = acked.ToBytes();
  torn.resize(torn.size() / 2);
  write_meta(torn);
  EXPECT_FALSE(MakeWorker(1, head.port(), data_port)->Start().ok())
      << "restarted past a torn acked epoch";
  write_meta(acked.ToBytes());

  // A chain that lost the chunk files of its delta link before the last.
  const auto& sm = acked.states.front();
  ASSERT_GE(sm.chain.size(), 3u);
  const auto moved = MoveLinkAside(1, sm, sm.chain[sm.chain.size() - 2]);
  EXPECT_FALSE(MakeWorker(1, head.port(), data_port)->Start().ok())
      << "restarted from a chain with a missing link";
  for (const auto& [from, to] : moved) {
    std::filesystem::rename(to, from);
  }

  auto w1b = MakeWorker(1, head.port(), data_port);
  ASSERT_TRUE(w1b->Start().ok());
  ASSERT_TRUE(w1b->WaitJoined(10000));
  ASSERT_TRUE(head.AwaitQuiesce(30000)) << "replay did not drain the logs";
  EXPECT_EQ(MergedState({w1b.get()}), model);

  w1b->Stop();
  head.Stop();
}

// The head's m-to-n recovery walks a dead member's chains: each lost
// partition is pushed to a survivor link by link, base first, and the
// replayed suffix lands on top.
TEST_F(ElasticFixture, HeadRecoveryPushesChainedPartitions) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  auto w2 = MakeWorker(2, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w2->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(w2->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));
  ASSERT_FALSE(w1->OwnedPartitions().empty());

  std::map<int64_t, std::string> model;
  LoadDirect(*w1, 400, model);
  LoadDirect(*w2, 400, model);
  auto put_range = [&](int64_t lo, int64_t hi, const std::string& tag) {
    for (int64_t k = lo; k < hi; ++k) {
      std::string v = tag + std::to_string(k);
      ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value(v)}, 20000).ok());
      model[k] = v;
    }
  };
  put_range(100, 120, "b");
  for (int64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(head.Inject(1, Tuple{Value(k)}, 20000).ok());
    model.erase(k);
  }
  // Deletes and puts ride different entry channels: let the deletes land
  // before re-creating some of the keys.
  ASSERT_TRUE(head.AwaitQuiesce(20000));
  put_range(10, 15, "c");  // re-creates deleted keys
  ASSERT_TRUE(head.CheckpointAll().ok());
  ASSERT_TRUE(head.AwaitQuiesce(20000));
  EXPECT_GE(MinChainLength(1), 3u);
  put_range(250, 350, "d");  // unacked at the dead member

  w1->Stop();
  ASSERT_TRUE(head.RecoverMember(1).ok());
  w1.reset();
  ASSERT_TRUE(head.AwaitQuiesce(30000)) << "replay did not drain the logs";
  ASSERT_TRUE(head.CheckpointAll().ok());
  EXPECT_EQ(w2->OwnedPartitions().size(), kPartitions);
  EXPECT_EQ(MergedState({w2.get()}), model);

  w2->Stop();
  head.Stop();
}

// A dead member whose acked chain lost a link: pushing the partition with
// the epoch's watermarks but without that link would drop the link's writes
// for good (the head's logs were trimmed up to those watermarks). The
// recovery fails for that partition and leaves it where it was; the dead
// member's intact partitions still move to the survivor.
TEST_F(ElasticFixture, HeadRecoveryRefusesPartitionWithDamagedChain) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  auto w2 = MakeWorker(2, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w2->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(w2->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  std::map<int64_t, std::string> model;
  LoadDirect(*w1, 400, model);
  for (int64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value("b")}, 20000).ok());
  }
  ASSERT_TRUE(head.CheckpointAll().ok());
  ASSERT_TRUE(head.AwaitQuiesce(20000));  // every write acked
  const auto meta = LatestMeta(1);
  ASSERT_GE(meta.states.size(), 2u);
  const auto& damaged = meta.states.front();
  ASSERT_GE(damaged.chain.size(), 2u);
  MoveLinkAside(1, damaged, damaged.chain.back());

  w1->Stop();
  EXPECT_FALSE(head.RecoverMember(1).ok());
  EXPECT_EQ(head.OwnerOf(damaged.instance), 1u);
  for (const auto& sm : meta.states) {
    if (sm.instance != damaged.instance) {
      EXPECT_EQ(head.OwnerOf(sm.instance), 2u) << "p" << sm.instance;
    }
  }
  w1.reset();
  w2->Stop();
  head.Stop();
}

// A migration the head abandons — here its wait for the source's
// kCtrlPrepared times out at once — must hand the partition's delta tracker
// back on the source: its later checkpoints extend the chain with deltas
// again instead of writing a full base every epoch.
TEST_F(ElasticFixture, AbandonedMigrationReturnsSourceToDeltaLinks) {
  auto opts = HeadOptions();
  opts.migrate_timeout_ms = 0;
  elastic::ElasticHead head(std::move(opts));
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeWorker(1, head.port());
  auto w2 = MakeWorker(2, head.port());
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w2->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(w2->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  const uint32_t part = w1->OwnedPartitions().front();
  std::map<int64_t, std::string> model;
  LoadDirect(*w1, 20000, model);
  LoadDirect(*w2, 400, model);
  EXPECT_FALSE(head.MigratePartition(part, 2).ok());
  EXPECT_EQ(head.OwnerOf(part), 1u);

  // The control channel is ordered: these checkpoints run after the source
  // handled the migration and its abort.
  const std::vector<int64_t> keys = KeysOfPartition(part, 20);
  for (int round = 0; round < 3; ++round) {
    for (int64_t k : keys) {
      std::string v = "r" + std::to_string(round);
      ASSERT_TRUE(head.Inject(0, Tuple{Value(k), Value(v)}, 20000).ok());
      model[k] = v;
    }
    ASSERT_TRUE(head.AwaitQuiesce(20000));
    ASSERT_TRUE(head.CheckpointMember(1, 20000).ok());
  }
  for (const auto& sm : LatestMeta(1).states) {
    if (sm.instance == part) {
      EXPECT_EQ(sm.chain.back().kind, checkpoint::EpochKind::kDelta);
      EXPECT_GE(sm.chain.size(), 2u);
    }
  }
  EXPECT_EQ(MergedState({w1.get(), w2.get()}), model);

  w1->Stop();
  w2->Stop();
  head.Stop();
}

}  // namespace
}  // namespace sdg
