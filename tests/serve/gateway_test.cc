// In-process end-to-end test of the serve front door: a real ElasticHead +
// ServeGateway, a real ElasticWorker with the replica feed enabled, and a
// KvClient speaking the request/response protocol over loopback TCP. The
// single-process complement of the multi-process chaos serve test.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/kv.h"
#include "src/net/frame.h"
#include "src/runtime/elastic.h"
#include "src/runtime/executor.h"
#include "src/serve/client.h"
#include "src/serve/gateway.h"

namespace sdg::serve {
namespace {

constexpr uint32_t kPartitions = 4;

class GatewayFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("sdg_gateway_test_" +
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
    h.entries = {"put", "get", "del"};  // serve fleet entry order
    h.backup_root = (root_ / "backup").string();
    h.monitor_interval_ms = 20;
    h.migrate_timeout_ms = 20000;
    return h;
  }

  std::unique_ptr<elastic::ElasticWorker> MakeServeWorker(
      uint32_t member_id, uint16_t head_port, int ckpt_interval_ms) {
    apps::KvOptions kv;
    kv.partitions = kPartitions;
    auto g = apps::BuildKvSdg(kv);
    EXPECT_TRUE(g.ok());
    elastic::ElasticWorkerOptions w;
    w.member_id = member_id;
    w.name = "w" + std::to_string(member_id);
    w.head_port = head_port;
    w.state = "store";
    w.partitions = kPartitions;
    w.entries = {"put", "get", "del"};
    w.backup_root = (root_ / "backup").string();
    w.checkpoint_interval_ms = ckpt_interval_ms;
    w.serve_feed = true;
    w.forward_sinks = {"get"};
    return std::make_unique<elastic::ElasticWorker>(std::move(*g),
                                                    std::move(w));
  }

  std::filesystem::path root_;
};

TEST_F(GatewayFixture, PutGetDelOverTheWire) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeServeWorker(1, head.port(), /*ckpt_interval_ms=*/100);
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  GatewayOptions go;
  go.partitions = kPartitions;
  ServeGateway gw(&head, go);
  ASSERT_TRUE(gw.Start().ok());

  KvClient client({"127.0.0.1", head.port()});
  ASSERT_TRUE(client.Connect().ok());

  std::map<int64_t, std::string> model;
  for (int64_t k = 0; k < 60; ++k) {
    std::string v = "v" + std::to_string(k);
    auto resp = client.Put(k, v);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->code, net::kRespOk);
    model[k] = v;
  }
  for (int64_t k = 0; k < 60; k += 4) {
    auto resp = client.Del(k);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->code, net::kRespOk);
    model.erase(k);
  }

  // Strong gets see every write exactly (writes and reads ride separate
  // per-entry channels, so allow a short settle per key).
  for (int64_t k = 0; k < 60; ++k) {
    std::string want;
    if (auto it = model.find(k); it != model.end()) {
      want = it->second;
    }
    bool matched = false;
    for (int attempt = 0; attempt < 100 && !matched; ++attempt) {
      auto resp = client.Get(k);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      if (resp->code == net::kRespOk && resp->value == want) {
        matched = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    EXPECT_TRUE(matched) << "key " << k;
  }

  auto st = gw.stats();
  EXPECT_EQ(st.puts, 60u);
  EXPECT_EQ(st.dels, 15u);
  EXPECT_GE(st.strong_gets, 60u);
  EXPECT_EQ(st.errors, 0u);
  EXPECT_GT(st.batches, 0u);

  client.Close();
  gw.Stop();
  w1->Stop();
  head.Stop();
}

TEST_F(GatewayFixture, BoundedStaleReadsComeFromReplica) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeServeWorker(1, head.port(), /*ckpt_interval_ms=*/50);
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  GatewayOptions go;
  go.partitions = kPartitions;
  ServeGateway gw(&head, go);
  ASSERT_TRUE(gw.Start().ok());

  KvClient client({"127.0.0.1", head.port()});
  ASSERT_TRUE(client.Connect().ok());

  for (int64_t k = 0; k < 40; ++k) {
    auto resp = client.Put(k, "r" + std::to_string(k));
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->code, net::kRespOk);
  }

  // Wait until every partition's replica has applied at least one epoch by
  // probing with stale gets (the fleet is quiescing, so replicas converge).
  uint64_t replica_answers = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (int64_t k = 0; k < 40 && replica_answers < 40;) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "replicas never caught up: " << replica_answers << " answers, "
        << gw.stats().replica_epochs_applied << " epochs applied";
    auto resp = client.Get(k, /*stale=*/true, /*max_epoch_lag=*/8);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->code, net::kRespOk);
    if ((resp->flags & net::kRespFromReplica) != 0 &&
        resp->value == "r" + std::to_string(k)) {
      // An admissible replica may briefly lag (max_epoch_lag epochs) while
      // the feed drains, so a stale value is retried, not failed — but the
      // replica must CONVERGE to the acked value before the deadline.
      EXPECT_GT(resp->epoch, 0u);
      ++replica_answers;
      ++k;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_EQ(replica_answers, 40u);
  EXPECT_GT(gw.stats().replica_hits, 0u);
  EXPECT_GT(gw.stats().replica_epochs_applied, 0u);

  client.Close();
  gw.Stop();
  w1->Stop();
  head.Stop();
}

TEST_F(GatewayFixture, OverloadShedsWithOverloadedAndRecovers) {
  elastic::ElasticHead head(HeadOptions());
  ASSERT_TRUE(head.Start().ok());
  auto w1 = MakeServeWorker(1, head.port(), /*ckpt_interval_ms=*/100);
  ASSERT_TRUE(w1->Start().ok());
  ASSERT_TRUE(w1->WaitJoined(10000));
  ASSERT_TRUE(head.WaitForAssignment(10000));

  GatewayOptions go;
  go.partitions = kPartitions;
  go.admission.high_water = 64;
  go.admission.low_water = 8;
  ServeGateway gw(&head, go);
  ASSERT_TRUE(gw.Start().ok());

  KvClient client({"127.0.0.1", head.port()});
  ASSERT_TRUE(client.Connect().ok());

  // Pipeline a burst far past the high-water mark. Every request must get a
  // response — ok or overloaded, never silence.
  constexpr int kBurst = 1500;
  for (int i = 0; i < kBurst; ++i) {
    net::RequestMsg req;
    req.request_id = client.NextRequestId();
    req.op = net::kOpPut;
    req.key = 500000 + i;
    req.value = "burst";
    ASSERT_TRUE(client.Send(req).ok());
  }
  int ok = 0, overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto resp = client.Recv();
    ASSERT_TRUE(resp.ok()) << "response " << i << " lost: "
                           << resp.status().ToString();
    if (resp->code == net::kRespOk) {
      ++ok;
    } else if (resp->code == net::kRespOverloaded) {
      ++overloaded;
    }
  }
  EXPECT_GT(overloaded, 0) << "burst never shed";
  EXPECT_GT(ok, 0) << "everything shed";
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_GT(gw.stats().shed, 0u);
  EXPECT_EQ(gw.admission().shed(), gw.stats().shed);

  // Hysteresis: once the backlog drains below low water, service resumes.
  bool recovered = false;
  for (int attempt = 0; attempt < 200 && !recovered; ++attempt) {
    auto resp = client.Put(1, "after");
    ASSERT_TRUE(resp.ok());
    if (resp->code == net::kRespOk) {
      recovered = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(recovered) << "gateway stuck shedding after drain";

  client.Close();
  gw.Stop();
  w1->Stop();
  head.Stop();
}

// Threads this process has right now (one /proc/self/task entry each).
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

// The thread count once it has held still for 200 ms (or after 10 s):
// detached open/reconnect threads may still be returning when Stop does.
size_t SettledThreadCount() {
  size_t last = ThreadCount();
  int stable_polls = 0;
  for (int i = 0; i < 500 && stable_polls < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const size_t now = ThreadCount();
    stable_polls = now == last ? stable_polls + 1 : 0;
    last = now;
  }
  return last;
}

// Starts and stops a whole head + gateway + worker fleet twice in one
// process. Each fleet dials data channels, a reply stream and a replica
// feed, and serves puts and strong gets, so every setup, stream-open and
// reconnect thread kind gets spawned. Once the first fleet is gone, only the
// process-lifetime pools may remain: Executor::Shared (one thread per
// worker) and EventLoop::Shared (one thread). The second fleet must then
// leave the count exactly where the first did.
TEST_F(GatewayFixture, StoppedFleetLeavesNoThreadsBehind) {
  auto run_fleet = [&] {
    // A fresh deployment each time, not a restart of the previous one.
    std::filesystem::remove_all(root_ / "backup");
    elastic::ElasticHead head(HeadOptions());
    ASSERT_TRUE(head.Start().ok());
    auto w1 = MakeServeWorker(1, head.port(), /*ckpt_interval_ms=*/50);
    ASSERT_TRUE(w1->Start().ok());
    ASSERT_TRUE(w1->WaitJoined(10000));
    ASSERT_TRUE(head.WaitForAssignment(10000));
    GatewayOptions go;
    go.partitions = kPartitions;
    ServeGateway gw(&head, go);
    ASSERT_TRUE(gw.Start().ok());
    KvClient client({"127.0.0.1", head.port()});
    ASSERT_TRUE(client.Connect().ok());
    for (int64_t k = 0; k < 20; ++k) {
      auto put = client.Put(k, "v");
      ASSERT_TRUE(put.ok()) << put.status().ToString();
      auto get = client.Get(k);
      ASSERT_TRUE(get.ok()) << get.status().ToString();
    }
    client.Close();
    gw.Stop();
    w1->Stop();
    head.Stop();
  };

  const size_t before = SettledThreadCount();
  run_fleet();
  if (HasFatalFailure()) {
    return;
  }
  const size_t after_first = SettledThreadCount();
  RecordProperty("threads_before", static_cast<int>(before));
  RecordProperty("threads_after_first", static_cast<int>(after_first));
  EXPECT_LE(after_first,
            before + runtime::Executor::Shared()->workers() + 1)
      << "more than the shared executor and event loop outlived the fleet";
  run_fleet();
  if (HasFatalFailure()) {
    return;
  }
  size_t after_second = ThreadCount();
  for (int i = 0; i < 500 && after_second != after_first; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    after_second = ThreadCount();
  }
  EXPECT_EQ(after_second, after_first)
      << "a stopped fleet left threads behind";
}

}  // namespace
}  // namespace sdg::serve
