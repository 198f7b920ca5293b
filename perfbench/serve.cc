// serve_mixed: open-loop KV load at a fixed rate against a loopback serving
// fleet (ElasticHead + ServeGateway + one ElasticWorker with the replica feed
// on), deployed in-process from the public classes.
#include "perfbench/workloads.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/kv.h"
#include "src/common/rng.h"
#include "src/common/value.h"
#include "src/runtime/elastic.h"
#include "src/serve/client.h"
#include "src/serve/gateway.h"

namespace sdg::perfbench {
namespace {

constexpr uint32_t kPartitions = 4;
constexpr int64_t kKeys = 65536;
constexpr double kStrongFrac = 0.5;  // the rest of the mix is puts
constexpr double kNominalQps = 2000;
constexpr double kSloMs = 20.0;
constexpr uint32_t kReplicaLag = 8;  // warm-up: replicas answer within it
constexpr int kConnections = 2;  // x (sender + receiver) = 4 generator threads
constexpr size_t kValueBytes = 128;
constexpr size_t kPipeline = 1024;  // per-connection outstanding cap
constexpr int kCheckpointPeriodMs = 500;
constexpr int kSamplePeriodMs = 20;
constexpr int kFleets = 4;
constexpr int kWindowsPerFleet = 3;
constexpr double kTailSeconds = 0.5;  // un-checkpointed load before a restart
// The admission signal counts the head's unacked log, which grows by the
// request rate times the checkpoint interval. At the default high-water mark
// (4096) that alone sheds above ~4k requests/s with a 1 s interval, so the
// fleet is deployed with a mark that leaves admission to real overload.
constexpr uint64_t kAdmissionHighWater = 1 << 18;

// "k<key>:<seq>" padded to kValueBytes: every value names its key and its
// per-key write sequence, so any read can be checked without a history.
std::string MakeValue(int64_t key, uint32_t seq) {
  char head[48];
  int n = std::snprintf(head, sizeof(head), "k%" PRId64 ":%" PRIu32 ";", key,
                        seq);
  std::string v(head, static_cast<size_t>(n));
  v.resize(kValueBytes, '.');
  return v;
}
bool ParseValue(const std::string& v, int64_t* key, uint32_t* seq) {
  if (v.size() < 4 || v[0] != 'k') {
    return false;
  }
  return std::sscanf(v.c_str(), "k%" SCNd64 ":%" SCNu32 ";", key, seq) == 2;
}

enum Op : uint8_t { kPut, kStrong };
const char* const kOpSpan[] = {"kv.put", "kv.strong_get"};

// Per-key write bookkeeping. Keys are split across connections by key %
// kConnections, so each key has one writer and a defined write order.
struct KeyBook {
  explicit KeyBook(int64_t n)
      : sent(static_cast<size_t>(n)), acked(static_cast<size_t>(n)),
        errored(static_cast<size_t>(n)), touched(static_cast<size_t>(n)) {}
  std::vector<std::atomic<uint32_t>> sent;   // highest seq sent
  std::vector<std::atomic<uint32_t>> acked;  // highest seq acked kRespOk
  std::vector<std::atomic<uint8_t>> errored;  // a put ended in kRespError
  std::vector<std::atomic<uint8_t>> touched;
};

struct OpRec {
  Op op = kPut;
  int64_t key = 0;
  uint32_t seq = 0;
  int64_t due_ns = 0;  // offset from window start
  std::atomic<uint8_t> done{0};
};

struct WindowResult {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t timeouts = 0;
  uint64_t wrong = 0;
  // CPU time of the system over the window and its drain: the process's,
  // less the generator's threads and the main thread waiting on them.
  double cpu_s = 0;
  std::vector<double> latency_ms;  // all completed, from due time
  std::vector<double> latency_by_op_ms[2];
  std::vector<double> late_ms;  // send time - due time
  std::vector<std::pair<int64_t, int64_t>> req_windows;  // [due, done] ns

  uint64_t Failed() const { return shed + errors + timeouts + wrong; }
  // On a copy: latency_ms[i] pairs with req_windows[i].
  double P(double q) const {
    std::vector<double> v = latency_ms;
    return Quantile(v, q);
  }
};

// A full serving fleet on loopback.
struct Fleet {
  std::string root;
  std::unique_ptr<elastic::ElasticHead> head;
  std::unique_ptr<elastic::ElasticWorker> worker;
  std::unique_ptr<serve::ServeGateway> gateway;

  Status Start() {
    elastic::ElasticHeadOptions h;
    h.state = "store";
    h.partitions = kPartitions;
    h.entries = {"put", "get", "del"};
    h.backup_root = root + "/backup";
    h.monitor_interval_ms = 50;
    head = std::make_unique<elastic::ElasticHead>(h);
    SDG_RETURN_IF_ERROR(head->Start());

    SDG_RETURN_IF_ERROR(StartWorker(0));
    serve::GatewayOptions go;
    go.partitions = kPartitions;
    go.batcher.slo_p99_ms = kSloMs;
    go.admission.high_water = kAdmissionHighWater;
    go.admission.low_water = kAdmissionHighWater / 4;
    gateway = std::make_unique<serve::ServeGateway>(head.get(), go);
    return gateway->Start();
  }

  // The --serve-style worker; `data_port` 0 picks one, a restart reuses the
  // previous one so the head's channels redial it.
  Status StartWorker(uint16_t data_port) {
    apps::KvOptions kv;
    kv.partitions = kPartitions;
    auto g = apps::BuildKvSdg(kv);
    SDG_RETURN_IF_ERROR(g.status());
    elastic::ElasticWorkerOptions w;
    w.member_id = 1;
    w.name = "w1";
    w.head_port = head->port();
    w.data_port = data_port;
    w.state = "store";
    w.partitions = kPartitions;
    w.entries = {"put", "get", "del"};
    w.backup_root = root + "/backup";
    w.checkpoint_interval_ms = 0;  // the benchmark checkpoints on its period
    w.serve_feed = true;
    w.forward_sinks = {"get"};
    worker = std::make_unique<elastic::ElasticWorker>(std::move(*g),
                                                      std::move(w));
    {
      ScopedSpan span("runtime.worker_start");
      SDG_RETURN_IF_ERROR(worker->Start());
    }
    if (!worker->WaitJoined(20000) || !head->WaitForAssignment(20000)) {
      return Status(StatusCode::kDeadlineExceeded, "worker never joined");
    }
    return Status();
  }

  // Writes seq-0 values for every key straight into the worker's deployment
  // (the bulk ingest path, not the per-request client path, which the
  // windows measure), checkpoints them, and waits until every partition's
  // replica answers a bounded-stale read.
  Status Prefill() {
    constexpr int64_t kBatch = 4096;
    for (int64_t base = 0; base < kKeys; base += kBatch) {
      std::vector<Tuple> batch;
      for (int64_t k = base; k < std::min(kKeys, base + kBatch); ++k) {
        batch.push_back(Tuple{Value(k), Value(MakeValue(k, 0))});
      }
      SDG_RETURN_IF_ERROR(
          worker->deployment()->InjectAll("put", std::move(batch)));
    }
    worker->deployment()->Drain();
    SDG_RETURN_IF_ERROR(worker->Checkpoint());
    const auto& table = gateway->replicas();
    auto deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      std::vector<bool> warm(kPartitions, false);
      uint32_t n = 0;
      for (int64_t k = 0; k < kKeys && n < kPartitions; ++k) {
        uint32_t p = table.PartitionOf(k);
        if (!warm[p] && table.TryGet(k, kReplicaLag).admissible) {
          warm[p] = true;
          ++n;
        }
      }
      if (n == kPartitions) {
        return Status();
      }
      if (Clock::now() > deadline) {
        return Status(StatusCode::kDeadlineExceeded, "replica warm-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // Gateway first, then the head, then the worker: clients and the head's
  // channels go away before the worker's server does, so teardown does not
  // trip the transport's reconnect path.
  void Stop() {
    if (gateway != nullptr) {
      gateway->Stop();
    }
    if (head != nullptr) {
      head->Stop();
    }
    if (worker != nullptr) {
      worker->Stop();
    }
    gateway.reset();
    head.reset();
    worker.reset();
  }
};

// ESTABLISHED TCP sockets whose local port is `port` (IPv4 and IPv6).
int EstablishedOnPort(uint16_t port) {
  int n = 0;
  for (const char* path : {"/proc/net/tcp", "/proc/net/tcp6"}) {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    while (std::getline(in, line)) {
      std::istringstream ss(line);
      std::string sl, local, remote, st;
      ss >> sl >> local >> remote >> st;
      auto colon = local.rfind(':');
      if (colon == std::string::npos || st != "01") {
        continue;
      }
      if (std::stoul(local.substr(colon + 1), nullptr, 16) == port) {
        ++n;
      }
    }
  }
  return n;
}

uint64_t BackupBytes(const std::string& root) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(root, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec) && it->path().extension() == ".bin") {
      bytes += it->file_size(ec);
    }
  }
  return bytes;
}

// The seeded op stream. One Zipf generator over the key space; the mix and
// the per-key write sequence are drawn in schedule order.
class OpSource {
 public:
  explicit OpSource(uint64_t seed)
      : zipf_(static_cast<uint64_t>(kKeys), 0.99, seed),
        rng_(seed ^ 0x5eedf00dULL), seq_(static_cast<size_t>(kKeys), 0) {}

  // `seconds` of ops at `qps`, split by connection.
  std::vector<std::vector<std::unique_ptr<OpRec>>> Window(double qps,
                                                          double seconds) {
    std::vector<std::vector<std::unique_ptr<OpRec>>> out(kConnections);
    auto n = static_cast<uint64_t>(qps * seconds);
    for (uint64_t i = 0; i < n; ++i) {
      auto rec = std::make_unique<OpRec>();
      rec->key = static_cast<int64_t>(zipf_.Next());
      if (rng_.NextDouble() < kStrongFrac) {
        rec->op = kStrong;
      } else {
        rec->op = kPut;
        rec->seq = ++seq_[static_cast<size_t>(rec->key)];
      }
      rec->due_ns = static_cast<int64_t>(1e9 * static_cast<double>(i) / qps);
      out[static_cast<size_t>(rec->key % kConnections)].push_back(
          std::move(rec));
    }
    return out;
  }

 private:
  ZipfGenerator zipf_;
  Rng rng_;
  std::vector<uint32_t> seq_;
};

// Checks one get response against the key's write history.
bool GetValueOk(const std::string& value, int64_t key, const KeyBook& book) {
  int64_t k = 0;
  uint32_t seq = 0;
  if (!ParseValue(value, &k, &seq) || k != key) {
    return false;
  }
  return seq <= book.sent[static_cast<size_t>(key)].load();
}

// Runs one open-loop window: kConnections senders pace the pre-generated
// schedule (latency counts from each op's due time, never from its send),
// kConnections receivers complete ops in arrival order.
WindowResult RunWindow(std::vector<std::unique_ptr<serve::KvClient>>& clients,
                       std::vector<std::vector<std::unique_ptr<OpRec>>> ops,
                       double seconds, uint64_t id_base, KeyBook& book) {
  WindowResult r;
  Tracer& tracer = Tracer::Get();
  const double cpu0 = ProcessCpuSeconds();
  const double main_cpu0 = ThreadCpuSeconds();
  std::mutex gen_mu;
  double gen_cpu_s = 0;  // generator threads, each added as it exits
  // Adds the calling thread's CPU time to gen_cpu_s when the thread exits.
  struct ChargeGenerator {
    std::mutex& mu;
    double& total;
    ~ChargeGenerator() {
      double t = ThreadCpuSeconds();
      std::lock_guard<std::mutex> lock(mu);
      total += t;
    }
  };
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::atomic<uint64_t> sent{0}, completed{0};
  std::vector<WindowResult> per(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    auto& mine = ops[static_cast<size_t>(c)];
    auto& client = *clients[static_cast<size_t>(c)];
    auto& res = per[static_cast<size_t>(c)];
    threads.emplace_back([&] {  // receiver
      ChargeGenerator charge{gen_mu, gen_cpu_s};
      size_t got = 0;
      while (got < mine.size()) {
        auto resp = client.Recv();
        Clock::time_point now = Clock::now();
        if (!resp.ok()) {
          return;  // wire cut after the drain deadline
        }
        if (resp->request_id < id_base ||
            resp->request_id >= id_base + mine.size()) {
          continue;  // a straggler of an earlier window
        }
        OpRec& rec = *mine[resp->request_id - id_base];
        if (rec.done.exchange(1) != 0) {
          continue;
        }
        ++got;
        completed.fetch_add(1, std::memory_order_relaxed);
        auto due = start + std::chrono::nanoseconds(rec.due_ns);
        double ms = MsBetween(due, now);
        size_t key = static_cast<size_t>(rec.key);
        if (resp->code == net::kRespOk && rec.op == kPut) {
          uint32_t prev = book.acked[key].load();
          while (prev < rec.seq &&
                 !book.acked[key].compare_exchange_weak(prev, rec.seq)) {
          }
        } else if (resp->code == net::kRespError && rec.op == kPut) {
          book.errored[key].store(1);
        }
        if (resp->code == net::kRespOk && rec.op == kStrong &&
            !GetValueOk(resp->value, rec.key, book)) {
          if (res.wrong < 3) {
            std::fprintf(stderr,
                         "wrong get of key %lld: value '%.20s' (sent seq %u, "
                         "acked seq %u)\n",
                         static_cast<long long>(rec.key), resp->value.c_str(),
                         book.sent[key].load(), book.acked[key].load());
          }
          ++res.wrong;
          continue;
        }
        if (resp->code == net::kRespOverloaded) {
          ++res.shed;
          continue;
        }
        if (resp->code != net::kRespOk) {
          ++res.errors;
          continue;
        }
        ++res.ok;
        res.latency_ms.push_back(ms);
        res.latency_by_op_ms[rec.op].push_back(ms);
        res.req_windows.push_back({tracer.ToNs(due), tracer.ToNs(now)});
        if (tracer.enabled()) {
          Span s;
          s.id = tracer.NextId();
          s.request = resp->request_id;
          s.name = kOpSpan[rec.op];
          s.start_ns = tracer.ToNs(due);
          s.end_ns = tracer.ToNs(now);
          tracer.Record(s);
        }
      }
    });
    threads.emplace_back([&] {  // sender
      ChargeGenerator charge{gen_mu, gen_cpu_s};
      for (size_t i = 0; i < mine.size(); ++i) {
        OpRec& rec = *mine[i];
        auto due = start + std::chrono::nanoseconds(rec.due_ns);
        std::this_thread::sleep_until(due);
        while (sent.load(std::memory_order_relaxed) -
                   completed.load(std::memory_order_relaxed) >=
               kPipeline * kConnections) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        net::RequestMsg req;
        req.request_id = id_base + i;
        req.key = rec.key;
        size_t key = static_cast<size_t>(rec.key);
        book.touched[key].store(1, std::memory_order_relaxed);
        if (rec.op == kPut) {
          req.op = net::kOpPut;
          req.value = MakeValue(rec.key, rec.seq);
          book.sent[key].store(rec.seq);
        } else {
          req.op = net::kOpGet;
        }
        res.late_ms.push_back(MsBetween(due, Clock::now()));
        sent.fetch_add(1, std::memory_order_relaxed);
        if (!client.Send(req).ok()) {
          break;
        }
      }
    });
  }
  // Every op gets until the request timeout past the schedule's end to
  // complete; the rest count as timeouts.
  uint64_t total = 0;
  for (auto& m : ops) {
    total += m.size();
  }
  auto drain_deadline =
      start + std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9)) +
      std::chrono::seconds(6);
  while (completed.load() < total && Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (completed.load() < total) {
    for (auto& c : clients) {
      c->Shutdown();  // wakes the receivers; the fleet's clients are done
    }
  }
  for (auto& t : threads) {
    t.join();
  }
  r.cpu_s = ProcessCpuSeconds() - cpu0 - gen_cpu_s -
            (ThreadCpuSeconds() - main_cpu0);
  r.attempted = total;
  r.timeouts = total - completed.load();
  for (auto& p : per) {
    r.ok += p.ok;
    r.shed += p.shed;
    r.errors += p.errors;
    r.wrong += p.wrong;
    r.latency_ms.insert(r.latency_ms.end(), p.latency_ms.begin(),
                        p.latency_ms.end());
    for (int o = 0; o < 2; ++o) {
      r.latency_by_op_ms[o].insert(r.latency_by_op_ms[o].end(),
                                   p.latency_by_op_ms[o].begin(),
                                   p.latency_by_op_ms[o].end());
    }
    r.late_ms.insert(r.late_ms.end(), p.late_ms.begin(), p.late_ms.end());
    r.req_windows.insert(r.req_windows.end(), p.req_windows.begin(),
                         p.req_windows.end());
  }
  return r;
}

std::vector<std::unique_ptr<serve::KvClient>> Connect(uint16_t port) {
  std::vector<std::unique_ptr<serve::KvClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    serve::KvClientOptions o;
    o.port = port;
    auto client = std::make_unique<serve::KvClient>(o);
    if (!client->Connect().ok()) {
      return {};
    }
    clients.push_back(std::move(client));
  }
  return clients;
}

// Waits until every acked write is applied at the worker (checkpoint +
// quiesce), then strong-gets every touched key, pipelined, and compares it
// with the last acked write. Returns the number of mismatching keys.
uint64_t ReadBack(Fleet& fleet, const KeyBook& book, uint64_t* attempted) {
  for (int i = 0; i < 50; ++i) {
    if (fleet.worker->Checkpoint().ok() && fleet.head->AwaitQuiesce(200)) {
      break;
    }
  }
  auto clients = Connect(fleet.head->port());
  if (clients.empty()) {
    return 1;
  }
  std::vector<int64_t> touched;
  for (int64_t k = 0; k < kKeys; ++k) {
    if (book.touched[static_cast<size_t>(k)].load() != 0) {
      touched.push_back(k);
    }
  }
  *attempted += touched.size();
  // Pipelined strong gets, kWindow outstanding; a shed get never touched
  // state, so it is sent again (up to kMaxSheds times in all).
  constexpr size_t kWindow = 256;
  constexpr int kMaxSheds = 10000;
  std::vector<size_t> todo(touched.size());
  for (size_t i = 0; i < todo.size(); ++i) {
    todo[i] = todo.size() - 1 - i;  // popped from the back, in key order
  }
  auto& client = *clients[0];
  uint64_t bad = 0;
  size_t outstanding = 0, finished = 0;
  int sheds = 0;
  while (finished < touched.size()) {
    while (!todo.empty() && outstanding < kWindow) {
      net::RequestMsg req;
      req.request_id = todo.back() + 1;
      req.op = net::kOpGet;
      req.key = touched[todo.back()];
      todo.pop_back();
      if (!client.Send(req).ok()) {
        return bad + (touched.size() - finished);
      }
      ++outstanding;
    }
    auto resp = client.Recv();
    if (!resp.ok()) {
      return bad + (touched.size() - finished);
    }
    --outstanding;
    if (resp->request_id == 0 || resp->request_id > touched.size()) {
      continue;
    }
    if (resp->code == net::kRespOverloaded && ++sheds <= kMaxSheds) {
      todo.push_back(resp->request_id - 1);
      continue;
    }
    ++finished;
    int64_t key = touched[resp->request_id - 1];
    size_t slot = static_cast<size_t>(key);
    int64_t k = 0;
    uint32_t seq = 0;
    uint32_t acked = book.acked[slot].load();
    bool ok = resp->code == net::kRespOk &&
              ParseValue(resp->value, &k, &seq) && k == key &&
              (seq == acked || (seq > acked && book.errored[slot].load() != 0 &&
                                seq <= book.sent[slot].load()));
    if (!ok) {
      if (bad < 5) {
        std::fprintf(stderr,
                     "read-back key %lld: code %d value '%.24s', last acked "
                     "seq %u\n",
                     static_cast<long long>(key), resp->code,
                     resp->value.c_str(), acked);
      }
      ++bad;
    }
  }
  return bad;
}

// Stops the worker without a final checkpoint and starts a fresh one under
// the same member id and data port: it restores the latest epoch, rejoins,
// and the head replays the unacked suffix. Returns false on failure.
bool RestartWorker(Fleet& fleet, double* restore_s, double* recovery_s) {
  ScopedSpan span("runtime.worker_restart");
  uint16_t port = fleet.worker->data_port();
  auto t0 = Clock::now();
  fleet.worker->Stop();
  fleet.worker.reset();
  Status st = fleet.StartWorker(port);
  *restore_s = SecondsBetween(t0, Clock::now());
  if (!st.ok()) {
    std::fprintf(stderr, "worker restart: %s\n", st.ToString().c_str());
    return false;
  }
  // Recovered once a strong get on every partition is answered.
  auto clients = Connect(fleet.head->port());
  if (clients.empty()) {
    return false;
  }
  std::vector<bool> up(kPartitions, false);
  uint32_t n = 0;
  auto deadline = Clock::now() + std::chrono::seconds(30);
  for (int64_t k = 0; n < kPartitions && Clock::now() < deadline; ++k) {
    uint32_t p = fleet.gateway->replicas().PartitionOf(k % kKeys);
    if (up[p]) {
      continue;
    }
    auto resp = clients[0]->Get(k % kKeys);
    if (resp.ok() && resp->code == net::kRespOk) {
      up[p] = true;
      ++n;
    }
  }
  *recovery_s = SecondsBetween(t0, Clock::now());
  return n == kPartitions;
}

// Gateway counters and layer snapshots bracketing one traced window.
struct LayerSnap {
  serve::ServeGateway::Stats gw;
  sdg::ExecutorStats exec;
  uint64_t processed = 0;
  Clock::time_point at;

  static LayerSnap Take(Fleet& f) {
    LayerSnap s;
    s.gw = f.gateway->stats();
    s.exec = f.worker->deployment()->ExecutorStatsSnapshot();
    s.processed = f.worker->deployment()->TotalProcessed();
    s.at = Clock::now();
    return s;
  }
};

// Everything the traced windows of a run accumulate for the per-layer
// metrics.
struct LayerAcc {
  std::vector<double> req_in_ckpt, req_out_ckpt;
  std::vector<double> unacked, queue_depth, ready_depth, sockets;
  std::vector<double> ckpt_ms, ckpt_bytes;
  double ckpt_busy_s = 0, seconds = 0;
  uint64_t batches = 0, batched_items = 0, accepted = 0, shed = 0;
  uint64_t tasks = 0, steals = 0, processed = 0;
  double state_bytes = 0;

  void AddWindow(const LayerSnap& a, const LayerSnap& b) {
    batches += b.gw.batches - a.gw.batches;
    batched_items += (b.gw.puts - a.gw.puts) + (b.gw.dels - a.gw.dels) +
                     (b.gw.strong_gets - a.gw.strong_gets);
    accepted += b.gw.accepted - a.gw.accepted;
    shed += b.gw.shed - a.gw.shed;
    tasks += b.exec.tasks_run - a.exec.tasks_run;
    steals += b.exec.steals - a.exec.steals;
    processed += b.processed - a.processed;
    seconds += SecondsBetween(a.at, b.at);
  }
};

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// Everything the fleets of a run accumulate.
struct ServeRun {
  std::vector<double> setup_s, recovery_s, restore_s;
  double peak_rss_mb = 0;  // VmHWM when the first fleet has stopped
  // Per untraced and per traced window: p50, p99 and CPU per request.
  std::vector<double> p50, p99, cpu_us, traced_cpu_us;
  uint64_t attempted = 0, failed = 0, wrong = 0;
  uint64_t readback_attempted = 0, readback_bad = 0;
  WindowResult traced;  // traced windows, pooled
  LayerAcc acc;
};

void Pool(WindowResult& into, const WindowResult& r) {
  into.ok += r.ok;
  into.latency_ms.insert(into.latency_ms.end(), r.latency_ms.begin(),
                         r.latency_ms.end());
  for (int o = 0; o < 2; ++o) {
    into.latency_by_op_ms[o].insert(into.latency_by_op_ms[o].end(),
                                    r.latency_by_op_ms[o].begin(),
                                    r.latency_by_op_ms[o].end());
  }
  into.late_ms.insert(into.late_ms.end(), r.late_ms.begin(), r.late_ms.end());
}

// Set-up; then kWindowsPerFleet windows at the nominal rate; then an
// un-checkpointed tail, a worker restart, the read-back and teardown.
// Returns false when the fleet could not be run at all.
bool RunFleet(ServeRun& run, const RunOptions& opts, int index,
              double window_s, Result& out) {
  Tracer& tracer = Tracer::Get();
  LayerAcc& acc = run.acc;
  Fleet fleet;
  fleet.root = WorkDir("serve_mixed/fleet" + std::to_string(index));
  auto t0 = Clock::now();
  Status st = fleet.Start();
  if (st.ok()) {
    st = fleet.Prefill();
  }
  if (!st.ok()) {
    out.Fail(1, "fleet set-up: " + st.ToString());
    fleet.Stop();
    return false;
  }
  run.setup_s.push_back(SecondsBetween(t0, Clock::now()));
  KeyBook book(kKeys);
  OpSource src(opts.seed * 7919 + static_cast<uint64_t>(index));
  auto clients = Connect(fleet.head->port());
  if (clients.empty()) {
    out.Fail(1, "connect");
    fleet.Stop();
    return false;
  }
  uint64_t id_base = 1;
  auto run_window = [&](double secs) {
    auto ops = src.Window(kNominalQps, secs);
    WindowResult r = RunWindow(clients, std::move(ops), secs, id_base, book);
    id_base += r.attempted + 1;
    run.attempted += r.attempted;
    run.failed += r.Failed();
    run.wrong += r.wrong;
    if (r.timeouts > 0) {
      clients = Connect(fleet.head->port());  // receivers were cut
    }
    return r;
  };
  auto checkpoint = [&] {
    Status cst = fleet.worker->Checkpoint();
    if (!cst.ok()) {
      out.Fail(1, "worker checkpoint: " + cst.ToString());
    }
  };
  // Before each window: a checkpoint (so the window starts with the head's
  // log trimmed), then a wait until the gateway has applied that epoch's
  // replica feed (so its apply does not land inside the window).
  auto settle = [&] {
    ScopedSpan span("bench.settle");
    uint64_t applied = fleet.gateway->stats().replica_epochs_applied;
    checkpoint();
    auto deadline = Clock::now() + std::chrono::seconds(1);
    while (fleet.gateway->stats().replica_epochs_applied <
               applied + kPartitions &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };

  for (int w = 0; w < kWindowsPerFleet; ++w) {
    // Traced runs alternate untraced and traced windows: the CPU gap between
    // them is the tracing overhead, and the per-layer numbers come from the
    // traced windows.
    const bool traced = opts.trace && w % 2 == 1;
    settle();
    tracer.Enable(traced);
    ScopedSpan window_span("bench.window");
    // The one extra benchmark thread checkpoints at fixed offsets
    // (kCheckpointPeriodMs apart, the first half a period in) and samples
    // the layers while tracing.
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> ckpt_windows;
    int tick = 0;
    constexpr int kTicks = kCheckpointPeriodMs / kSamplePeriodMs;
    LayerSnap before = LayerSnap::Take(fleet);
    WindowResult r;
    {
      Periodic sampler(std::chrono::milliseconds(kSamplePeriodMs), [&] {
        if (traced) {
          auto* d = fleet.worker->deployment();
          double u = static_cast<double>(fleet.head->UnackedTotal());
          double q = static_cast<double>(d->TotalQueueDepth());
          double rd = static_cast<double>(
              d->ExecutorStatsSnapshot().ready_queue_depth);
          tracer.Sample("net.unacked", u);
          tracer.Sample("runtime.queue_depth", q);
          tracer.Sample("runtime.ready_depth", rd);
          std::lock_guard<std::mutex> lock(mu);
          acc.unacked.push_back(u);
          acc.queue_depth.push_back(q);
          acc.ready_depth.push_back(rd);
          if (tick % kTicks == 0) {
            double socks = EstablishedOnPort(fleet.worker->data_port());
            tracer.Sample("net.data_sockets", socks);
            acc.sockets.push_back(socks);
          }
        }
        if (tick++ % kTicks != kTicks / 2) {
          return;
        }
        ScopedSpan span("checkpoint.worker");
        auto a = Clock::now();
        checkpoint();
        auto b = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        ckpt_windows.push_back({tracer.ToNs(a), tracer.ToNs(b)});
        if (traced) {
          acc.ckpt_ms.push_back(MsBetween(a, b));
          acc.ckpt_busy_s += SecondsBetween(a, b);
          acc.ckpt_bytes.push_back(
              static_cast<double>(BackupBytes(fleet.root + "/backup")));
        }
      });
      r = run_window(window_s);
    }
    double cpu_us = Ratio(r.cpu_s * 1e6, static_cast<double>(r.ok));
    std::fprintf(stderr,
                 "serve_mixed fleet %d window %d%s: p50 %.3f p99 %.3f ms, "
                 "%.1f us CPU per request, ok %llu failed %llu, late p99 "
                 "%.3f ms\n",
                 index, w, traced ? " (traced)" : "", r.P(0.5), r.P(0.99),
                 cpu_us, static_cast<unsigned long long>(r.ok),
                 static_cast<unsigned long long>(r.Failed()),
                 Quantile(r.late_ms, 0.99));
    if (!traced) {
      run.p50.push_back(r.P(0.5));
      run.p99.push_back(r.P(0.99));
      run.cpu_us.push_back(cpu_us);
      continue;
    }
    run.traced_cpu_us.push_back(cpu_us);
    acc.AddWindow(before, LayerSnap::Take(fleet));
    for (size_t i = 0; i < r.req_windows.size(); ++i) {
      bool in = false;
      for (const auto& c : ckpt_windows) {
        if (r.req_windows[i].first < c.second &&
            c.first < r.req_windows[i].second) {
          in = true;
          break;
        }
      }
      (in ? acc.req_in_ckpt : acc.req_out_ckpt).push_back(r.latency_ms[i]);
    }
    acc.state_bytes = static_cast<double>(
        fleet.worker->deployment()->StateSizeBytes("store"));
    Pool(run.traced, r);
  }
  tracer.Enable(false);
  auto t_windows = Clock::now();

  // The un-checkpointed tail the restart must replay: a checkpoint, then a
  // short stretch at the nominal rate.
  checkpoint();
  run_window(kTailSeconds);
  clients.clear();

  // Worker restart: the serving fleet's recovery time. It comes after the
  // measured windows because the head's channels fall back from the mux
  // socket to per-channel sockets when they redial a restarting worker.
  double restore = 0, recovery = 0;
  tracer.Enable(opts.trace);
  bool restarted = RestartWorker(fleet, &restore, &recovery);
  tracer.Enable(false);
  if (!restarted) {
    out.Fail(1, "worker restart");
    fleet.Stop();
    return false;
  }
  run.restore_s.push_back(restore);
  run.recovery_s.push_back(recovery);

  auto t_readback = Clock::now();
  run.readback_bad += ReadBack(fleet, book, &run.readback_attempted);
  auto t_stop = Clock::now();
  fleet.Stop();
  if (index == 0) {
    // Later fleets reuse heap the earlier ones left in the allocator, so only
    // the first fleet's peak is the peak of one fleet.
    run.peak_rss_mb = PeakRssMb();
  }
  std::fprintf(stderr,
               "serve_mixed fleet %d: set-up %.3f s, windows %.2f s, tail and "
               "restart %.2f s (recovery %.3f s), read-back %.2f s, teardown "
               "%.2f s\n",
               index, run.setup_s.back(),
               SecondsBetween(t0, t_windows) - run.setup_s.back(),
               SecondsBetween(t_windows, t_readback), recovery,
               SecondsBetween(t_readback, t_stop),
               SecondsBetween(t_stop, Clock::now()));
  return true;
}

}  // namespace

void RunServe(const RunOptions& opts, Result& out) {
  ServeRun run;
  // kFleets fresh fleets, each running kWindowsPerFleet windows; the run's
  // --seconds is spread evenly over all windows.
  const double window_s = opts.seconds / (kFleets * kWindowsPerFleet);
  for (int f = 0; f < kFleets; ++f) {
    if (!RunFleet(run, opts, f, window_s, out)) {
      return;
    }
  }

  // Failures: every request and every read-back key, plus a wrong value.
  out.attempted += run.attempted + run.readback_attempted;
  out.Fail(run.failed, "requests failed or read wrong values");
  out.Fail(run.readback_bad, "read-back differs from the last acked write");
  double fail_frac = Ratio(static_cast<double>(out.failed),
                           static_cast<double>(out.attempted));
  if (!opts.trace) {
    out.Set("setup_s", Median(run.setup_s), "s");
    out.Set("cpu_us_per_item", Median(run.cpu_us), "us");
    out.Set("ok_frac", 1.0 - fail_frac, "fraction");
    out.Set("peak_rss_mb", run.peak_rss_mb, "MB");
    return;
  }
  LayerAcc& acc = run.acc;
  WindowResult& traced = run.traced;
  out.Set("fail_frac", fail_frac, "fraction");
  out.Set("req_p50_ms", Median(run.p50), "ms");
  out.Set("req_p99_ms", Median(run.p99), "ms");
  out.Set("recovery_s", Median(run.recovery_s), "s");
  out.Set("serve.put_p99_ms", Quantile(traced.latency_by_op_ms[kPut], 0.99),
          "ms");
  out.Set("serve.strong_get_p99_ms",
          Quantile(traced.latency_by_op_ms[kStrong], 0.99), "ms");
  out.Set("serve.mean_batch", Ratio(static_cast<double>(acc.batched_items),
                                    static_cast<double>(acc.batches)),
          "count");
  out.Set("serve.batches_per_s",
          Ratio(static_cast<double>(acc.batches), acc.seconds), "1/s");
  out.Set("serve.shed_frac",
          Ratio(static_cast<double>(acc.shed),
                static_cast<double>(acc.accepted + acc.shed)),
          "fraction");
  out.Set("net.unacked_p99", Quantile(acc.unacked, 0.99), "count");
  out.Set("net.data_sockets", Quantile(acc.sockets, 1.0), "count");
  out.Set("runtime.tasks_per_item", Ratio(static_cast<double>(acc.tasks),
                                          static_cast<double>(acc.processed)),
          "ratio");
  out.Set("runtime.steal_frac", Ratio(static_cast<double>(acc.steals),
                                      static_cast<double>(acc.tasks)),
          "fraction");
  out.Set("runtime.ready_depth_p99", Quantile(acc.ready_depth, 0.99), "count");
  out.Set("runtime.queue_depth_p99", Quantile(acc.queue_depth, 0.99), "count");
  out.Set("state.bytes", acc.state_bytes, "bytes");
  out.Set("checkpoint.call_p50_ms", Median(acc.ckpt_ms), "ms");
  out.Set("checkpoint.call_max_ms", Quantile(acc.ckpt_ms, 1.0), "ms");
  out.Set("checkpoint.busy_frac", Ratio(acc.ckpt_busy_s, acc.seconds),
          "fraction");
  out.Set("checkpoint.req_p99_in_ms", Quantile(acc.req_in_ckpt, 0.99), "ms");
  out.Set("checkpoint.req_p99_out_ms", Quantile(acc.req_out_ckpt, 0.99), "ms");
  out.Set("checkpoint.bytes_per_epoch", Median(acc.ckpt_bytes), "bytes");
  out.Set("checkpoint.restore_s", Median(run.restore_s), "s");
  std::vector<double> replay;
  for (size_t i = 0; i < run.recovery_s.size(); ++i) {
    replay.push_back(run.recovery_s[i] - run.restore_s[i]);
  }
  out.Set("checkpoint.replay_s", Median(replay), "s");
  out.Set("bench.gen_late_p99_ms", Quantile(traced.late_ms, 0.99), "ms");
  out.Set("bench.trace_overhead_frac",
          Ratio(Median(run.traced_cpu_us), Median(run.cpu_us)) - 1.0,
          "fraction");
  WriteTrace("serve_mixed", opts.seed);
}

}  // namespace sdg::perfbench
