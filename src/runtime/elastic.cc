#include "src/runtime/elastic.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "src/checkpoint/chunk_stream.h"
#include "src/common/backoff.h"
#include "src/common/logging.h"
#include "src/net/connection.h"
#include "src/runtime/delivery.h"
#include "src/state/chunk.h"
#include "src/state/codec.h"

namespace sdg::elastic {
namespace {

// Chunks per migrated/checkpointed partition. Small: a partition is already
// the placement unit, the split only exercises the multi-chunk path.
constexpr uint32_t kChunksPerPartition = 2;
// Segment size of migration streams — small enough that even modest state
// pipelines over several frames.
constexpr size_t kMigrateSegmentBytes = 64 * 1024;
constexpr int kMigrateDeltaRounds = 2;

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ===========================================================================
// ElasticWorker

ElasticWorker::ElasticWorker(graph::Sdg g, ElasticWorkerOptions options)
    : options_(std::move(options)), graph_(std::move(g)) {}

ElasticWorker::~ElasticWorker() { Stop(); }

void ElasticWorker::CrashPoint(const char* phase) {
  if (!options_.crash_at.empty() && options_.crash_at == phase) {
    SDG_LOG(kInfo) << "worker " << options_.member_id << " crash point "
                   << phase;
    std::_Exit(41);
  }
}

Status ElasticWorker::Start() {
  runtime::ClusterOptions copts;
  copts.num_nodes = options_.local_nodes;
  copts.executor_workers = options_.executor_workers;
  copts.scaling = options_.scaling;
  if (copts.scaling.enabled && !copts.scaling.on_straggler) {
    // Escalate local straggler detection to the head, which owns the
    // cross-process response (shedding partitions off this worker).
    copts.scaling.on_straggler = [this](uint32_t node) {
      net::ControlMsg msg;
      msg.op = net::kCtrlStraggler;
      msg.arg = node;
      (void)SendControlToHead(msg);
    };
  }
  runtime::Cluster cluster(std::move(copts));
  SDG_ASSIGN_OR_RETURN(deployment_, cluster.Deploy(std::move(graph_)));

  checkpoint::BackupStoreOptions sopts;
  sopts.root = options_.backup_root;
  sopts.num_backup_nodes = options_.backup_nodes;
  store_ = std::make_unique<checkpoint::BackupStore>(std::move(sopts));

  // Restore the latest restorable epoch: owned partitions, their state
  // (each partition's base+delta chain) and the per-source watermarks.
  auto latest = store_->LatestEpoch(options_.member_id);
  if (latest.ok()) {
    epoch_ = *latest;
    SDG_ASSIGN_OR_RETURN(auto meta,
                         store_->ReadMeta(options_.member_id, epoch_));
    for (const auto& sm : meta.states) {
      auto* backend = deployment_->StateInstance(options_.state, sm.instance);
      if (backend == nullptr) {
        return Status(StatusCode::kNotFound,
                      "restore: unknown state instance " +
                          options_.state + "." +
                          std::to_string(sm.instance));
      }
      SDG_RETURN_IF_ERROR(checkpoint::RestoreChain(
          *store_, options_.member_id, sm, *backend));
      owned_.insert(sm.instance);
    }
    for (const auto& tm : meta.tasks) {
      for (const auto& ls : tm.last_seen) {
        received_[tm.instance] = std::max(received_[tm.instance], ls.ts);
        durable_[tm.instance] = std::max(durable_[tm.instance], ls.ts);
      }
    }
    SDG_LOG(kInfo) << "worker " << options_.member_id << " restored epoch "
                   << epoch_ << " with " << owned_.size() << " partitions";
  }

  net::ChannelServerOptions nopts;
  nopts.port = options_.data_port;
  server_ = std::make_unique<net::ChannelServer>(std::move(nopts));
  SDG_RETURN_IF_ERROR(server_->Start(
      [this](const net::Handshake& hs) { return OnHandshake(hs); },
      [this](const net::Handshake& hs, std::vector<runtime::DataItem> items) {
        OnBatch(hs, std::move(items));
      },
      /*on_join=*/nullptr, /*on_member=*/nullptr,
      [this](net::Socket socket, net::FrameDecoder carry,
             const net::MigrateBeginMsg& begin) {
        OnMigrationSession(std::move(socket), std::move(carry), begin);
      }));

  net::MuxConnection::Options mopts;
  mopts.deployment_id = options_.deployment_id;
  reply_pool_ = std::make_unique<net::MuxPool>(mopts);

  // Strong-read reply path: forward these sinks' outputs to the head as
  // kResponse frames, keyed by the item's user_tag (the gateway's request
  // tag; untagged outputs have no waiter and are dropped).
  for (const auto& sink : options_.forward_sinks) {
    SDG_RETURN_IF_ERROR(deployment_->OnOutput(
        sink, [this](const Tuple& tuple, uint64_t user_tag) {
          if (user_tag == 0) {
            return;
          }
          net::ResponseMsg resp;
          resp.request_id = user_tag;
          resp.code = net::kRespOk;
          if (tuple.size() > 1) {
            resp.value = tuple[1].AsString();
          }
          (void)SendResponseToHead(resp);
        }));
  }

  // Dirty tracking from the first epoch on, on every partition: each epoch
  // is a delta link of the partition's chain unless the chain rule asks for
  // a base. Restored partitions start without a baseline (RestoreChunk
  // invalidates), so their first epoch is a base.
  chains_.resize(options_.partitions);
  for (uint32_t p = 0; p < options_.partitions; ++p) {
    auto* backend = deployment_->StateInstance(options_.state, p);
    if (backend != nullptr) {
      backend->EnableDeltaTracking();
    }
    if (options_.serve_feed) {
      tails_.push_back(std::make_unique<checkpoint::EpochTail>());
    }
  }

  running_.store(true, std::memory_order_release);
  control_thread_ = std::thread([this] { ControlLoop(); });
  if (options_.checkpoint_interval_ms > 0) {
    checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  if (options_.serve_feed) {
    feed_thread_ = std::thread([this] { FeedLoop(); });
  }
  return Status::Ok();
}

void ElasticWorker::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(ctrl_send_mutex_);
    if (ctrl_socket_ != nullptr) {
      ctrl_socket_->ShutdownBoth();
    }
  }
  {
    std::lock_guard<std::mutex> lock(joined_mutex_);
    joined_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(feed_mutex_);
    feed_cv_.notify_all();
  }
  if (control_thread_.joinable()) {
    control_thread_.join();
  }
  if (checkpoint_thread_.joinable()) {
    checkpoint_thread_.join();
  }
  if (feed_thread_.joinable()) {
    feed_thread_.join();
  }
  if (server_) {
    server_->Stop();
  }
  // Fail the reply stream before deployment shutdown: an output callback
  // blocked in MuxStream::Send (head wedged, no credits) must wake and
  // return false, or Shutdown would wait on it forever.
  if (reply_pool_) {
    reply_pool_->CloseAll();
  }
  if (deployment_) {
    deployment_->Shutdown();
  }
}

bool ElasticWorker::WaitJoined(int timeout_ms) {
  std::unique_lock<std::mutex> lock(joined_mutex_);
  return joined_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [this] {
                               return joined_.load(std::memory_order_acquire);
                             });
}

uint16_t ElasticWorker::data_port() const { return server_->port(); }

std::vector<uint32_t> ElasticWorker::OwnedPartitions() const {
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  return std::vector<uint32_t>(owned_.begin(), owned_.end());
}

Result<uint64_t> ElasticWorker::OnHandshake(const net::Handshake& hs) {
  if (hs.deployment_id != options_.deployment_id) {
    return Status(StatusCode::kFailedPrecondition, "wrong deployment");
  }
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  // The applied watermark, not the durable one: a reconnect to a live worker
  // must not replay items already applied in memory (after a restart the two
  // coincide — received_ is restored from the durable epoch).
  uint64_t wm = 0;
  if (auto it = received_.find(hs.source_instance); it != received_.end()) {
    wm = it->second;
  }
  if (auto it = durable_.find(hs.source_instance); it != durable_.end()) {
    wm = std::max(wm, it->second);
  }
  return wm;
}

void ElasticWorker::OnBatch(const net::Handshake& hs,
                            std::vector<runtime::DataItem> items) {
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  uint32_t si = hs.source_instance;
  uint32_t partition = si % options_.partitions;
  if (owned_.find(partition) == owned_.end()) {
    // Not (or no longer) this worker's partition: drop without acking. The
    // head's log retains the items and replays them to the actual owner.
    return;
  }
  std::vector<runtime::DataItem> fresh;
  fresh.reserve(items.size());
  uint64_t& received = received_[si];
  for (auto& item : items) {
    // Replayed items at or below the applied watermark are already reflected
    // in this worker's state (restored or live); only the suffix past it is
    // genuinely new.
    if (item.replayed && item.ts <= received) {
      continue;
    }
    received = std::max(received, item.ts);
    fresh.push_back(std::move(item));
  }
  if (fresh.empty()) {
    return;
  }
  if (options_.slow_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.slow_us * fresh.size()));
  }
  size_t n = fresh.size();
  Status st = deployment_->InjectRemote(hs.entry, std::move(fresh));
  if (!st.ok()) {
    SDG_LOG(kWarning) << "worker " << options_.member_id
                   << " inject failed: " << st.ToString();
    return;
  }
  items_ingested_.fetch_add(n, std::memory_order_relaxed);
}

Status ElasticWorker::Checkpoint() {
  std::scoped_lock op(op_mutex_);
  // One partition's share of the epoch: its link (the same blobs go to the
  // store and the feed tail) and, at a re-base that live subscribers can
  // bridge with a delta, that delta.
  struct Cut {
    uint32_t partition = 0;
    state::StateBackend* backend = nullptr;
    uint64_t records = 0;  // at the cut
    bool base = true;
    bool extends = false;  // a delta over the chain's last link is worth it
    std::vector<std::vector<uint8_t>> blobs;
    std::vector<std::vector<uint8_t>> live_delta;
  };
  std::vector<Cut> cuts;
  std::map<uint32_t, uint64_t> watermarks;
  uint64_t epoch;
  uint64_t depth;
  {
    // The cut: quiesce and freeze every owned partition at the captured
    // watermarks. Serialisation runs after the ingest lock is released,
    // against the frozen state; writes landing meanwhile go to the dirty
    // overlays (§5).
    std::lock_guard<std::mutex> ingest(ingest_mutex_);
    deployment_->Drain();
    epoch = epoch_ + 1;
    depth = deployment_->TotalQueueDepth();
    for (uint32_t p : owned_) {
      Cut cut;
      cut.partition = p;
      cut.backend = deployment_->StateInstance(options_.state, p);
      cut.records = cut.backend->EntryCount();
      cut.backend->BeginCheckpoint();
      cuts.push_back(std::move(cut));
    }
    watermarks = received_;
  }

  Status st;
  for (auto& cut : cuts) {
    const uint32_t p = cut.partition;
    const std::string name = checkpoint::StateChunkName(0, p);
    auto serialize = [&](bool delta) {
      return checkpoint::SerializeEpochBlobs(*cut.backend, name,
                                             kChunksPerPartition, delta,
                                             state::kChunkCodecPrefix);
    };
    // A delta extends the committed chain only while the tracker's baseline
    // is the chain's last link: not while a migration owns the tracker. Nor
    // once the state has outgrown its base: that delta is as large as a new
    // base, which live subscribers then get as well. At a re-base the byte
    // rule asks for, live subscribers still get the (small) delta.
    cut.extends = migrating_.count(p) == 0 && !chains_[p].empty() &&
                  cut.backend->DeltaReady() &&
                  !chains_[p].Outgrown(cut.records);
    cut.base = !cut.extends || chains_[p].NeedsBase();
    auto blobs = serialize(/*delta=*/!cut.base);
    if (blobs.ok() && cut.base && cut.extends && options_.serve_feed) {
      auto delta = serialize(/*delta=*/true);
      if (delta.ok()) {
        cut.live_delta = std::move(*delta);
      } else {
        blobs = delta.status();
      }
    }
    if (blobs.ok()) {
      cut.blobs = std::move(*blobs);
      st = store_->WriteChunks(options_.member_id, epoch, name, cut.blobs);
    } else {
      st = blobs.status();
    }
    if (!st.ok()) {
      break;
    }
  }
  for (auto& cut : cuts) {
    cut.backend->EndCheckpoint();
  }

  checkpoint::CheckpointMeta meta;
  meta.epoch = epoch;
  for (const auto& cut : cuts) {
    checkpoint::StateInstanceMeta sm;
    sm.state = 0;
    sm.instance = cut.partition;
    sm.num_chunks = kChunksPerPartition;
    sm.record_count = cut.records;
    sm.kind = cut.base ? checkpoint::EpochKind::kFull
                       : checkpoint::EpochKind::kDelta;
    if (!cut.base) {
      sm.chain = chains_[cut.partition].links();
    }
    sm.chain.push_back({epoch, kChunksPerPartition, sm.kind});
    sm.base_epoch = sm.chain.front().epoch;
    meta.states.push_back(std::move(sm));
  }
  for (const auto& [si, wm] : watermarks) {
    checkpoint::TaskInstanceMeta tm;
    tm.task = runtime::kRemoteSourceTask;
    tm.instance = si;
    tm.last_seen = {{runtime::kRemoteSourceTask, si, wm}};
    meta.tasks.push_back(std::move(tm));
  }
  // Meta last: an epoch is durable only once its meta exists, so a crash
  // mid-write leaves the previous epoch authoritative.
  if (st.ok()) {
    st = store_->WriteMeta(options_.member_id, epoch, meta);
  }
  // Commit each frozen change set as the delta baseline — except under a
  // migration, whose next round still needs it — or merge it back so the
  // next delta is a superset.
  for (auto& cut : cuts) {
    cut.backend->ResolveEpoch(st.ok() &&
                              migrating_.count(cut.partition) == 0);
  }
  SDG_RETURN_IF_ERROR(st);

  std::vector<net::ReplicaEpochMsg> publish;
  for (size_t i = 0; i < cuts.size(); ++i) {
    Cut& cut = cuts[i];
    const auto& sm = meta.states[i];
    chains_[cut.partition].Push(sm.chain.back(),
                                checkpoint::BlobBytes(cut.blobs), cut.records);
    if (!options_.serve_feed) {
      continue;
    }
    auto& tail = *tails_[cut.partition];
    net::ReplicaEpochMsg announce;
    announce.partition = cut.partition;
    announce.member_id = options_.member_id;
    announce.kind = net::kEpochAnnounce;
    announce.epoch = epoch;
    announce.queue_depth = depth;
    net::ReplicaEpochMsg body = announce;
    if (cut.base) {
      tail.PushBase(epoch, cut.blobs);
      body.kind = cut.extends ? net::kEpochDelta : net::kEpochBase;
      body.chunks =
          cut.extends ? std::move(cut.live_delta) : std::move(cut.blobs);
    } else {
      tail.PushDelta(epoch, cut.blobs);
      body.kind = net::kEpochDelta;
      body.chunks = std::move(cut.blobs);
    }
    publish.push_back(std::move(announce));
    publish.push_back(std::move(body));
  }
  {
    std::lock_guard<std::mutex> ingest(ingest_mutex_);
    epoch_ = epoch;
    durable_ = watermarks;
  }
  store_->PruneBefore(options_.member_id, meta.MinChainEpoch());
  // Ack outside the ingest lock: senders trim their logs; a lost ack is
  // repaired by the next stream open's watermark. One batched call: a sender
  // gets a single coalesced kMuxAckBatch frame for all its streams.
  if (!watermarks.empty()) {
    std::vector<net::ChannelServer::SourceAck> batch;
    batch.reserve(watermarks.size());
    for (const auto& [si, wm] : watermarks) {
      batch.push_back({runtime::kRemoteSourceTask, si, wm});
    }
    server_->AckSources(batch);
  }
  // Publish the epoch to the replica feed (announce first, blobs after).
  for (auto& msg : publish) {
    QueueFeed(std::move(msg));
  }
  return Status::Ok();
}

void ElasticWorker::ResetChain(uint32_t p) {
  chains_[p].Clear();
  if (!tails_.empty()) {
    tails_[p]->Clear();
  }
}

void ElasticWorker::EndMigration(uint32_t p) {
  migrating_.erase(p);
  ResetChain(p);
}

void ElasticWorker::CheckpointLoop() {
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.checkpoint_interval_ms));
    if (!running_.load(std::memory_order_acquire)) {
      return;
    }
    bool dirty;
    {
      std::lock_guard<std::mutex> lock(ingest_mutex_);
      dirty = received_ != durable_;
    }
    if (!dirty) {
      continue;
    }
    Status st = Checkpoint();
    if (!st.ok()) {
      SDG_LOG(kWarning) << "worker " << options_.member_id
                     << " checkpoint failed: " << st.ToString();
    }
  }
}

// --- Control channel --------------------------------------------------------

Status ElasticWorker::JoinHead(net::Socket* socket, net::FrameDecoder* carry) {
  SDG_ASSIGN_OR_RETURN(
      *socket, net::Socket::Connect(options_.head_host, options_.head_port));
  net::JoinMsg join;
  join.deployment_id = options_.deployment_id;
  join.member_id = options_.member_id;
  join.host = "127.0.0.1";
  join.data_port = server_->port();
  join.name = options_.name;
  socket->SetRecvTimeout(5000);
  SDG_RETURN_IF_ERROR(
      net::WriteFrameBlocking(*socket, net::FrameType::kJoin, join.Encode()));
  SDG_ASSIGN_OR_RETURN(net::Frame reply,
                       net::ReadFrameBlocking(*socket, *carry));
  if (reply.type != net::FrameType::kJoinAck) {
    return Status(StatusCode::kDataLoss, "join: unexpected reply frame");
  }
  SDG_ASSIGN_OR_RETURN(auto ack, net::JoinAckMsg::Decode(reply.payload));
  if (!ack.accepted) {
    return Status(StatusCode::kFailedPrecondition,
                  "join rejected: " + ack.message);
  }
  socket->SetRecvTimeout(0);
  return Status::Ok();
}

void ElasticWorker::ControlLoop() {
  while (running_.load(std::memory_order_acquire)) {
    net::Socket socket;
    net::FrameDecoder carry;
    Status joined = JoinHead(&socket, &carry);
    if (!joined.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(ctrl_send_mutex_);
      ctrl_socket_ = &socket;
    }
    {
      std::lock_guard<std::mutex> lock(joined_mutex_);
      joined_.store(true, std::memory_order_release);
      joined_cv_.notify_all();
    }
    while (running_.load(std::memory_order_acquire)) {
      auto frame = net::ReadFrameBlocking(socket, carry);
      if (!frame.ok()) {
        break;  // head gone or Stop(): rejoin (or exit) above
      }
      switch (frame->type) {
        case net::FrameType::kControl: {
          auto msg = net::ControlMsg::Decode(frame->payload);
          if (msg.ok()) {
            HandleControl(socket, *msg);
          }
          break;
        }
        case net::FrameType::kMigrateBegin: {
          auto cmd = net::MigrateBeginMsg::Decode(frame->payload);
          if (cmd.ok()) {
            HandleMigrateBegin(socket, *cmd);
          }
          break;
        }
        default:
          break;
      }
    }
    {
      std::lock_guard<std::mutex> lock(ctrl_send_mutex_);
      ctrl_socket_ = nullptr;
    }
    joined_.store(false, std::memory_order_release);
  }
}

bool ElasticWorker::SendControlToHead(const net::ControlMsg& msg) {
  std::lock_guard<std::mutex> lock(ctrl_send_mutex_);
  if (ctrl_socket_ == nullptr) {
    return false;
  }
  return net::WriteFrameBlocking(*ctrl_socket_, net::FrameType::kControl,
                                 msg.Encode())
      .ok();
}

bool ElasticWorker::SendResponseToHead(const net::ResponseMsg& msg) {
  auto stream = ReplyStream();
  if (stream != nullptr) {
    // TrySend, not Send: this runs on the deployment's executor (sink output
    // callback), and executor tasks must never block on stream credits —
    // the head returns credits through its own executor, and on a small
    // pool the two sides would starve each other. Out of credits (or a full
    // staging buffer) falls back to the control channel.
    if (stream->TrySend(net::FrameType::kResponse, msg.Encode())) {
      return true;
    }
    if (stream->broken()) {
      // Drop the cached handle; the next response reopens.
      std::lock_guard<std::mutex> lock(reply_mutex_);
      if (reply_stream_ == stream) {
        reply_stream_.reset();
      }
    }
  }
  std::lock_guard<std::mutex> lock(ctrl_send_mutex_);
  if (ctrl_socket_ == nullptr) {
    return false;
  }
  return net::WriteFrameBlocking(*ctrl_socket_, net::FrameType::kResponse,
                                 msg.Encode())
      .ok();
}

std::shared_ptr<net::MuxStream> ElasticWorker::ReplyStream() {
  std::lock_guard<std::mutex> lock(reply_mutex_);
  if (reply_stream_ != nullptr && !reply_stream_->broken()) {
    return reply_stream_;
  }
  reply_stream_.reset();
  if (reply_pool_ == nullptr || !running_.load(std::memory_order_acquire)) {
    return nullptr;
  }
  // Negative cache: a failed dial or open must not cost every subsequent
  // response a fresh dial.
  const auto now = std::chrono::steady_clock::now();
  if (now < reply_retry_after_) {
    return nullptr;
  }
  auto conn = reply_pool_->Get(options_.head_host, options_.head_port);
  if (!conn.ok()) {
    // Head down — the control channel carries replies meanwhile.
    reply_retry_after_ = now + std::chrono::seconds(2);
    return nullptr;
  }
  net::MuxOpenMsg open;
  open.kind = net::kMuxStreamReply;
  open.deployment_id = options_.deployment_id;
  open.member_id = options_.member_id;
  auto stream =
      (*conn)->OpenStream(open, /*on_frame=*/nullptr, /*on_error=*/nullptr);
  if (!stream.ok()) {
    SDG_LOG(kWarning) << "worker " << options_.member_id
                   << " reply stream open failed: "
                   << stream.status().ToString();
    reply_retry_after_ = std::chrono::steady_clock::now() +
                         std::chrono::seconds(2);
    return nullptr;
  }
  reply_stream_ = *stream;
  return reply_stream_;
}

// --- Replica feed -----------------------------------------------------------

void ElasticWorker::QueueFeed(net::ReplicaEpochMsg msg) {
  constexpr size_t kFeedQueueMax = 256;
  std::lock_guard<std::mutex> lock(feed_mutex_);
  if (feed_queue_.size() >= kFeedQueueMax) {
    // A wedged gateway must not hold blob memory hostage: drop the queue and
    // resync from the tails when the wire drains (duplicates are idempotent
    // replica-side, and a delta chain never tears — tails replay base-first).
    feed_queue_.clear();
    feed_replay_ = true;
  } else {
    feed_queue_.push_back(std::move(msg));
  }
  feed_cv_.notify_all();
}

void ElasticWorker::FeedLoop() {
  // Redial schedule: 200 ms doubling to a 5 s cap with jitter (the old fixed
  // 200 ms hammered a gateway that stayed down for minutes). Sleeps in small
  // slices so Stop() is never held up by a capped delay.
  Backoff backoff(Backoff::Options{.seed = options_.member_id * 0x9e3779b9ull + 1});
  auto redial_sleep = [this, &backoff] {
    int ms = backoff.NextDelayMs();
    while (ms > 0 && running_.load(std::memory_order_acquire)) {
      const int slice = std::min(ms, 50);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      ms -= slice;
    }
  };
  while (running_.load(std::memory_order_acquire)) {
    auto dialed =
        net::Socket::Connect(options_.head_host, options_.head_port);
    if (!dialed.ok()) {
      redial_sleep();
      continue;
    }
    net::Socket socket = std::move(*dialed);
    net::ReplicaSubscribeMsg sub;
    sub.deployment_id = options_.deployment_id;
    sub.member_id = options_.member_id;
    sub.state = options_.state;
    if (!net::WriteFrameBlocking(socket, net::FrameType::kReplicaSubscribe,
                                 sub.Encode())
             .ok()) {
      redial_sleep();
      continue;
    }
    backoff.Reset();
    // Fresh connection: whatever queued while disconnected is superseded by
    // a tail replay (base + deltas per partition, in epoch order).
    {
      std::lock_guard<std::mutex> lock(feed_mutex_);
      feed_queue_.clear();
      feed_replay_ = true;
    }
    bool wire_ok = true;
    while (wire_ok && running_.load(std::memory_order_acquire)) {
      std::vector<net::ReplicaEpochMsg> out;
      bool replay = false;
      {
        std::unique_lock<std::mutex> lock(feed_mutex_);
        feed_cv_.wait_for(lock, std::chrono::milliseconds(100), [this] {
          return !feed_queue_.empty() || feed_replay_ ||
                 !running_.load(std::memory_order_acquire);
        });
        if (!running_.load(std::memory_order_acquire)) {
          return;
        }
        replay = feed_replay_;
        feed_replay_ = false;
        while (!feed_queue_.empty()) {
          out.push_back(std::move(feed_queue_.front()));
          feed_queue_.pop_front();
        }
      }
      if (replay) {
        std::vector<net::ReplicaEpochMsg> msgs;
        for (uint32_t p = 0; p < options_.partitions; ++p) {
          auto entries = tails_[p]->Replay();
          if (entries.empty()) {
            continue;
          }
          for (auto& e : entries) {
            net::ReplicaEpochMsg m;
            m.partition = p;
            m.member_id = options_.member_id;
            m.kind = e.base ? net::kEpochBase : net::kEpochDelta;
            m.epoch = e.epoch;
            m.chunks = std::move(e.chunks);
            msgs.push_back(std::move(m));
          }
          // Close the replay with an announce at the tail's watermark: a
          // freshly-(re)started gateway becomes read-admissible immediately
          // instead of waiting for the next checkpoint's announce.
          net::ReplicaEpochMsg announce;
          announce.partition = p;
          announce.member_id = options_.member_id;
          announce.kind = net::kEpochAnnounce;
          announce.epoch = tails_[p]->latest_epoch();
          msgs.push_back(std::move(announce));
        }
        msgs.insert(msgs.end(), std::make_move_iterator(out.begin()),
                    std::make_move_iterator(out.end()));
        out = std::move(msgs);
      }
      for (auto& m : out) {
        if (!net::WriteFrameBlocking(socket, net::FrameType::kReplicaEpoch,
                                     m.Encode())
                 .ok()) {
          wire_ok = false;  // gateway gone: redial and replay
          break;
        }
        feed_published_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void ElasticWorker::HandleControl(net::Socket& socket,
                                  const net::ControlMsg& msg) {
  switch (msg.op) {
    case net::kCtrlPing:
      break;  // liveness is the connection itself
    case net::kCtrlCheckpoint: {
      Status st = Checkpoint();
      uint64_t epoch;
      {
        std::lock_guard<std::mutex> lock(ingest_mutex_);
        epoch = epoch_;
      }
      net::ControlMsg reply;
      reply.op = st.ok() ? net::kCtrlDone : net::kCtrlError;
      reply.arg = epoch;
      reply.text = st.ok() ? "checkpoint" : st.ToString();
      (void)net::WriteFrameBlocking(socket, net::FrameType::kControl,
                                    reply.Encode());
      break;
    }
    case net::kCtrlCutover:
      HandleCutover(socket, msg.partition);
      break;
    case net::kCtrlRelease: {
      // Abort/cleanup: drop the partition (and any durable claim on it).
      bool was_owned;
      {
        std::scoped_lock op(op_mutex_);
        {
          std::lock_guard<std::mutex> ingest(ingest_mutex_);
          was_owned = owned_.erase(msg.partition) > 0;
          for (uint32_t ei = 0; ei < options_.entries.size(); ++ei) {
            uint32_t si =
                SourceInstanceOf(ei, msg.partition, options_.partitions);
            received_.erase(si);
            durable_.erase(si);
          }
          auto* backend =
              deployment_->StateInstance(options_.state, msg.partition);
          if (backend != nullptr) {
            backend->Clear();
          }
        }
        {
          std::lock_guard<std::mutex> lock(outbound_mutex_);
          if (outbound_ && outbound_->partition == msg.partition) {
            outbound_.reset();
          }
        }
        EndMigration(msg.partition);
      }
      if (was_owned) {
        // Make the release durable. Outside the op lock: Checkpoint takes it.
        (void)Checkpoint();
      }
      break;
    }
    case net::kCtrlAbortMigration: {
      // The head gave up on moving the partition off this worker (e.g. its
      // wait for kCtrlPrepared timed out): close the prepared session and
      // hand the delta tracker back to the chain. The partition stays owned.
      std::scoped_lock op(op_mutex_);
      {
        std::lock_guard<std::mutex> lock(outbound_mutex_);
        if (outbound_ && outbound_->partition == msg.partition) {
          outbound_.reset();
        }
      }
      if (migrating_.count(msg.partition) > 0) {
        EndMigration(msg.partition);
      }
      break;
    }
    default:
      break;
  }
}

Status ElasticWorker::StreamEpoch(state::StateBackend& backend,
                                  net::Socket& socket, bool delta,
                                  const char* phase) {
  checkpoint::ChunkStreamWriter::Options wopts;
  wopts.num_chunks = kChunksPerPartition;
  wopts.codec = state::kChunkCodecPrefix;
  wopts.delta = delta;
  wopts.segment_bytes = kMigrateSegmentBytes;
  uint8_t flags = delta ? net::kMigrateChunkDelta : 0;
  checkpoint::ChunkStreamWriter writer(
      [this, &socket, flags, phase](uint32_t chunk_index,
                                    std::vector<uint8_t> segment) -> Status {
        net::MigrateChunkMsg msg;
        msg.chunk_index = chunk_index;
        msg.flags = flags;
        msg.bytes = std::move(segment);
        Status st = net::WriteFrameBlocking(
            socket, net::FrameType::kMigrateChunk, msg.Encode());
        CrashPoint(phase);
        return st;
      },
      options_.state, wopts);
  return checkpoint::WriteEpoch(writer, backend).status();
}

Status ElasticWorker::AwaitMigrateAck(net::Socket& socket,
                                      net::FrameDecoder& carry) {
  SDG_ASSIGN_OR_RETURN(net::Frame frame,
                       net::ReadFrameBlocking(socket, carry));
  if (frame.type != net::FrameType::kMigrateAck) {
    return Status(StatusCode::kDataLoss, "migration: expected ack frame");
  }
  SDG_ASSIGN_OR_RETURN(auto ack, net::MigrateAckMsg::Decode(frame.payload));
  if (!ack.ok) {
    return Status(StatusCode::kAborted, "migration rejected: " + ack.message);
  }
  return Status::Ok();
}

void ElasticWorker::HandleMigrateBegin(net::Socket& control,
                                       const net::MigrateBeginMsg& cmd) {
  auto fail = [&](const Status& st) {
    SDG_LOG(kWarning) << "worker " << options_.member_id << " migrate-out p"
                   << cmd.partition << " failed: " << st.ToString();
    net::ControlMsg err;
    err.op = net::kCtrlError;
    err.partition = cmd.partition;
    err.text = st.ToString();
    (void)net::WriteFrameBlocking(control, net::FrameType::kControl,
                                  err.Encode());
  };
  {
    std::lock_guard<std::mutex> lock(ingest_mutex_);
    if (owned_.find(cmd.partition) == owned_.end()) {
      fail(Status(StatusCode::kFailedPrecondition, "partition not owned"));
      return;
    }
  }
  auto dialed = net::Socket::Connect(cmd.target_host,
                                     static_cast<uint16_t>(cmd.target_port));
  if (!dialed.ok()) {
    fail(dialed.status());
    return;
  }
  net::Socket session = std::move(*dialed);
  net::FrameDecoder carry;
  net::MigrateBeginMsg begin;
  begin.state = options_.state;
  begin.partition = cmd.partition;
  begin.num_partitions = options_.partitions;
  Status st = net::WriteFrameBlocking(session, net::FrameType::kMigrateBegin,
                                      begin.Encode());
  if (!st.ok()) {
    fail(st);
    return;
  }
  auto* backend = deployment_->StateInstance(options_.state, cmd.partition);

  // Base epoch: freeze, stream the full state while processing continues
  // against the dirty overlay, commit the epoch as the delta baseline. From
  // here to the cutover the migration owns the partition's delta tracker.
  {
    std::scoped_lock op(op_mutex_);
    migrating_.insert(cmd.partition);
    backend->BeginCheckpoint();
    st = StreamEpoch(*backend, session, /*delta=*/false, "migrate.base");
    backend->EndCheckpoint();
    backend->ResolveEpoch(st.ok());
  }
  net::MigrateChunkMsg apply;
  apply.flags = net::kMigrateChunkApply;
  if (st.ok()) {
    st = net::WriteFrameBlocking(session, net::FrameType::kMigrateChunk,
                                 apply.Encode());
  }
  if (st.ok()) {
    st = AwaitMigrateAck(session, carry);
  }

  // Delta epochs: ship what changed while the base was in flight; each round
  // shrinks the remainder the cutover has to stop the world for.
  for (int round = 0; st.ok() && round < kMigrateDeltaRounds; ++round) {
    {
      std::scoped_lock op(op_mutex_);
      backend->BeginCheckpoint();
      st = StreamEpoch(*backend, session, backend->DeltaReady(),
                       "migrate.delta");
      backend->EndCheckpoint();
      backend->ResolveEpoch(st.ok());
    }
    if (st.ok()) {
      st = net::WriteFrameBlocking(session, net::FrameType::kMigrateChunk,
                                   apply.Encode());
    }
    if (st.ok()) {
      st = AwaitMigrateAck(session, carry);
    }
  }
  if (!st.ok()) {
    {
      std::scoped_lock op(op_mutex_);
      EndMigration(cmd.partition);
    }
    fail(st);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(outbound_mutex_);
    outbound_.emplace(OutboundMigration{std::move(session), std::move(carry),
                                        cmd.partition});
  }
  net::ControlMsg prepared;
  prepared.op = net::kCtrlPrepared;
  prepared.partition = cmd.partition;
  (void)net::WriteFrameBlocking(control, net::FrameType::kControl,
                                prepared.Encode());
}

void ElasticWorker::HandleCutover(net::Socket& control, uint32_t partition) {
  CrashPoint("migrate.precutover");
  std::optional<OutboundMigration> session;
  {
    std::lock_guard<std::mutex> lock(outbound_mutex_);
    if (outbound_ && outbound_->partition == partition) {
      session = std::move(outbound_);
      outbound_.reset();
    }
  }
  auto fail = [&](const Status& st) {
    SDG_LOG(kWarning) << "worker " << options_.member_id << " cutover p"
                   << partition << " failed: " << st.ToString();
    net::ControlMsg err;
    err.op = net::kCtrlError;
    err.partition = partition;
    err.text = st.ToString();
    (void)net::WriteFrameBlocking(control, net::FrameType::kControl,
                                  err.Encode());
  };
  if (!session) {
    {
      std::scoped_lock op(op_mutex_);
      EndMigration(partition);
    }
    fail(Status(StatusCode::kFailedPrecondition, "no prepared session"));
    return;
  }
  auto* backend = deployment_->StateInstance(options_.state, partition);
  std::vector<net::SourceWatermark> watermarks;
  Status st;
  {
    std::scoped_lock op(op_mutex_);
    std::lock_guard<std::mutex> ingest(ingest_mutex_);
    // Stop serving the partition, quiesce, and capture a final delta that
    // agrees exactly with the handed-off watermarks: everything applied is
    // at or below them, everything above them stays in the head's log.
    owned_.erase(partition);
    deployment_->Drain();
    for (uint32_t ei = 0; ei < options_.entries.size(); ++ei) {
      uint32_t si = SourceInstanceOf(ei, partition, options_.partitions);
      uint64_t wm = 0;
      if (auto it = received_.find(si); it != received_.end()) {
        wm = it->second;
      }
      watermarks.push_back({si, wm});
      received_.erase(si);
      durable_.erase(si);
    }
    backend->BeginCheckpoint();
    st = StreamEpoch(*backend, session->socket, backend->DeltaReady(),
                     "migrate.final");
    backend->EndCheckpoint();
    backend->ResolveEpoch(st.ok());
    // Whether or not the cutover lands, the final delta consumed the dirty
    // set: a partition taken back below re-bases its chain.
    EndMigration(partition);
  }
  net::MigrateChunkMsg apply;
  apply.flags = net::kMigrateChunkApply;
  if (st.ok()) {
    st = net::WriteFrameBlocking(session->socket,
                                 net::FrameType::kMigrateChunk,
                                 apply.Encode());
  }
  if (st.ok()) {
    st = AwaitMigrateAck(session->socket, session->carry);
  }
  if (st.ok()) {
    net::MigrateCommitMsg commit;
    commit.state = options_.state;
    commit.partition = partition;
    commit.watermarks = watermarks;
    st = net::WriteFrameBlocking(session->socket,
                                 net::FrameType::kMigrateCommit,
                                 commit.Encode());
    CrashPoint("migrate.postcommit");
  }
  if (st.ok()) {
    st = AwaitMigrateAck(session->socket, session->carry);
  }
  if (!st.ok()) {
    // The target never durably committed: take the partition back.
    {
      std::lock_guard<std::mutex> ingest(ingest_mutex_);
      owned_.insert(partition);
      for (const auto& sw : watermarks) {
        received_[sw.source_instance] = sw.watermark;
      }
    }
    fail(st);
    return;
  }
  // The target owns the partition durably; drop our copy under the stripe
  // fence so no straggling writer can resurrect records.
  backend->ExclusiveBarrier([] {});
  backend->Clear();
  SDG_LOG(kInfo) << "worker " << options_.member_id << " migrated out p"
                 << partition;
  // Make the hand-off durable: the latest epoch still claims the partition,
  // and with received_ == durable_ the checkpoint loop would never cut a
  // new one, so a restart would restore the claim. Outside the op lock:
  // Checkpoint takes it.
  (void)Checkpoint();
}

void ElasticWorker::OnMigrationSession(net::Socket socket,
                                       net::FrameDecoder carry,
                                       const net::MigrateBeginMsg& begin) {
  auto reject = [&](const std::string& why) {
    net::MigrateAckMsg nack;
    nack.ok = false;
    nack.message = why;
    (void)net::WriteFrameBlocking(socket, net::FrameType::kMigrateAck,
                                  nack.Encode());
  };
  if (begin.state != options_.state ||
      begin.num_partitions != options_.partitions ||
      begin.partition >= options_.partitions) {
    reject("migration shape mismatch");
    return;
  }
  uint32_t partition = begin.partition;
  {
    std::lock_guard<std::mutex> lock(ingest_mutex_);
    if (owned_.find(partition) != owned_.end()) {
      reject("partition already owned");
      return;
    }
  }
  auto* backend = deployment_->StateInstance(options_.state, partition);
  backend->Clear();  // drop any orphan of an aborted earlier session
  {
    std::scoped_lock op(op_mutex_);
    ResetChain(partition);  // stale links and tail from past ownership
  }
  bool touched = false;
  // Segments per chunk index, concatenated in arrival order: together they
  // are one streamed v2 chunk blob (the prefix-codec context spans segment
  // boundaries, so chunks must be reassembled before ChunkReader::Open).
  std::map<uint32_t, std::vector<uint8_t>> pending;
  for (;;) {
    auto frame = net::ReadFrameBlocking(socket, carry);
    if (!frame.ok()) {
      break;  // source died mid-session: abort below
    }
    if (frame->type == net::FrameType::kMigrateChunk) {
      auto msg = net::MigrateChunkMsg::Decode(frame->payload);
      if (!msg.ok()) {
        break;
      }
      if ((msg->flags & net::kMigrateChunkApply) != 0) {
        Status st;
        for (auto& [index, blob] : pending) {
          (void)index;
          st = state::RestoreChunk(*backend, blob);
          if (!st.ok()) {
            break;
          }
          touched = true;
        }
        pending.clear();
        if (!st.ok()) {
          reject(st.ToString());
          break;
        }
        net::MigrateAckMsg ack;
        ack.ok = true;
        if (!net::WriteFrameBlocking(socket, net::FrameType::kMigrateAck,
                                     ack.Encode())
                 .ok()) {
          break;
        }
        continue;
      }
      auto& blob = pending[msg->chunk_index];
      blob.insert(blob.end(), msg->bytes.begin(), msg->bytes.end());
      touched = true;
      continue;
    }
    if (frame->type == net::FrameType::kMigrateCommit) {
      auto commit = net::MigrateCommitMsg::Decode(frame->payload);
      if (!commit.ok()) {
        break;
      }
      {
        std::lock_guard<std::mutex> lock(ingest_mutex_);
        owned_.insert(partition);
        for (const auto& sw : commit->watermarks) {
          received_[sw.source_instance] =
              std::max(received_[sw.source_instance], sw.watermark);
        }
      }
      // Persist before acking: once the source hears the ack it clears its
      // copy, so the handoff must already be durable here.
      Status st = Checkpoint();
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(ingest_mutex_);
        owned_.erase(partition);
        for (const auto& sw : commit->watermarks) {
          received_.erase(sw.source_instance);
          durable_.erase(sw.source_instance);
        }
        reject(st.ToString());
        break;
      }
      net::MigrateAckMsg ack;
      ack.ok = true;
      (void)net::WriteFrameBlocking(socket, net::FrameType::kMigrateAck,
                                    ack.Encode());
      net::ControlMsg done;
      done.op = net::kCtrlDone;
      done.partition = partition;
      done.text = "migrated";
      (void)SendControlToHead(done);
      SDG_LOG(kInfo) << "worker " << options_.member_id << " migrated in p"
                     << partition;
      return;
    }
    break;  // unexpected frame
  }
  // Aborted before commit: discard the partial copy.
  std::lock_guard<std::mutex> lock(ingest_mutex_);
  if (owned_.find(partition) == owned_.end() && touched) {
    backend->Clear();
  }
}

// ===========================================================================
// ElasticHead

ElasticHead::ElasticHead(ElasticHeadOptions options)
    : options_(std::move(options)) {
  size_t sources = options_.entries.size() * options_.partitions;
  parts_.reserve(options_.partitions);
  for (uint32_t p = 0; p < options_.partitions; ++p) {
    parts_.push_back(std::make_unique<Part>());
  }
  logs_.reserve(sources);
  clocks_.reserve(sources);
  for (size_t i = 0; i < sources; ++i) {
    logs_.push_back(std::make_unique<runtime::OutputBuffer>());
    clocks_.push_back(std::make_unique<LogicalClock>());
  }
}

ElasticHead::~ElasticHead() { Stop(); }

Status ElasticHead::Start() {
  if (!options_.backup_root.empty()) {
    checkpoint::BackupStoreOptions sopts;
    sopts.root = options_.backup_root;
    sopts.num_backup_nodes = options_.backup_nodes;
    store_ = std::make_unique<checkpoint::BackupStore>(std::move(sopts));
  }
  net::MuxConnection::Options mopts;
  mopts.deployment_id = options_.deployment_id;
  mux_pool_ = std::make_unique<net::MuxPool>(mopts);
  net::ChannelServerOptions nopts;
  nopts.port = options_.port;
  server_ = std::make_unique<net::ChannelServer>(std::move(nopts));
  SDG_RETURN_IF_ERROR(server_->Start(
      [](const net::Handshake&) -> Result<uint64_t> {
        return Status(StatusCode::kFailedPrecondition,
                      "head accepts no data channels");
      },
      [](const net::Handshake&, std::vector<runtime::DataItem>) {},
      [this](const net::JoinMsg& join) { return OnJoin(join); },
      [this](uint32_t member_id, net::Frame frame) {
        OnMemberFrame(member_id, std::move(frame));
      },
      /*on_migration=*/nullptr));
  running_.store(true, std::memory_order_release);
  mgmt_thread_ = std::thread([this] { ManagementLoop(); });
  return Status::Ok();
}

void ElasticHead::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(events_mutex_);
    events_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(members_mutex_);
    members_cv_.notify_all();
  }
  if (mgmt_thread_.joinable()) {
    mgmt_thread_.join();
  }
  for (auto& part : parts_) {
    std::lock_guard<std::mutex> lock(part->mu);
    for (auto& chan : part->chans) {
      chan->Close();
    }
    part->chans.clear();
  }
  if (mux_pool_) {
    mux_pool_->CloseAll();
  }
  if (server_) {
    server_->Stop();
  }
}

uint16_t ElasticHead::port() const { return server_->port(); }

Result<uint32_t> ElasticHead::OnJoin(const net::JoinMsg& join) {
  if (join.deployment_id != options_.deployment_id) {
    return Status(StatusCode::kFailedPrecondition, "wrong deployment");
  }
  std::lock_guard<std::mutex> lock(members_mutex_);
  Member& m = members_[join.member_id];
  m.id = join.member_id;
  m.host = join.host.empty() ? "127.0.0.1" : join.host;
  m.data_port = static_cast<uint16_t>(join.data_port);
  m.alive = true;
  m.suspected = false;
  m.straggler = false;
  m.last_seen = std::chrono::steady_clock::now();
  members_cv_.notify_all();
  SDG_LOG(kInfo) << "head: member " << join.member_id << " joined ("
                 << m.host << ":" << m.data_port << " '" << join.name << "')";
  return join.member_id;
}

void ElasticHead::SetResponseHandler(ResponseHandler handler) {
  std::lock_guard<std::mutex> lock(response_mutex_);
  response_handler_ = std::move(handler);
}

void ElasticHead::OnMemberFrame(uint32_t member_id, net::Frame frame) {
  if (frame.type == net::FrameType::kResponse) {
    // Strong-read result riding the worker's control channel back to the
    // gateway. Handler must not block: this is the member IO thread.
    auto resp = net::ResponseMsg::Decode(frame.payload);
    if (!resp.ok()) {
      return;
    }
    ResponseHandler handler;
    {
      std::lock_guard<std::mutex> lock(response_mutex_);
      handler = response_handler_;
    }
    if (handler) {
      handler(member_id, std::move(*resp));
    }
    return;
  }
  // IO thread: record and notify only.
  if (frame.type != net::FrameType::kControl) {
    return;
  }
  auto msg = net::ControlMsg::Decode(frame.payload);
  if (!msg.ok()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(members_mutex_);
    auto it = members_.find(member_id);
    if (it != members_.end()) {
      it->second.last_seen = std::chrono::steady_clock::now();
      if (msg->op == net::kCtrlStraggler) {
        it->second.straggler = true;
      }
    }
  }
  if (msg->op == net::kCtrlStraggler) {
    return;
  }
  std::lock_guard<std::mutex> lock(events_mutex_);
  events_.push_back({member_id, std::move(*msg)});
  while (events_.size() > 1024) {
    events_.pop_front();
  }
  events_cv_.notify_all();
}

Result<net::ControlMsg> ElasticHead::WaitForControl(uint32_t member,
                                                    uint32_t op,
                                                    uint32_t partition,
                                                    const std::string& text,
                                                    int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  std::unique_lock<std::mutex> lock(events_mutex_);
  for (;;) {
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->member != member || it->msg.partition != partition) {
        continue;
      }
      bool match = it->msg.op == net::kCtrlError ||
                   (it->msg.op == op &&
                    (text.empty() || it->msg.text == text));
      if (match) {
        net::ControlMsg msg = std::move(it->msg);
        events_.erase(it);
        return msg;
      }
    }
    if (!running_.load(std::memory_order_acquire)) {
      return Status(StatusCode::kAborted, "head stopping");
    }
    if (events_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return Status(StatusCode::kDeadlineExceeded,
                    "timed out waiting for control reply");
    }
  }
}

void ElasticHead::PurgeControl(uint32_t op, uint32_t partition,
                               const std::string& text) {
  std::lock_guard<std::mutex> lock(events_mutex_);
  for (auto it = events_.begin(); it != events_.end();) {
    bool match = it->msg.partition == partition &&
                 (it->msg.op == op || it->msg.op == net::kCtrlError) &&
                 (text.empty() || it->msg.op == net::kCtrlError ||
                  it->msg.text == text);
    it = match ? events_.erase(it) : ++it;
  }
}

Result<ElasticHead::Member> ElasticHead::GetMember(uint32_t id) const {
  std::lock_guard<std::mutex> lock(members_mutex_);
  auto it = members_.find(id);
  if (it == members_.end() || !it->second.alive) {
    return Status(StatusCode::kNotFound,
                  "member " + std::to_string(id) + " not alive");
  }
  return it->second;
}

std::vector<uint32_t> ElasticHead::AliveMembers() const {
  std::lock_guard<std::mutex> lock(members_mutex_);
  std::vector<uint32_t> out;
  for (const auto& [id, m] : members_) {
    if (m.alive) {
      out.push_back(id);
    }
  }
  return out;
}

uint32_t ElasticHead::OwnerOf(uint32_t partition) const {
  auto& part = *parts_[partition];
  std::lock_guard<std::mutex> lock(part.mu);
  return part.owner;
}

Result<uint32_t> ElasticHead::PickTarget(uint32_t exclude) const {
  std::map<uint32_t, size_t> owned;
  for (const auto& part : parts_) {
    std::lock_guard<std::mutex> lock(part->mu);
    if (part->owner != kNoOwner) {
      ++owned[part->owner];
    }
  }
  std::lock_guard<std::mutex> lock(members_mutex_);
  uint32_t best = kNoOwner;
  size_t best_owned = SIZE_MAX;
  for (const auto& [id, m] : members_) {
    if (!m.alive || id == exclude) {
      continue;
    }
    size_t n = owned.count(id) ? owned[id] : 0;
    if (n < best_owned) {
      best = id;
      best_owned = n;
    }
  }
  if (best == kNoOwner) {
    return Status(StatusCode::kNotFound, "no eligible member");
  }
  return best;
}

bool ElasticHead::WaitForMembers(size_t n, int timeout_ms) {
  std::unique_lock<std::mutex> lock(members_mutex_);
  return members_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms), [&] {
        size_t alive = 0;
        for (const auto& [id, m] : members_) {
          alive += m.alive ? 1 : 0;
        }
        return alive >= n;
      });
}

bool ElasticHead::WaitForAssignment(int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  for (;;) {
    bool all = true;
    for (const auto& part : parts_) {
      std::lock_guard<std::mutex> lock(part->mu);
      all = all && part->owner != kNoOwner;
    }
    if (all) {
      return true;
    }
    if (std::chrono::steady_clock::now() > deadline ||
        !running_.load(std::memory_order_acquire)) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Status ElasticHead::FlipOwnerLocked(Part& part, uint32_t partition,
                                    uint32_t member) {
  SDG_ASSIGN_OR_RETURN(Member m, GetMember(member));
  for (auto& chan : part.chans) {
    chan->Close();
  }
  part.chans.clear();
  part.owner = member;
  Status first;
  for (uint32_t ei = 0; ei < options_.entries.size(); ++ei) {
    uint32_t si = SourceInstanceOf(ei, partition, options_.partitions);
    net::RemoteChannelOptions copts;
    copts.host = m.host;
    copts.port = m.data_port;
    copts.deployment_id = options_.deployment_id;
    copts.source_task = runtime::kRemoteSourceTask;
    copts.source_instance = si;
    copts.entry = options_.entries[ei];
    copts.reconnect_attempts = options_.channel_reconnect_attempts;
    copts.reconnect_backoff_ms = options_.channel_reconnect_backoff_ms;
    copts.mux = mux_pool_.get();
    auto chan =
        std::make_shared<net::RemoteChannel>(copts, logs_[si].get());
    // Connect replays everything logged past the owner's durable watermark;
    // a failure here is repaired by the next Deliver (or the quiesce poke).
    Status st = chan->Connect();
    if (first.ok() && !st.ok()) {
      first = st;
    }
    part.chans.push_back(std::move(chan));
  }
  return first;
}

Status ElasticHead::Inject(uint32_t entry_index, Tuple tuple,
                           int deadline_ms) {
  if (entry_index >= options_.entries.size()) {
    return Status(StatusCode::kInvalidArgument, "bad entry index");
  }
  if (tuple.empty()) {
    return Status(StatusCode::kInvalidArgument, "empty tuple");
  }
  uint32_t partition =
      static_cast<uint32_t>(tuple[0].Hash() % options_.partitions);
  uint32_t si = SourceInstanceOf(entry_index, partition, options_.partitions);
  Part& part = *parts_[partition];
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms);
  for (;;) {
    std::shared_ptr<net::RemoteChannel> chan;
    {
      std::lock_guard<std::mutex> lock(part.mu);
      if (part.owner != kNoOwner && entry_index < part.chans.size()) {
        chan = part.chans[entry_index];
      }
    }
    if (chan) {
      std::lock_guard<std::mutex> send(part.send_mu);
      runtime::DataItem item;
      item.from = {runtime::kRemoteSourceTask, si};
      item.ts = clocks_[si]->Next();
      item.payload = tuple;
      if (chan->Deliver(std::move(item))) {
        return Status::Ok();
      }
      // Not logged (wire down past the redial budget, or mid-flip): retry
      // with a fresh timestamp — holes in the sequence are harmless, the
      // watermark protocol only needs monotonicity.
    }
    if (std::chrono::steady_clock::now() > deadline) {
      return Status(StatusCode::kDeadlineExceeded,
                    "inject: partition " + std::to_string(partition) +
                        " unreachable");
    }
    if (!running_.load(std::memory_order_acquire)) {
      return Status(StatusCode::kAborted, "head stopping");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Status ElasticHead::InjectBatch(uint32_t entry_index,
                                std::vector<TaggedTuple> tuples,
                                int deadline_ms) {
  if (entry_index >= options_.entries.size()) {
    return Status(StatusCode::kInvalidArgument, "bad entry index");
  }
  std::vector<std::vector<TaggedTuple>> by_part(options_.partitions);
  for (auto& tt : tuples) {
    if (tt.tuple.empty()) {
      return Status(StatusCode::kInvalidArgument, "empty tuple");
    }
    uint32_t partition =
        static_cast<uint32_t>(tt.tuple[0].Hash() % options_.partitions);
    by_part[partition].push_back(std::move(tt));
  }
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms);
  for (uint32_t partition = 0; partition < options_.partitions; ++partition) {
    auto& batch = by_part[partition];
    if (batch.empty()) {
      continue;
    }
    uint32_t si =
        SourceInstanceOf(entry_index, partition, options_.partitions);
    Part& part = *parts_[partition];
    size_t accepted = 0;
    for (;;) {
      std::shared_ptr<net::RemoteChannel> chan;
      {
        std::lock_guard<std::mutex> lock(part.mu);
        if (part.owner != kNoOwner && entry_index < part.chans.size()) {
          chan = part.chans[entry_index];
        }
      }
      if (chan) {
        std::lock_guard<std::mutex> send(part.send_mu);
        std::vector<runtime::DataItem> items;
        items.reserve(batch.size() - accepted);
        // The unaccepted suffix is rebuilt with fresh timestamps on every
        // attempt (same monotonicity argument as Inject: holes are fine).
        for (size_t i = accepted; i < batch.size(); ++i) {
          runtime::DataItem item;
          item.from = {runtime::kRemoteSourceTask, si};
          item.ts = clocks_[si]->Next();
          item.user_tag = batch[i].tag;
          item.payload = batch[i].tuple;
          items.push_back(std::move(item));
        }
        accepted += chan->DeliverAll(std::move(items));
        if (accepted >= batch.size()) {
          break;
        }
      }
      if (std::chrono::steady_clock::now() > deadline) {
        return Status(StatusCode::kDeadlineExceeded,
                      "inject batch: partition " + std::to_string(partition) +
                          " unreachable");
      }
      if (!running_.load(std::memory_order_acquire)) {
        return Status(StatusCode::kAborted, "head stopping");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return Status::Ok();
}

Status ElasticHead::PushPartition(
    uint32_t partition, uint32_t member, const ChainChunks& links,
    const std::vector<net::SourceWatermark>& watermarks) {
  std::lock_guard<std::mutex> migrate(migrate_mutex_);
  SDG_ASSIGN_OR_RETURN(Member m, GetMember(member));
  SDG_ASSIGN_OR_RETURN(net::Socket socket,
                       net::Socket::Connect(m.host, m.data_port));
  socket.SetRecvTimeout(options_.migrate_timeout_ms);
  net::FrameDecoder carry;
  net::MigrateBeginMsg begin;
  begin.state = options_.state;
  begin.partition = partition;
  begin.num_partitions = options_.partitions;
  SDG_RETURN_IF_ERROR(net::WriteFrameBlocking(
      socket, net::FrameType::kMigrateBegin, begin.Encode()));
  auto await_ack = [&]() -> Status {
    SDG_ASSIGN_OR_RETURN(net::Frame frame,
                         net::ReadFrameBlocking(socket, carry));
    if (frame.type != net::FrameType::kMigrateAck) {
      return Status(StatusCode::kDataLoss, "push: expected ack");
    }
    SDG_ASSIGN_OR_RETURN(auto ack, net::MigrateAckMsg::Decode(frame.payload));
    if (!ack.ok) {
      return Status(StatusCode::kAborted, "push rejected: " + ack.message);
    }
    return Status::Ok();
  };
  // One apply round per link, base first, like a live migration's base and
  // delta rounds; a partition with no links still applies once (empty).
  net::MigrateChunkMsg apply;
  apply.flags = net::kMigrateChunkApply;
  for (size_t l = 0; l < std::max<size_t>(links.size(), 1); ++l) {
    if (l < links.size()) {
      for (uint32_t i = 0; i < links[l].size(); ++i) {
        net::MigrateChunkMsg msg;
        msg.chunk_index = i;
        msg.bytes = links[l][i];
        SDG_RETURN_IF_ERROR(net::WriteFrameBlocking(
            socket, net::FrameType::kMigrateChunk, msg.Encode()));
      }
    }
    SDG_RETURN_IF_ERROR(net::WriteFrameBlocking(
        socket, net::FrameType::kMigrateChunk, apply.Encode()));
    SDG_RETURN_IF_ERROR(await_ack());
  }
  net::MigrateCommitMsg commit;
  commit.state = options_.state;
  commit.partition = partition;
  commit.watermarks = watermarks;
  SDG_RETURN_IF_ERROR(net::WriteFrameBlocking(
      socket, net::FrameType::kMigrateCommit, commit.Encode()));
  SDG_RETURN_IF_ERROR(await_ack());
  Part& part = *parts_[partition];
  {
    std::lock_guard<std::mutex> lock(part.mu);
    (void)FlipOwnerLocked(part, partition, member);
  }
  // The target also reported kCtrlDone on its control channel; this push
  // drove the session itself, so drop the notification.
  PurgeControl(net::kCtrlDone, partition, "migrated");
  return Status::Ok();
}

Status ElasticHead::MigratePartition(uint32_t partition,
                                     uint32_t target_member) {
  if (partition >= options_.partitions) {
    return Status(StatusCode::kInvalidArgument, "bad partition");
  }
  std::lock_guard<std::mutex> migrate(migrate_mutex_);
  uint32_t source = OwnerOf(partition);
  if (source == kNoOwner) {
    return Status(StatusCode::kFailedPrecondition, "partition unowned");
  }
  if (source == target_member) {
    return Status(StatusCode::kInvalidArgument, "target already owns it");
  }
  SDG_ASSIGN_OR_RETURN(Member target, GetMember(target_member));
  PurgeControl(net::kCtrlPrepared, partition, "");
  PurgeControl(net::kCtrlDone, partition, "migrated");

  // The target drops what it received; the source, which still owns the
  // partition, ends its side of the move (a no-op once its rounds or the
  // cutover ended it).
  auto abort = [&](const Status& why) -> Status {
    net::ControlMsg release;
    release.op = net::kCtrlRelease;
    release.partition = partition;
    (void)server_->SendToMember(target_member, net::FrameType::kControl,
                                release.Encode());
    net::ControlMsg drop;
    drop.op = net::kCtrlAbortMigration;
    drop.partition = partition;
    (void)server_->SendToMember(source, net::FrameType::kControl,
                                drop.Encode());
    SDG_LOG(kWarning) << "head: migration of p" << partition << " to m"
                   << target_member << " aborted: " << why.ToString();
    return why;
  };

  net::MigrateBeginMsg begin;
  begin.state = options_.state;
  begin.partition = partition;
  begin.num_partitions = options_.partitions;
  begin.target_host = target.host;
  begin.target_port = target.data_port;
  if (!server_->SendToMember(source, net::FrameType::kMigrateBegin,
                             begin.Encode())) {
    return abort(Status(StatusCode::kUnavailable, "source unreachable"));
  }
  auto prepared = WaitForControl(source, net::kCtrlPrepared, partition, "",
                                 options_.migrate_timeout_ms);
  if (!prepared.ok()) {
    return abort(prepared.status());
  }
  if (prepared->op == net::kCtrlError) {
    return abort(Status(StatusCode::kAborted,
                        "source failed to prepare: " + prepared->text));
  }

  // Cutover: pause the partition's channels, order the final handoff, flip
  // on the target's durable confirmation. The pause window below is the
  // migration pause the bench and the smoke assert on.
  Part& part = *parts_[partition];
  std::unique_lock<std::mutex> pause(part.mu);
  auto t0 = std::chrono::steady_clock::now();
  net::ControlMsg cutover;
  cutover.op = net::kCtrlCutover;
  cutover.partition = partition;
  if (!server_->SendToMember(source, net::FrameType::kControl,
                             cutover.Encode())) {
    pause.unlock();
    return abort(Status(StatusCode::kUnavailable, "source lost at cutover"));
  }
  auto done = WaitForControl(target_member, net::kCtrlDone, partition,
                             "migrated", options_.migrate_timeout_ms);
  if (!done.ok() || done->op == net::kCtrlError) {
    pause.unlock();
    return abort(done.ok() ? Status(StatusCode::kAborted,
                                    "target failed: " + done->text)
                           : done.status());
  }
  Status flip = FlipOwnerLocked(part, partition, target_member);
  double pause_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  pause.unlock();
  last_pause_ms_.store(pause_ms, std::memory_order_relaxed);
  migrations_done_.fetch_add(1, std::memory_order_relaxed);
  SDG_LOG(kInfo) << "head: migrated p" << partition << " m" << source
                 << " -> m" << target_member << " pause_ms=" << pause_ms
                 << (flip.ok() ? "" : " (reconnect pending)");
  return Status::Ok();
}

Status ElasticHead::RecoverMember(uint32_t member) {
  if (store_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition, "head has no backup root");
  }
  {
    std::lock_guard<std::mutex> lock(members_mutex_);
    auto it = members_.find(member);
    if (it != members_.end()) {
      it->second.alive = false;
    }
  }
  // The dead member's last published epoch (if it ever checkpointed). With
  // no epoch the partitions restart empty — and the head's logs, never
  // acked, still hold every item, so replay rebuilds the state. A damaged
  // epoch fails the recovery: the logs were trimmed up to its watermarks.
  checkpoint::CheckpointMeta meta;
  auto latest = store_->LatestEpoch(member);
  if (latest.ok()) {
    SDG_ASSIGN_OR_RETURN(meta, store_->ReadMeta(member, *latest));
  }
  std::vector<uint32_t> lost;
  for (uint32_t p = 0; p < options_.partitions; ++p) {
    if (OwnerOf(p) == member) {
      lost.push_back(p);
    }
  }
  if (lost.empty()) {
    return Status::Ok();
  }
  std::vector<uint32_t> alive = AliveMembers();
  if (alive.empty()) {
    return Status(StatusCode::kUnavailable, "no member to recover onto");
  }
  SDG_LOG(kInfo) << "head: recovering " << lost.size() << " partitions of m"
                 << member << " across " << alive.size() << " members";
  Status first;
  for (size_t i = 0; i < lost.size(); ++i) {
    uint32_t p = lost[i];
    ChainChunks links;
    std::vector<net::SourceWatermark> watermarks;
    Status read;
    for (const auto& sm : meta.states) {
      if (sm.instance == p && read.ok()) {
        read = store_->ReadChain(
            member, sm, [&links](std::vector<std::vector<uint8_t>> chunks) {
              links.push_back(std::move(chunks));
              return Status::Ok();
            });
      }
    }
    if (!read.ok()) {
      // Pushing the watermarks without the state would skip the acked
      // writes the chain held: leave the partition unrecovered.
      if (first.ok()) {
        first = read;
      }
      continue;
    }
    for (const auto& tm : meta.tasks) {
      if (tm.instance % options_.partitions != p) {
        continue;
      }
      for (const auto& ls : tm.last_seen) {
        watermarks.push_back({tm.instance, ls.ts});
      }
    }
    uint32_t to = alive[i % alive.size()];
    Status st = PushPartition(p, to, links, watermarks);
    if (!st.ok() && first.ok()) {
      first = st;
    }
  }
  return first;
}

Status ElasticHead::CheckpointMember(uint32_t member, int timeout_ms) {
  PurgeControl(net::kCtrlDone, 0, "checkpoint");
  net::ControlMsg msg;
  msg.op = net::kCtrlCheckpoint;
  if (!server_->SendToMember(member, net::FrameType::kControl, msg.Encode())) {
    return Status(StatusCode::kUnavailable,
                  "member " + std::to_string(member) + " unreachable");
  }
  SDG_ASSIGN_OR_RETURN(
      net::ControlMsg done,
      WaitForControl(member, net::kCtrlDone, 0, "checkpoint", timeout_ms));
  if (done.op == net::kCtrlError) {
    return Status(StatusCode::kAborted, "checkpoint failed: " + done.text);
  }
  return Status::Ok();
}

Status ElasticHead::CheckpointAll(int timeout_ms) {
  for (uint32_t id : AliveMembers()) {
    SDG_RETURN_IF_ERROR(CheckpointMember(id, timeout_ms));
  }
  return Status::Ok();
}

size_t ElasticHead::UnackedTotal() const {
  size_t n = 0;
  for (const auto& log : logs_) {
    n += log->size();
  }
  return n;
}

bool ElasticHead::AwaitQuiesce(int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  auto next_checkpoint = std::chrono::steady_clock::now();
  for (;;) {
    if (UnackedTotal() == 0) {
      return true;
    }
    // Idle channels with backlog may have exhausted their background redial
    // round (e.g. the worker restarted while nothing was being injected);
    // poke them so reconnect-replay drains the logs.
    for (uint32_t p = 0; p < options_.partitions; ++p) {
      Part& part = *parts_[p];
      std::vector<std::shared_ptr<net::RemoteChannel>> chans;
      {
        std::lock_guard<std::mutex> lock(part.mu);
        chans = part.chans;
      }
      for (auto& chan : chans) {
        if (chan->UnackedCount() > 0 && !chan->connected()) {
          (void)chan->Connect();
        }
      }
    }
    // Acks only happen when a worker checkpoints, so quiescing has to drive
    // checkpoint rounds: items that were still in flight (wire or executor)
    // during one round become durable — and acked — in a later one.
    if (std::chrono::steady_clock::now() >= next_checkpoint) {
      for (uint32_t id : AliveMembers()) {
        (void)CheckpointMember(id, /*timeout_ms=*/5000);
      }
      next_checkpoint =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    }
    if (std::chrono::steady_clock::now() > deadline ||
        !running_.load(std::memory_order_acquire)) {
      return UnackedTotal() == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
}

size_t ElasticHead::BacklogOf(uint32_t member) const {
  size_t n = 0;
  for (uint32_t p = 0; p < options_.partitions; ++p) {
    Part& part = *parts_[p];
    std::lock_guard<std::mutex> lock(part.mu);
    if (part.owner != member) {
      continue;
    }
    for (uint32_t ei = 0; ei < options_.entries.size(); ++ei) {
      n += logs_[SourceInstanceOf(ei, p, options_.partitions)]->size();
    }
  }
  return n;
}

void ElasticHead::AssignUnowned() {
  for (uint32_t p = 0; p < options_.partitions; ++p) {
    {
      std::lock_guard<std::mutex> lock(parts_[p]->mu);
      if (parts_[p]->owner != kNoOwner) {
        continue;
      }
    }
    auto target = PickTarget(kNoOwner);
    if (!target.ok()) {
      return;  // nobody joined yet
    }
    Status st = PushPartition(p, *target, {}, {});
    if (!st.ok()) {
      SDG_LOG(kWarning) << "head: assigning p" << p << " to m" << *target
                     << " failed: " << st.ToString();
    }
  }
}

void ElasticHead::MaybeScaleOut() {
  auto now = std::chrono::steady_clock::now();
  if (now - last_scale_out_ <
      std::chrono::milliseconds(options_.cooldown_ms)) {
    return;
  }
  // A member is overloaded when it reported straggling or its unacked
  // backlog is pinned high; shed one partition to the least-loaded peer.
  uint32_t overloaded = kNoOwner;
  {
    std::lock_guard<std::mutex> lock(members_mutex_);
    for (const auto& [id, m] : members_) {
      if (m.alive && m.straggler) {
        overloaded = id;
        break;
      }
    }
  }
  if (overloaded == kNoOwner) {
    size_t worst = 0;
    for (uint32_t id : AliveMembers()) {
      size_t backlog = BacklogOf(id);
      if (backlog >= options_.backlog_high && backlog > worst) {
        worst = backlog;
        overloaded = id;
      }
    }
  }
  if (overloaded == kNoOwner) {
    return;
  }
  auto target = PickTarget(overloaded);
  if (!target.ok()) {
    return;
  }
  size_t src_owned = 0;
  uint32_t candidate = kNoOwner;
  for (uint32_t p = 0; p < options_.partitions; ++p) {
    if (OwnerOf(p) == overloaded) {
      ++src_owned;
      if (candidate == kNoOwner) {
        candidate = p;
      }
    }
  }
  size_t dst_owned = 0;
  for (uint32_t p = 0; p < options_.partitions; ++p) {
    dst_owned += OwnerOf(p) == *target ? 1 : 0;
  }
  if (candidate == kNoOwner || dst_owned >= src_owned ||
      BacklogOf(*target) > options_.backlog_high / 4) {
    return;
  }
  SDG_LOG(kInfo) << "head: scale-out, shedding p" << candidate << " from m"
                 << overloaded << " to m" << *target;
  Status st = MigratePartition(candidate, *target);
  {
    std::lock_guard<std::mutex> lock(members_mutex_);
    auto it = members_.find(overloaded);
    if (it != members_.end()) {
      it->second.straggler = false;
    }
  }
  if (st.ok()) {
    last_scale_out_ = std::chrono::steady_clock::now();
  }
}

void ElasticHead::ProbeMembers() {
  std::vector<uint32_t> suspects;
  {
    std::lock_guard<std::mutex> lock(members_mutex_);
    for (auto& [id, m] : members_) {
      if (!m.alive) {
        continue;
      }
      net::ControlMsg ping;
      ping.op = net::kCtrlPing;
      bool reachable = server_->SendToMember(id, net::FrameType::kControl,
                                             ping.Encode());
      auto now = std::chrono::steady_clock::now();
      if (reachable) {
        m.suspected = false;
        m.last_seen = now;
        continue;
      }
      if (!m.suspected) {
        m.suspected = true;
        m.suspect_since = now;
        continue;
      }
      if (options_.auto_recover_ms > 0 &&
          now - m.suspect_since >
              std::chrono::milliseconds(options_.auto_recover_ms)) {
        suspects.push_back(id);
      }
    }
  }
  for (uint32_t id : suspects) {
    SDG_LOG(kWarning) << "head: member " << id << " declared dead, recovering";
    Status st = RecoverMember(id);
    if (!st.ok()) {
      SDG_LOG(kWarning) << "head: recovery of m" << id
                     << " failed: " << st.ToString();
    }
  }
}

void ElasticHead::ManagementLoop() {
  uint64_t last_probe_ms = NowMs();
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.monitor_interval_ms));
    if (!running_.load(std::memory_order_acquire)) {
      return;
    }
    AssignUnowned();
    uint64_t now = NowMs();
    if (now - last_probe_ms >= 500) {
      last_probe_ms = now;
      ProbeMembers();
    }
    if (options_.auto_scale) {
      MaybeScaleOut();
    }
  }
}

}  // namespace sdg::elastic
