// Elastic scale-out over the real transport (§3.3 + §5 across processes).
//
// Two roles build a multi-process deployment out of the existing pieces:
//
//  - ElasticHead: the router/ingest process. It owns the membership
//    ChannelServer (worker processes register over kJoin and keep the
//    connection as their control channel), the partition routing table, and
//    one RemoteChannel + OutputBuffer + LogicalClock per (entry, partition).
//    Injected tuples are routed by payload[0].Hash() % partitions — exactly
//    the dispatcher's partitioned routing — so partition p always lands in
//    SE instance p of whichever worker currently owns p.
//
//  - ElasticWorker: a worker process hosting a full Deployment (all P
//    partition instances materialised, only the owned subset fed). Ingest
//    arrives through its own ChannelServer; durability is the upstream-backup
//    contract: checkpoint owned partitions + per-source watermarks to a
//    BackupStore, then AckSource so the head trims its logs. A restart
//    restores the latest epoch, rejoins under the same member id and the
//    head's channels replay past the durable watermarks.
//
// Live migration moves one partition between workers while the source keeps
// serving: the head commands the source (kMigrateBegin over the control
// channel); the source dials the target's ChannelServer and streams a
// compressed base epoch plus delta epochs through ChunkStreamWriter's
// remote-sink mode; once prepared, the head pauses the partition's channels,
// orders the cutover (drain + final delta under quiesce + watermark handoff
// in kMigrateCommit), and flips routing to the target, whose stream open-ack
// watermarks make the channels replay exactly the unacked suffix. The
// interval from pause to flipped-and-reconnected is the measured migration
// pause. The same push session, driven by the head from a dead worker's
// backup store, is the m-to-n recovery path: each lost partition is pushed
// to a different surviving worker.
#ifndef SDG_RUNTIME_ELASTIC_H_
#define SDG_RUNTIME_ELASTIC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/checkpoint/backup_store.h"
#include "src/checkpoint/epoch_tail.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/graph/sdg.h"
#include "src/net/channel_server.h"
#include "src/net/mux.h"
#include "src/net/remote_channel.h"
#include "src/runtime/cluster.h"
#include "src/runtime/output_buffer.h"

namespace sdg::elastic {

inline constexpr uint32_t kNoOwner = 0xFFFFFFFFu;

// Remote source instance feeding entry `entry_index`'s items for partition
// `partition`: each (entry, partition) pair is its own channel, clock and
// watermark space.
inline uint32_t SourceInstanceOf(uint32_t entry_index, uint32_t partition,
                                 uint32_t num_partitions) {
  return entry_index * num_partitions + partition;
}

// ---------------------------------------------------------------------------
// Worker

struct ElasticWorkerOptions {
  uint64_t deployment_id = 1;
  // Stable across restarts; names the worker's backup-store directory and
  // identifies the member to the head (a rejoin supersedes).
  uint32_t member_id = 0;
  std::string name;  // diagnostics
  std::string head_host = "127.0.0.1";
  uint16_t head_port = 0;
  // This worker's own ChannelServer (data channels + inbound migration
  // sessions). Must be stable across restarts: the head's channels redial it.
  uint16_t data_port = 0;
  // Partitioned SE this worker serves and its entry TEs, in the same order
  // the head was configured with (source instances must agree).
  std::string state;
  uint32_t partitions = 1;
  std::vector<std::string> entries;
  // Backup store root; the worker persists under node id = member_id.
  std::string backup_root;
  uint32_t backup_nodes = 2;
  // 0 = checkpoint only on head command (kCtrlCheckpoint).
  int checkpoint_interval_ms = 0;
  // Artificial per-item ingest delay — the straggler knob for tests/smoke.
  int slow_us = 0;
  // Seeded crash points for the migration test matrix. One of "",
  // "migrate.base", "migrate.delta", "migrate.precutover",
  // "migrate.postcommit": the process _Exit(41)s at that phase.
  std::string crash_at;
  // Worker deployment shape.
  uint32_t local_nodes = 1;
  size_t executor_workers = 0;
  runtime::ScalingOptions scaling;  // on_straggler is wired to kCtrlStraggler
  // Serve path. With serve_feed set, every checkpoint epoch of an owned
  // partition is also published to the head's gateway over a replica-feed
  // connection (kReplicaSubscribe + kReplicaEpoch): an announce, then the
  // same chunk blobs the epoch wrote to the backup store. Live subscribers
  // get a delta every epoch — at a re-base epoch the base goes to the store
  // and the tail, and the epoch's small delta to the live feed — and a base
  // only when the partition's delta baseline is new (restore, migration,
  // release) or the partition outgrew its base (DeltaChain::Outgrown), when
  // the delta would be as large. An EpochTail per partition mirrors the
  // durable chain (base + deltas) for reconnect replay and re-bases with it.
  bool serve_feed = false;
  // Sink TEs whose outputs are forwarded to the head as kResponse frames
  // (request_id = the item's user_tag) — the strong-read reply path. They
  // ride a dedicated reply stream to the head, so bulk replies never queue
  // behind (or ahead of) control traffic; the control channel carries a
  // reply only while that stream is down or out of credits.
  std::vector<std::string> forward_sinks;
};

class ElasticWorker {
 public:
  // `g` is the worker's SDG (e.g. BuildKvSdg/BuildWordCountSdg with
  // `options.partitions` partitions).
  ElasticWorker(graph::Sdg g, ElasticWorkerOptions options);
  ~ElasticWorker();

  ElasticWorker(const ElasticWorker&) = delete;
  ElasticWorker& operator=(const ElasticWorker&) = delete;

  // Deploys, restores the latest durable epoch (if any), starts the data
  // server and joins the head (retrying until Stop).
  Status Start();
  void Stop();

  // Blocks until the worker has joined the head (false on timeout).
  bool WaitJoined(int timeout_ms);

  uint16_t data_port() const;
  std::vector<uint32_t> OwnedPartitions() const;
  uint64_t ItemsIngested() const {
    return items_ingested_.load(std::memory_order_relaxed);
  }

  // Persists owned partitions + watermarks as one epoch, then acks the
  // sources. Public for tests; also runs on the interval and on command.
  Status Checkpoint();

  runtime::Deployment* deployment() { return deployment_.get(); }

  // Epochs published to the replica feed (serve_feed only).
  uint64_t feed_epochs_published() const {
    return feed_published_.load(std::memory_order_relaxed);
  }

 private:
  struct OutboundMigration {
    net::Socket socket;
    net::FrameDecoder carry;
    uint32_t partition = 0;
  };

  void CrashPoint(const char* phase);

  // Data-plane callbacks.
  Result<uint64_t> OnHandshake(const net::Handshake& hs);
  void OnBatch(const net::Handshake& hs,
               std::vector<runtime::DataItem> items);
  // Target side of a migration/recovery push session; runs on a setup thread
  // of the data server.
  void OnMigrationSession(net::Socket socket, net::FrameDecoder carry,
                          const net::MigrateBeginMsg& begin);

  // Control channel: join (with retry) then execute head commands until Stop.
  void ControlLoop();
  Status JoinHead(net::Socket* socket, net::FrameDecoder* carry);
  void HandleControl(net::Socket& socket, const net::ControlMsg& msg);
  // Source side of a live migration: stream base + deltas to the target,
  // then report prepared.
  void HandleMigrateBegin(net::Socket& control,
                          const net::MigrateBeginMsg& cmd);
  void HandleCutover(net::Socket& control, uint32_t partition);
  // Best-effort send on the current control connection (straggler escalation,
  // migrated-in notifications); false when not joined or the wire is broken.
  bool SendControlToHead(const net::ControlMsg& msg);
  // Forwards one sink output to the head as a kResponse frame — over the
  // reply stream when it has credits (pipelined, off the control channel),
  // else on the control channel.
  bool SendResponseToHead(const net::ResponseMsg& msg);
  // Returns the cached reply stream, opening one if needed; null while the
  // head is unreachable (the caller uses the control channel).
  std::shared_ptr<net::MuxStream> ReplyStream();

  // Replica feed (serve_feed): connects to the head's gateway, replays the
  // retained tails, then streams epochs as Checkpoint publishes them.
  void FeedLoop();
  // Queues one feed message; drops to a tail re-replay when the queue backs
  // up (a wedged gateway must not hold worker memory hostage).
  void QueueFeed(net::ReplicaEpochMsg msg);

  // One serialized epoch (base or delta) of `backend` streamed into `sink`
  // as kMigrateChunk segments; `phase` is the crash-point name.
  Status StreamEpoch(state::StateBackend& backend, net::Socket& socket,
                     bool delta, const char* phase);
  Status AwaitMigrateAck(net::Socket& socket, net::FrameDecoder& carry);

  void CheckpointLoop();

  // Drops partition `p`'s committed chain (and the feed tail mirroring it),
  // so its next epoch is a full base. Caller holds op_mutex_.
  void ResetChain(uint32_t p);
  // Ends `p`'s outbound migration: its rounds committed the delta tracker,
  // so the chain no longer matches the tracker's baseline. Caller holds
  // op_mutex_.
  void EndMigration(uint32_t p);

  const ElasticWorkerOptions options_;
  graph::Sdg graph_;
  std::unique_ptr<runtime::Deployment> deployment_;
  std::unique_ptr<checkpoint::BackupStore> store_;
  std::unique_ptr<net::ChannelServer> server_;

  // Gates ingest against checkpoint/cutover; see the ordering note in
  // elastic.cc (op_mutex_ before ingest_mutex_).
  std::mutex op_mutex_;
  mutable std::mutex ingest_mutex_;
  std::set<uint32_t> owned_;                 // partitions served
  std::map<uint32_t, uint64_t> received_;    // source instance -> applied wm
  std::map<uint32_t, uint64_t> durable_;     // source instance -> durable wm
  uint64_t epoch_ = 0;
  // Guarded by op_mutex_: each partition's committed durable chain, and the
  // partitions with an outbound migration in flight. A migration owns the
  // partition's delta tracker from its base round to its cutover (or the
  // head's kCtrlAbortMigration), so a checkpoint in between writes a full
  // base and hands the frozen set back.
  std::vector<checkpoint::DeltaChain> chains_;
  std::set<uint32_t> migrating_;

  std::mutex outbound_mutex_;
  std::optional<OutboundMigration> outbound_;  // prepared, awaiting cutover

  // The live control connection, published by ControlLoop for out-of-band
  // sends (and ShutdownBoth on Stop); null while disconnected.
  std::mutex ctrl_send_mutex_;
  net::Socket* ctrl_socket_ = nullptr;

  // Reply path: a pooled connection to the head and one cached reply
  // stream. A broken stream is dropped and reopened on the next response;
  // while it is down, responses ride the control channel.
  std::unique_ptr<net::MuxPool> reply_pool_;
  std::mutex reply_mutex_;
  std::shared_ptr<net::MuxStream> reply_stream_;
  // Backoff after a failed dial/open (head down), so responses don't pay a
  // fresh TCP connect each.
  std::chrono::steady_clock::time_point reply_retry_after_{};

  std::thread control_thread_;
  std::thread checkpoint_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> joined_{false};
  std::mutex joined_mutex_;
  std::condition_variable joined_cv_;
  std::atomic<uint64_t> items_ingested_{0};

  // Replica feed (serve_feed). Tails are per partition, internally locked
  // (Checkpoint and ResetChain write them under op_mutex_); the queue hands
  // Checkpoint's published epochs to the feed thread.
  std::vector<std::unique_ptr<checkpoint::EpochTail>> tails_;
  std::thread feed_thread_;
  std::mutex feed_mutex_;
  std::condition_variable feed_cv_;
  std::deque<net::ReplicaEpochMsg> feed_queue_;
  bool feed_replay_ = false;  // queue overflowed/reconnected: replay tails
  std::atomic<uint64_t> feed_published_{0};
};

// ---------------------------------------------------------------------------
// Head

struct ElasticHeadOptions {
  uint64_t deployment_id = 1;
  uint16_t port = 0;  // membership server; 0 = ephemeral
  std::string state;
  uint32_t partitions = 1;
  std::vector<std::string> entries;
  // Backup root shared with the workers — the head reads a dead member's
  // store to drive m-to-n recovery.
  std::string backup_root;
  uint32_t backup_nodes = 2;
  // Management loop cadence and scale-out policy: a member whose unacked
  // backlog stays at or above backlog_high while another member's is below
  // backlog_high/4 (or that reported kCtrlStraggler) sheds one partition.
  int monitor_interval_ms = 100;
  size_t backlog_high = 4096;
  int cooldown_ms = 2000;
  bool auto_scale = false;
  // A member whose control channel stays broken this long is declared dead
  // and its partitions are recovered onto the survivors. 0 disables.
  int auto_recover_ms = 0;
  int migrate_timeout_ms = 30000;
  // Per-delivery redial budget of the data channels (attempts * backoff
  // bounds how long one Deliver blocks while a worker restarts).
  int channel_reconnect_attempts = 25;
  int channel_reconnect_backoff_ms = 40;
};

class ElasticHead {
 public:
  explicit ElasticHead(ElasticHeadOptions options);
  ~ElasticHead();

  ElasticHead(const ElasticHead&) = delete;
  ElasticHead& operator=(const ElasticHead&) = delete;

  Status Start();
  void Stop();

  uint16_t port() const;

  // Blocks until `n` members are joined and alive.
  bool WaitForMembers(size_t n, int timeout_ms);
  // Blocks until every partition has an owner (initial assignment done).
  bool WaitForAssignment(int timeout_ms);

  // Routes one tuple of entry `entry_index` by payload[0].Hash() %
  // partitions, stamps the per-source clock, logs and delivers. Blocks while
  // the owner is being (re)connected or migrated; fails only after
  // `deadline_ms` of sustained failure.
  Status Inject(uint32_t entry_index, Tuple tuple, int deadline_ms = 120000);

  // Batched Inject: groups the tuples by owning partition and delivers each
  // group as one DataBatch frame — the serve path's amortisation lever.
  // `tag` rides DataItem::user_tag end to end (sink outputs echo it), so a
  // gateway can correlate responses. Same blocking/deadline semantics.
  struct TaggedTuple {
    Tuple tuple;
    uint64_t tag = 0;
  };
  Status InjectBatch(uint32_t entry_index, std::vector<TaggedTuple> tuples,
                     int deadline_ms = 120000);

  // Live migration of `partition` to `target_member` (must differ from the
  // current owner). Synchronous; concurrent calls are serialized.
  Status MigratePartition(uint32_t partition, uint32_t target_member);

  // m-to-n recovery: pushes every partition owned by dead `member` from its
  // backup store onto the surviving members, round-robin.
  Status RecoverMember(uint32_t member);

  // Orders `member` to checkpoint (and so ack) its partitions.
  Status CheckpointMember(uint32_t member, int timeout_ms = 30000);
  Status CheckpointAll(int timeout_ms = 30000);

  // True once every log is fully acked (all delivered items durable at the
  // owners). Pokes disconnected channels while waiting.
  bool AwaitQuiesce(int timeout_ms);
  size_t UnackedTotal() const;

  uint32_t OwnerOf(uint32_t partition) const;
  std::vector<uint32_t> AliveMembers() const;
  // Pause of the latest completed migration: channel-pause to routing
  // flipped and reconnected, in milliseconds.
  double last_migration_pause_ms() const {
    return last_pause_ms_.load(std::memory_order_relaxed);
  }
  uint64_t migrations_completed() const {
    return migrations_done_.load(std::memory_order_relaxed);
  }

  // The membership ChannelServer — the gateway layers its serve handlers
  // (client requests, replica feeds) onto the same port.
  net::ChannelServer* server() { return server_.get(); }

  // Receives kResponse frames forwarded by workers over their control
  // channels (strong-read replies). Runs on the IO thread — must not block.
  using ResponseHandler =
      std::function<void(uint32_t member_id, net::ResponseMsg msg)>;
  void SetResponseHandler(ResponseHandler handler);

 private:
  struct Member {
    uint32_t id = 0;
    std::string host;
    uint16_t data_port = 0;
    bool alive = false;
    bool straggler = false;
    std::chrono::steady_clock::time_point last_seen{};
    std::chrono::steady_clock::time_point suspect_since{};
    bool suspected = false;
  };

  struct Part {
    // Guards owner + channel vector; held across the migration pause.
    std::mutex mu;
    // Serializes Deliver calls per channel (RemoteChannel's single-sender
    // contract) without blocking the flip.
    std::mutex send_mu;
    uint32_t owner = kNoOwner;
    std::vector<std::shared_ptr<net::RemoteChannel>> chans;  // per entry
  };

  struct ControlEvent {
    uint32_t member = 0;
    net::ControlMsg msg;
  };

  Result<uint32_t> OnJoin(const net::JoinMsg& join);
  void OnMemberFrame(uint32_t member_id, net::Frame frame);

  // Waits for a control event matching (op, partition, text-prefix) from
  // `member`; removes and returns it.
  Result<net::ControlMsg> WaitForControl(uint32_t member, uint32_t op,
                                         uint32_t partition,
                                         const std::string& text,
                                         int timeout_ms);
  void PurgeControl(uint32_t op, uint32_t partition, const std::string& text);

  // Closes old channels, points `partition` at `member` and reconnects; the
  // caller holds part.mu. Returns the first connect error (channels heal on
  // later Deliver/poke regardless).
  Status FlipOwnerLocked(Part& part, uint32_t partition, uint32_t member);

  // Pushes `links` — a base+delta chain, each link's chunks applied before
  // the next link's are sent — plus the watermark handoff into `member`'s
  // data server as a migration session, and flips routing on success. The
  // initial-assignment (no links) and recovery paths.
  using ChainChunks = std::vector<std::vector<std::vector<uint8_t>>>;
  Status PushPartition(uint32_t partition, uint32_t member,
                       const ChainChunks& links,
                       const std::vector<net::SourceWatermark>& watermarks);

  size_t BacklogOf(uint32_t member) const;
  void ManagementLoop();
  void AssignUnowned();
  void MaybeScaleOut();
  void ProbeMembers();

  Result<Member> GetMember(uint32_t id) const;
  // First alive member with the fewest owned partitions, excluding `exclude`.
  Result<uint32_t> PickTarget(uint32_t exclude) const;

  const ElasticHeadOptions options_;
  std::unique_ptr<net::ChannelServer> server_;
  std::unique_ptr<checkpoint::BackupStore> store_;
  // Shared per-worker sockets for the data channels. Outlives the channels:
  // Stop closes them first, then the pool.
  std::unique_ptr<net::MuxPool> mux_pool_;

  mutable std::mutex members_mutex_;
  std::map<uint32_t, Member> members_;
  std::condition_variable members_cv_;

  std::vector<std::unique_ptr<Part>> parts_;
  // Logs and clocks outlive routing flips: logs_[entry * P + partition].
  std::vector<std::unique_ptr<runtime::OutputBuffer>> logs_;
  std::vector<std::unique_ptr<LogicalClock>> clocks_;

  mutable std::mutex events_mutex_;
  std::deque<ControlEvent> events_;
  std::condition_variable events_cv_;

  std::mutex response_mutex_;
  ResponseHandler response_handler_;

  std::mutex migrate_mutex_;  // one migration/push at a time
  std::thread mgmt_thread_;
  std::atomic<bool> running_{false};
  std::atomic<double> last_pause_ms_{0.0};
  std::atomic<uint64_t> migrations_done_{0};
  std::chrono::steady_clock::time_point last_scale_out_{};
};

}  // namespace sdg::elastic

#endif  // SDG_RUNTIME_ELASTIC_H_
