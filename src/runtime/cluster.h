// Cluster and Deployment: materialised execution of an SDG (§3.3) on a
// simulated cluster.
//
// A "node" is a placement container: every TE instance is materialised as a
// schedulable entity on the deployment's executor pool (executor.h), and
// data items crossing a node boundary are serialised and
// deserialised so the location-independence and recovery code paths are
// genuinely exercised. Instances of TEs that access the same SE form a
// state-bound group: they share the SE's instance count, and instance j of
// every accessor is colocated with SE instance j (the colocation rule of
// §3.3 step 3, maintained under runtime scaling).
//
// Fault tolerance (§5) is selected per deployment:
//   kNone        — no checkpoints (recovery impossible).
//   kAsyncLocal  — the paper's mechanism: dirty-state overlays let processing
//                  continue while the consistent snapshot is serialised and
//                  streamed to m backup directories; state is locked only to
//                  consolidate the overlay.
//   kSyncLocal   — SEEP-style: the node stops processing for the whole
//                  checkpoint.
//   kSyncGlobal  — Naiad-style stop-the-world: every node pauses while all
//                  state is checkpointed.
#ifndef SDG_RUNTIME_CLUSTER_H_
#define SDG_RUNTIME_CLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/checkpoint/backup_store.h"
#include "src/checkpoint/checkpoint_meta.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/graph/allocation.h"
#include "src/graph/sdg.h"
#include "src/runtime/data_item.h"
#include "src/runtime/executor.h"
#include "src/runtime/fault_injector.h"
#include "src/runtime/task_instance.h"

namespace sdg::runtime {

enum class FtMode { kNone, kAsyncLocal, kSyncLocal, kSyncGlobal };

std::string_view FtModeName(FtMode mode);

struct FaultToleranceOptions {
  FtMode mode = FtMode::kNone;
  // Interval of the periodic checkpoint driver; <= 0 disables the driver
  // (checkpoints can still be triggered manually).
  double checkpoint_interval_s = 10.0;
  // Number of chunks an SE instance is cut into (>= m gives the m-to-n
  // protocol freedom to spread them).
  uint32_t chunks_per_state = 4;
  // Per-recovering-node ingest bandwidth (bytes/s; 0 = unlimited). Models
  // each node's NIC/memory bandwidth during restore: splitting a failed SE
  // across n nodes divides the bytes each must ingest (Fig. 4 / Fig. 11).
  uint64_t recovery_ingest_bytes_per_sec = 0;
  // Delta epochs: 0 = every epoch persists the full state. k > 0 caps each
  // base+delta chain at k epochs — a full base, then up to k-1 delta epochs
  // persisting only records changed/erased since the previous epoch.
  uint32_t delta_epoch_interval = 0;
  // Chunk compression codec (state::kChunkCodec*), carried per chunk and
  // decoded transparently on restore.
  uint8_t chunk_codec = 0;
  // Threads fanning SerializeRecords across state shards on checkpoint (and
  // chunk restores on recovery). 0 = auto (hardware concurrency,
  // capped at 8); 1 = serial. Sharded backends emit disjoint shards, so the
  // fan-out is safe for any value.
  uint32_t ckpt_parallelism = 0;
  checkpoint::BackupStoreOptions store;
};

struct ScalingOptions {
  bool enabled = false;
  int sample_interval_ms = 250;
  // A TE is a bottleneck when its aggregate mailbox occupancy exceeds this
  // fraction of capacity for `samples_to_trigger` consecutive samples.
  double queue_high_watermark = 0.25;
  int samples_to_trigger = 3;
  int cooldown_ms = 3000;
  uint32_t max_instances_per_task = 8;
  // An instance processing slower than this fraction of its TE's median
  // marks its node as straggling (avoided for future placement).
  double straggler_ratio = 0.5;
  // Fired once per node on the not-straggler -> straggler transition, from
  // the monitor thread with no cluster locks held. The elastic runtime hooks
  // this to escalate to its head process, which may respond by migrating
  // partitions off the node live.
  std::function<void(uint32_t node)> on_straggler;
};

// Load-balancing policy for one-to-any dispatch.
enum class OneToAnyPolicy {
  kJoinShortestQueue,  // default: stragglers receive less work
  kRoundRobin,         // strict fair share (ablation baseline)
};

struct ClusterOptions {
  uint32_t num_nodes = 4;
  size_t mailbox_capacity = 1 << 16;
  // Maximum items a worker drains from its mailbox per wakeup. Larger
  // batches amortise the mailbox lock, condvar wakeup and in-flight report;
  // 1 reproduces strict item-at-a-time processing. Per-source FIFO order is
  // unaffected either way.
  size_t max_batch = 256;
  OneToAnyPolicy one_to_any = OneToAnyPolicy::kJoinShortestQueue;
  // Workers in the deployment's executor pool. 0 = use the process-wide
  // Executor::Shared() (hardware-concurrency workers, shared with the
  // network layer so total thread count stays O(cores)); > 0 = a private
  // pool of exactly that many workers (tests pin oversubscription ratios).
  size_t executor_workers = 0;
  // Serialise/deserialise items that cross node boundaries (realistic cost;
  // disable only for microbenchmarks of pure processing).
  bool serialize_cross_node = true;
  // Per-node speed factors (1.0 nominal, <1 straggler); missing entries = 1.
  std::vector<double> node_speed;
  FaultToleranceOptions fault_tolerance;
  ScalingOptions scaling;
  // Seeded deterministic fault injection (edge faults + crash points); see
  // fault_injector.h and docs/testing.md.
  FaultInjectionOptions fault_injection;
};

// Receives tuples a TE emits past its last out-edge. user_tag is the value
// given at injection (request latency measurement).
using SinkFn = std::function<void(const Tuple& tuple, uint64_t user_tag)>;

class Deployment final : public RuntimeHooks {
 public:
  Deployment(graph::Sdg g, ClusterOptions options);
  ~Deployment() override;

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Materialises all instances per the §3.3 allocation and starts workers.
  Status Start();

  // Feeds one data item into the named entry TE. Thread-safe.
  Status Inject(std::string_view entry, Tuple tuple, uint64_t user_tag = 0);

  // Feeds a batch of data items into the named entry TE under one
  // (clock, dispatch) critical section, delivering per destination instance
  // with one mailbox push per group. Equivalent to calling Inject for each
  // tuple in order (same per-source FIFO timestamps), but amortises the
  // ingest-gate, topology-lock and mailbox synchronisation over the batch.
  // Thread-safe.
  Status InjectAll(std::string_view entry, std::vector<Tuple> tuples,
                   uint64_t user_tag = 0);

  // Feeds items that arrived from a REMOTE deployment (net::ChannelServer)
  // into the named entry TE. Unlike InjectAll, the items keep the sender's
  // source id, timestamps and replayed flags — the remote OutputBuffer is
  // their authoritative log, so this deployment neither ticks an external
  // clock nor buffers them. Dispatch is deterministic in the item (partition
  // hash, or ts modulo instance count for one-to-any) so a reconnect replay
  // lands on the same instance, whose last-seen filter drops duplicates.
  // Thread-safe. Global entry TEs are not yet supported over the wire.
  Status InjectRemote(std::string_view entry, std::vector<DataItem> items);

  // Registers the sink for tuples `task` emits beyond its out-edges.
  Status OnOutput(std::string_view task, SinkFn fn);

  // Blocks until no data item is in flight (mailboxes empty, workers idle).
  // The caller must stop injecting first.
  void Drain();

  // Graceful stop: drains pipelines and joins all workers and service threads.
  void Shutdown();

  // --- Runtime parallelism (§3.3) -------------------------------------------

  // Adds one instance to `task`. For a stateful TE this scales the whole
  // state-bound group: a partitioned SE is re-sharded over k+1 instances, a
  // partial SE gains a fresh replica, and every accessor TE gains a
  // colocated instance. Pauses ingest briefly to drain in-flight items.
  Status AddTaskInstance(std::string_view task_name);

  uint32_t NumInstancesOf(std::string_view task_name) const;

  // Sentinel returned by placement when no node qualifies (nothing alive).
  static constexpr uint32_t kNoNode = 0xFFFFFFFFu;

  // Flags `node` so placement avoids it, exactly as the scaling monitor's
  // straggler detector would (exposed for tests and external monitors).
  void MarkNodeStraggler(uint32_t node);

  // Node hosting instance `instance` of `task_name`; kNoNode if unknown.
  uint32_t NodeOfTaskInstance(std::string_view task_name,
                              uint32_t instance) const;

  // --- Failure injection & recovery (§5) ------------------------------------

  // Triggers one checkpoint of `node` using the configured mode.
  Status CheckpointNode(uint32_t node);
  Status CheckpointAllNodes();

  // Abruptly kills `node`: workers abort, queued items and SE instances on
  // the node are lost.
  Status KillNode(uint32_t node);

  // Restores everything `failed` hosted onto `replacements` (m-to-n restore:
  // m backup directories stream chunks; |replacements| = n). n > 1 requires
  // each lost SE to have had a single instance, which is then range-split
  // into n partitioned instances.
  Status RecoverNode(uint32_t failed, const std::vector<uint32_t>& replacements);

  // Evacuates `from` entirely: checkpoint, retire the node, restore its TEs
  // and SEs onto `to` with replay. This is §6.3's "extreme case" — a
  // straggling node is removed and the job resumes from a checkpoint on a
  // new node. `from` stays dead afterwards.
  Status MigrateNode(uint32_t from, const std::vector<uint32_t>& to);

  // --- Introspection ---------------------------------------------------------

  const graph::Sdg& sdg() const { return sdg_; }
  uint64_t TotalProcessed() const;
  size_t TotalQueueDepth() const;
  size_t QueueDepthOf(std::string_view task_name) const;
  // Items processed by all instances of one TE.
  uint64_t ProcessedOf(std::string_view task_name) const;
  // Sum of SizeBytes over all instances of `state_name`.
  size_t StateSizeBytes(std::string_view state_name) const;
  // Direct access to an SE instance (tests and single-process apps).
  state::StateBackend* StateInstance(std::string_view state_name,
                                     uint32_t instance);
  uint32_t NumStateInstances(std::string_view state_name) const;
  // Node hosting instance `instance` of `state_name`; UINT32_MAX if unknown.
  uint32_t NodeOfStateInstance(std::string_view state_name,
                               uint32_t instance) const;
  bool NodeAlive(uint32_t node) const;
  // Non-null only when options.fault_injection.enabled.
  FaultInjector* fault_injector() { return fault_injector_.get(); }
  uint64_t CheckpointsCompleted() const { return checkpoints_done_.value(); }

  // Cumulative checkpoint observability counters (satellite of the streaming
  // data path): what the periodic driver logs and tests assert against.
  struct CheckpointStats {
    uint64_t checkpoints = 0;            // node checkpoints completed
    uint64_t full_serializations = 0;    // SE instances persisted as full bases
    uint64_t delta_serializations = 0;   // SE instances persisted as deltas
    uint64_t records_full = 0;           // records written by full bases
    uint64_t records_delta = 0;          // records written by delta epochs
    uint64_t tombstones = 0;             // erasures persisted in delta epochs
    uint64_t bytes_written = 0;          // chunk + buffer-blob bytes handed to
                                         // the backup store
    uint64_t overlay_consolidated = 0;   // dirty-overlay entries folded back by
                                         // EndCheckpoint
    uint64_t last_duration_us = 0;       // wall time of the latest checkpoint
    uint64_t total_duration_us = 0;
  };
  CheckpointStats CheckpointStatsSnapshot() const;

  // Cold-tier observability: GetSpillStats summed over every SE instance.
  // All-zero unless some backend runs with a spill budget (docs/state.md,
  // "Tiered storage"); the periodic driver logs it alongside checkpoints.
  state::SpillStats SpillStatsSnapshot() const;

  // Executor observability: per-worker tasks-run/steal counters and current
  // ready-set depth of the pool this deployment runs on (shared pool stats
  // include other deployments' work; private pools are exact).
  ExecutorStats ExecutorStatsSnapshot() const {
    return executor_->StatsSnapshot();
  }
  Executor* executor() { return executor_; }

  // Human-readable snapshot of the materialised topology: per node, the TE
  // instances (with queue depth and processed count) and SE instances (with
  // size) it hosts.
  std::string DescribeTopology() const;

  // --- RuntimeHooks ----------------------------------------------------------
  void RouteEmits(TaskInstance& src, std::vector<PendingEmit>& emits,
                  const DataItem& cause) override;
  void DeliverToSink(graph::TaskId task, const Tuple& tuple,
                     uint64_t user_tag) override;
  void OnItemsDone(size_t count) override;
  double NodeSpeed(uint32_t node) const override;
  uint32_t NumInstances(graph::TaskId task) const override;

 private:
  struct StateGroup {
    graph::StateId state = 0;
    // Instance j of the SE; nullptr while lost to a failure.
    std::vector<std::unique_ptr<state::StateBackend>> instances;
    std::vector<uint32_t> instance_nodes;
    std::vector<graph::TaskId> accessors;
  };

  // Source id used for externally injected items: task = kExternalTask,
  // instance = entry TE id.
  static constexpr uint32_t kExternalTask = 0xFFFFFFFFu;

  void DeliverTo(graph::TaskId task, uint32_t dest, DataItem item,
                 uint32_t src_node);
  uint32_t PickLeastLoadedNode(bool avoid_stragglers) const;

  // In-flight accounting: every delivered item is counted before its mailbox
  // push and released exactly once — after processing, or immediately when a
  // closed mailbox rejects it or its destination instance is lost. All paths
  // go through these two helpers.
  void AccountDelivered(size_t count);
  void AccountDone(size_t count);

  // Delivers every group the calling worker thread staged in RouteEmits:
  // destination instances are re-resolved under the topology lock (staged
  // groups hold no instance pointers), items crossing a node boundary are
  // serialised, and each group lands with one mailbox push. Groups whose
  // destination or source is gone are dropped and released from in-flight
  // accounting. Called from OnItemsDone, once per step-lock scope.
  void FlushStagedDeliveries();

  Status CheckpointNodeLocked(uint32_t node);
  void CheckpointDriverLoop();
  void ScalingMonitorLoop();

  // Creates an SE instance from its factory, enabling epoch-dirty tracking
  // when delta checkpoints are configured. Every factory call site (Start,
  // AddTaskInstance, RecoverNode) must go through this.
  std::unique_ptr<state::StateBackend> MakeStateBackend(
      const graph::StateElement& se) const;

  // Serialises one instance's output buffers into a chunk blob.
  std::vector<uint8_t> SerializeBuffers(TaskInstance& ti);
  Status RestoreBuffers(TaskInstance& ti, const std::vector<uint8_t>& blob);

  graph::Sdg sdg_;
  ClusterOptions options_;
  // The pool every TaskInstance slice, checkpoint fan-out and helper task of
  // this deployment runs on. Declared before (so destroyed after) instances
  // and state: entities must be able to retire their last slice before their
  // pool disappears. owned_executor_ is set only for private pools.
  std::unique_ptr<Executor> owned_executor_;
  Executor* executor_ = nullptr;
  std::vector<graph::DataflowEdge> edges_;                       // flattened
  std::vector<std::vector<const graph::DataflowEdge*>> out_edges_;  // by task

  mutable std::shared_mutex topo_mutex_;
  std::vector<std::vector<std::unique_ptr<TaskInstance>>> task_instances_;
  std::vector<StateGroup> state_groups_;
  // Graveyards keep killed objects alive (not reachable from routing) so that
  // raw pointers captured concurrently never dangle; cleared on recovery /
  // shutdown.
  std::vector<std::unique_ptr<TaskInstance>> dead_instances_;
  std::vector<std::unique_ptr<state::StateBackend>> dead_states_;
  std::vector<bool> node_alive_;
  std::vector<bool> node_straggler_;

  // Injection state: per-entry logical clock and upstream-backup buffer.
  std::shared_mutex ingest_gate_;
  std::map<graph::TaskId, std::unique_ptr<LogicalClock>> external_clocks_;
  std::map<graph::TaskId, std::unique_ptr<OutputBuffer>> external_buffers_;
  std::map<graph::TaskId, std::unique_ptr<std::mutex>> external_locks_;

  std::mutex sinks_mutex_;
  std::map<graph::TaskId, SinkFn> sinks_;

  std::atomic<uint64_t> barrier_seq_{1};
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> rr_counters_;  // per edge

  // In-flight accounting for Drain(): a padded atomic keeps the per-item
  // (per-batch) hot path lock-free; the mutex/condvar pair exists only to
  // park Drain() callers and is touched solely on the 1->0 transition.
  Gauge in_flight_;
  std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;

  // Fault tolerance.
  // Upstream-backup logging only pays off when checkpoints exist to trim it;
  // without fault tolerance the buffers would grow without bound.
  bool buffering_enabled_ = false;

  std::unique_ptr<FaultInjector> fault_injector_;
  std::unique_ptr<checkpoint::BackupStore> store_;
  std::vector<uint64_t> node_epoch_;
  std::vector<std::unique_ptr<std::mutex>> node_ckpt_mutex_;
  // Per node, the committed base+delta chain of each SE instance hosted there
  // (keyed by chunk name). Guarded by node_ckpt_mutex_[node]; an entry is only
  // updated after WriteMeta succeeds, so it always names a restorable chain.
  std::vector<std::map<std::string, std::vector<checkpoint::ChainLink>>>
      ckpt_chains_;
  Counter checkpoints_done_;
  Counter ckpt_full_se_;
  Counter ckpt_delta_se_;
  Counter ckpt_records_full_;
  Counter ckpt_records_delta_;
  Counter ckpt_tombstones_;
  Counter ckpt_bytes_;
  Counter ckpt_overlay_;
  Counter ckpt_total_us_;
  std::atomic<uint64_t> ckpt_last_us_{0};
  std::thread ckpt_driver_;
  std::thread scaling_monitor_;
  std::atomic<bool> services_running_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> shut_down_{false};
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options) : options_(std::move(options)) {}

  // Validates allocation feasibility, materialises the SDG and starts it.
  Result<std::unique_ptr<Deployment>> Deploy(graph::Sdg g);

  const ClusterOptions& options() const { return options_; }

 private:
  ClusterOptions options_;
};

}  // namespace sdg::runtime

#endif  // SDG_RUNTIME_CLUSTER_H_
