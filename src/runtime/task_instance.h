// TaskInstance: one materialised instance of a task element on a node.
//
// TEs are not scheduled per item; the whole SDG is materialised (§3.1). Every
// instance owns a mailbox and is a Schedulable entity on the deployment's
// shared executor (executor.h): a mailbox push marks it ready, a pool worker
// claims it and drains a batch of data items per slice, processing them one
// at a time against the instance's local SE and emitting results downstream —
// a fully pipelined execution whose thread count is O(pool size), not
// O(instances). Batching changes only how often a slice touches shared
// synchronisation (one mailbox lock, one step-lock scope, one delivery flush
// and one in-flight report per batch, not per item); items are still
// processed strictly in per-source FIFO order (the claim protocol guarantees
// a single runner per instance).
//
// The instance also carries the recovery protocol's per-instance state (§5):
// the emit clock issuing outgoing timestamps, the vector of last-seen
// timestamps per upstream source (checkpointed, and used to discard
// duplicates during replay), and the output buffers logging sent items for
// upstream backup.
#ifndef SDG_RUNTIME_TASK_INSTANCE_H_
#define SDG_RUNTIME_TASK_INSTANCE_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/queue.h"
#include "src/graph/sdg.h"
#include "src/runtime/data_item.h"
#include "src/runtime/delivery.h"
#include "src/runtime/executor.h"
#include "src/runtime/output_buffer.h"
#include "src/state/state_backend.h"

namespace sdg::runtime {

class TaskInstance;

// One tuple emitted by task code, tagged with the out-edge index it was
// emitted on. Emits are coalesced per input item and routed as one batch.
struct PendingEmit {
  size_t output = 0;
  Tuple tuple;
};

// Callbacks a TaskInstance needs from the deployment. Implemented by
// Deployment; kept abstract so TaskInstance has no dependency on it.
class RuntimeHooks {
 public:
  virtual ~RuntimeHooks() = default;

  // Routes every tuple `src` emitted while processing one input item, in
  // emit order. Each emit travels the `output`-th out-edge of src's TE (or
  // to the TE's sink when past the last out-edge). `cause` is the input item
  // being processed (propagates barrier id and user tag). The vector is
  // scratch owned by the worker loop: implementations may move tuples out of
  // it but must leave the vector itself reusable (the caller clears it after
  // the call, retaining capacity across items).
  virtual void RouteEmits(TaskInstance& src, std::vector<PendingEmit>& emits,
                          const DataItem& cause) = 0;

  // Delivers a tuple emitted past the last out-edge to the TE's sink.
  virtual void DeliverToSink(graph::TaskId task, const Tuple& tuple,
                             uint64_t user_tag) = 0;

  // Called once per step-lock scope, after its `count` items have been
  // processed and before the step lock is released: delivers what they
  // emitted, then settles in-flight accounting.
  virtual void OnItemsDone(size_t count) = 0;

  // Speed factor of `node` (1.0 = nominal; <1 simulates a straggler).
  virtual double NodeSpeed(uint32_t node) const = 0;

  // Current instance count of `task` (exposed to task code via the context).
  virtual uint32_t NumInstances(graph::TaskId task) const = 0;
};

class TaskInstance : public DeliveryTarget, public Schedulable {
 public:
  TaskInstance(const graph::TaskElement& te, uint32_t instance, uint32_t node,
               state::StateBackend* state, RuntimeHooks* hooks,
               Executor* executor, size_t mailbox_capacity, size_t max_batch);
  ~TaskInstance() override;

  TaskInstance(const TaskInstance&) = delete;
  TaskInstance& operator=(const TaskInstance&) = delete;

  void Start();
  // Stops processing after the mailbox drains (graceful shutdown).
  void StopWhenDrained();
  // Kills the instance immediately, dropping queued items (failure
  // injection). Returns the number of queued items dropped so the deployment
  // can settle its in-flight accounting for them. A slice in progress stops
  // at its next item boundary and drops the rest of its popped batch (it
  // settles their accounting itself), as a crashed node would.
  size_t Abort();
  // Waits for the last slice to retire. Requires StopWhenDrained or Abort
  // first (otherwise new pushes keep the instance busy indefinitely).
  void Join();

  // Enqueues an item; returns false if the mailbox is closed. Blocks while
  // the mailbox is full — but instead of parking, the calling thread helps
  // drain the destination (TryRunInline), which is what gives the fixed pool
  // the progress guarantees of thread-per-instance.
  bool Deliver(DataItem item) override;
  // Batch variant; returns the number accepted (< items.size() only if the
  // mailbox closed mid-push).
  size_t DeliverAll(std::vector<DataItem>&& items) override;

  const graph::TaskElement& te() const { return te_; }
  graph::TaskId task_id() const { return te_.id; }
  uint32_t instance_id() const { return instance_; }
  uint32_t node() const { return node_; }
  void set_node(uint32_t node) { node_ = node; }
  state::StateBackend* state() const { return state_; }
  void set_state(state::StateBackend* s) { state_ = s; }

  size_t QueueDepth() const { return mailbox_.size(); }
  // Queued plus popped-but-unprocessed items (the popped part is refreshed
  // at slice boundaries, so mid-slice it may overstate by what the slice has
  // done since). Zero means the instance had nothing to work on.
  size_t Backlog() const {
    return mailbox_.size() + popped_.load(std::memory_order_relaxed);
  }
  size_t QueueCapacity() const { return mailbox_.capacity(); }
  uint64_t ItemsProcessed() const { return processed_.value(); }

  LogicalClock& emit_clock() { return emit_clock_; }

  // --- Recovery protocol state ----------------------------------------------

  // The step lock is held by a slice across its drained batch, including
  // the flush of the batch's staged deliveries; the checkpointer takes it to
  // capture a consistent (SE, meta) cut. For §5's "minimal interruption" a
  // taker first raises a cut request: the slice then flushes and releases
  // the lock at the next item boundary instead of at the end of its batch.
  // A slice that cannot get it within ~1ms parks its batch and yields its
  // worker instead of wedging the pool while a synchronous checkpoint holds
  // step locks across a persist.
  std::mutex& step_mutex() { return step_mutex_; }
  // Counted, so overlapping takers each withdraw only their own request.
  void RequestCut() { cut_requests_.fetch_add(1, std::memory_order_relaxed); }
  void WithdrawCut() { cut_requests_.fetch_sub(1, std::memory_order_relaxed); }

  // Snapshot of the per-source last-seen timestamps. Caller must hold the
  // step lock for a consistent cut.
  std::map<SourceId, uint64_t> LastSeenSnapshot() const;
  void RestoreLastSeen(const std::map<SourceId, uint64_t>& seen);
  uint64_t LastSeenFrom(const SourceId& src) const;

  // Output buffer per downstream task (upstream backup log).
  OutputBuffer& BufferFor(graph::TaskId downstream);
  // Visits (downstream task id, buffer) pairs.
  void ForEachBuffer(
      const std::function<void(graph::TaskId, OutputBuffer&)>& fn);

 protected:
  // Schedulable: drains up to max_batch items under one step-lock scope.
  bool RunSlice() override;

 private:
  friend class InstanceTaskContext;

  void ProcessItem(const DataItem& item, std::vector<PendingEmit>& emit_scratch);

  const graph::TaskElement te_;  // copy: survives graph changes & rescaling
  const uint32_t instance_;
  uint32_t node_;
  state::StateBackend* state_;  // owned by the deployment; stable across repartitioning
  RuntimeHooks* const hooks_;
  Executor* const executor_;

  BoundedQueue<DataItem> mailbox_;
  const size_t max_batch_;
  std::atomic<bool> started_{false};

  // Slice-local work owned by the single runner (claim protocol): items
  // popped from the mailbox but not yet processed (carried across slices
  // when the step lock forces a yield), and the emit coalescing scratch.
  std::deque<DataItem> resume_;
  std::vector<PendingEmit> emit_scratch_;
  bool deferred_to_cut_ = false;  // this cut already got its head start
  std::atomic<size_t> popped_{0};  // resume_.size() mirror for Backlog()
  std::atomic<bool> aborted_{false};

  LogicalClock emit_clock_;
  std::mutex step_mutex_;
  std::atomic<uint32_t> cut_requests_{0};

  mutable std::mutex seen_mutex_;
  std::map<SourceId, uint64_t> last_seen_;

  std::mutex buffers_mutex_;
  std::map<graph::TaskId, std::unique_ptr<OutputBuffer>> buffers_;

  // Barrier gathering for collector TEs: barrier id -> partials received.
  struct PendingBarrier {
    uint32_t expected = 0;
    uint64_t user_tag = 0;
    std::vector<Tuple> partials;
  };
  std::map<uint64_t, PendingBarrier> pending_barriers_;

  Counter processed_;
};

}  // namespace sdg::runtime

#endif  // SDG_RUNTIME_TASK_INSTANCE_H_
