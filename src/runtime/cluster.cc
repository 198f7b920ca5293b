#include "src/runtime/cluster.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <span>
#include <sstream>
#include <thread>

#include "src/checkpoint/chunk_stream.h"
#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/state/chunk.h"
#include "src/state/codec.h"

namespace sdg::runtime {

namespace {

// Acquires the step lock of every instance in `instances` without
// hold-and-wait: try-lock all, back off on contention. Avoids deadlock
// against slices that hold their step lock while blocked on a full mailbox.
// A slice holds its step lock across a whole drained batch, so a cut request
// is raised first (and withdrawn once every lock is held): each slice then
// releases its lock at the next item boundary, §5's "minimal interruption".
class MultiLock {
 public:
  explicit MultiLock(std::vector<TaskInstance*> instances)
      : instances_(std::move(instances)) {
    for (auto* ti : instances_) {
      ti->RequestCut();
    }
    for (;;) {
      size_t acquired = 0;
      for (; acquired < instances_.size(); ++acquired) {
        if (!instances_[acquired]->step_mutex().try_lock()) {
          break;
        }
      }
      if (acquired == instances_.size()) {
        break;
      }
      for (size_t i = 0; i < acquired; ++i) {
        instances_[i]->step_mutex().unlock();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    for (auto* ti : instances_) {
      ti->WithdrawCut();
    }
  }

  ~MultiLock() { Release(); }

  void Release() {
    for (auto* ti : instances_) {
      ti->step_mutex().unlock();
    }
    instances_.clear();
  }

 private:
  std::vector<TaskInstance*> instances_;
};

std::string BufferChunkName(graph::TaskId task, uint32_t instance) {
  return "outbuf" + std::to_string(task) + "_" + std::to_string(instance);
}

// Threads for fanning serialisation across state shards and chunk restores
// across chunks. 0 = auto: hardware concurrency capped at 8 (past that the
// backup store's I/O pool is the bottleneck, not serialisation).
uint32_t CkptParallelism(const FaultToleranceOptions& ft) {
  if (ft.ckpt_parallelism > 0) {
    return ft.ckpt_parallelism;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return std::min<uint32_t>(hw == 0 ? 1 : hw, 8);
}

// Serialise/deserialise round trip for items crossing a node boundary. The
// writer is a thread-local scratch whose capacity is reused across items, and
// the reader decodes straight out of it — no per-item byte-buffer allocation.
DataItem SerializedRoundTrip(DataItem item) {
  thread_local BinaryWriter scratch;
  scratch.Clear();
  item.Serialize(scratch);
  auto back = DataItem::FromBytes(scratch.data(), scratch.size());
  SDG_CHECK(back.ok()) << "node-boundary round-trip failed";
  return std::move(*back);
}

// One delivery group a worker thread has routed but not yet pushed: items for
// one (downstream task, destination instance) pair, in emit order. Groups
// hold no instance pointer — destinations are re-resolved under the topology
// lock at flush time, so a group may safely outlive a kill/recover cycle of
// its destination. `ti` is transient flush-local scratch.
struct StagedGroup {
  graph::TaskId task = 0;
  uint32_t dest = 0;
  uint32_t src_node = 0;
  graph::TaskId src_task = 0;  // emitting TE, for edge-fault rule matching
  TaskInstance* ti = nullptr;
  std::vector<DataItem> items;
  size_t logged = 0;  // leading items already in the upstream-backup log
};

// Per-thread staging area. RouteEmits runs inside one instance's slice and
// stages into it; FlushStagedDeliveries (via OnItemsDone) empties it once
// per step-lock scope of that slice. A blocked delivery may help-run ANOTHER
// instance's slice inline on this same thread (executor.h), so the flush
// must swap the staged groups out of the thread_local before delivering:
// the nested slice then stages and flushes its own groups without touching
// the outer flush's. Thread-local reuse keeps the steady-state emit path free
// of per-item allocations.
thread_local std::vector<StagedGroup> tl_staged;

// Scratch for tuples emitted past the last out-edge (sink deliveries);
// swapped to a local before delivery for the same inline-help reason.
thread_local std::vector<Tuple> tl_sink_tuples;

}  // namespace

std::string_view FtModeName(FtMode mode) {
  switch (mode) {
    case FtMode::kNone:
      return "none";
    case FtMode::kAsyncLocal:
      return "async-local";
    case FtMode::kSyncLocal:
      return "sync-local";
    case FtMode::kSyncGlobal:
      return "sync-global";
  }
  return "?";
}

Deployment::Deployment(graph::Sdg g, ClusterOptions options)
    : sdg_(std::move(g)), options_(std::move(options)) {
  if (options_.executor_workers > 0) {
    owned_executor_ = std::make_unique<Executor>(
        Executor::Options{options_.executor_workers});
    executor_ = owned_executor_.get();
  } else {
    executor_ = Executor::Shared();
  }
  edges_ = sdg_.edges();
  out_edges_.resize(sdg_.tasks().size());
  for (const auto& e : edges_) {
    out_edges_[e.from].push_back(&e);
  }
  rr_counters_.reserve(edges_.size());
  for (size_t i = 0; i < edges_.size(); ++i) {
    rr_counters_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }
  node_alive_.assign(options_.num_nodes, true);
  node_straggler_.assign(options_.num_nodes, false);
  node_epoch_.assign(options_.num_nodes, 0);
  ckpt_chains_.resize(options_.num_nodes);
  for (uint32_t i = 0; i < options_.num_nodes; ++i) {
    node_ckpt_mutex_.push_back(std::make_unique<std::mutex>());
  }
  if (options_.fault_injection.enabled) {
    fault_injector_ = std::make_unique<FaultInjector>(options_.fault_injection);
  }
  if (options_.fault_tolerance.mode != FtMode::kNone) {
    auto store_opts = options_.fault_tolerance.store;
    if (fault_injector_ != nullptr) {
      FaultInjector* inj = fault_injector_.get();
      store_opts.fault_hook = [inj](const char* op, uint32_t index,
                                    bool before) {
        return inj->OnStoreOp(op, index, before);
      };
    }
    store_ = std::make_unique<checkpoint::BackupStore>(std::move(store_opts));
    buffering_enabled_ = true;
  }
}

Deployment::~Deployment() { Shutdown(); }

std::unique_ptr<state::StateBackend> Deployment::MakeStateBackend(
    const graph::StateElement& se) const {
  auto backend = se.factory();
  if (options_.fault_tolerance.delta_epoch_interval > 0) {
    backend->EnableDeltaTracking();
  }
  return backend;
}

Status Deployment::Start() {
  if (started_.exchange(true)) {
    return FailedPreconditionError("deployment already started");
  }
  SDG_ASSIGN_OR_RETURN(graph::Allocation alloc,
                       graph::AllocateSdg(sdg_, options_.num_nodes));
  if (fault_injector_ != nullptr) {
    SDG_RETURN_IF_ERROR(fault_injector_->Resolve(sdg_));
  }

  task_instances_.resize(sdg_.tasks().size());
  state_groups_.resize(sdg_.states().size());

  // Build state groups: instance count of a group is the maximum requested
  // instance count over its accessor TEs; all accessors are yoked to it.
  for (const auto& se : sdg_.states()) {
    StateGroup& group = state_groups_[se.id];
    group.state = se.id;
    uint32_t count = 1;
    for (const auto& te : sdg_.tasks()) {
      if (te.state == se.id) {
        group.accessors.push_back(te.id);
        count = std::max(count, te.initial_instances);
      }
    }
    for (uint32_t j = 0; j < count; ++j) {
      group.instances.push_back(MakeStateBackend(se));
      // Instance 0 at the allocated home node; extras spread round-robin.
      uint32_t node = (alloc.state_nodes[se.id] + j) % options_.num_nodes;
      group.instance_nodes.push_back(node);
    }
  }

  // Materialise task instances. Stateful TEs: one instance per SE instance,
  // colocated (§3.3 step 3). Stateless TEs: their own requested count.
  for (const auto& te : sdg_.tasks()) {
    auto& slots = task_instances_[te.id];
    if (te.state.has_value()) {
      StateGroup& group = state_groups_[*te.state];
      for (uint32_t j = 0; j < group.instances.size(); ++j) {
        slots.push_back(std::make_unique<TaskInstance>(
            te, j, group.instance_nodes[j], group.instances[j].get(), this,
            executor_, options_.mailbox_capacity, options_.max_batch));
      }
    } else {
      for (uint32_t j = 0; j < te.initial_instances; ++j) {
        uint32_t node = (alloc.task_nodes[te.id] + j) % options_.num_nodes;
        slots.push_back(std::make_unique<TaskInstance>(
            te, j, node, nullptr, this, executor_, options_.mailbox_capacity,
            options_.max_batch));
      }
    }
    if (te.is_entry) {
      external_clocks_[te.id] = std::make_unique<LogicalClock>();
      external_buffers_[te.id] = std::make_unique<OutputBuffer>();
      external_locks_[te.id] = std::make_unique<std::mutex>();
    }
  }

  for (auto& slots : task_instances_) {
    for (auto& ti : slots) {
      ti->Start();
    }
  }

  services_running_ = true;
  const auto& ft = options_.fault_tolerance;
  if (ft.mode != FtMode::kNone && ft.checkpoint_interval_s > 0) {
    ckpt_driver_ = std::thread([this] { CheckpointDriverLoop(); });
  }
  if (options_.scaling.enabled) {
    scaling_monitor_ = std::thread([this] { ScalingMonitorLoop(); });
  }
  return Status::Ok();
}

Status Deployment::Inject(std::string_view entry, Tuple tuple,
                          uint64_t user_tag) {
  if (!started_.load() || shut_down_.load()) {
    return FailedPreconditionError("deployment is not running");
  }
  std::shared_lock ingest(ingest_gate_);
  SDG_ASSIGN_OR_RETURN(graph::TaskId task, sdg_.TaskByName(entry));
  const auto& te = sdg_.task(task);
  if (!te.is_entry) {
    return InvalidArgumentError("task '" + std::string(entry) +
                                "' is not an entry point");
  }

  // The per-entry lock makes (timestamp, buffer append, dispatch) atomic so
  // per-source FIFO timestamps stay monotone at every destination.
  std::lock_guard<std::mutex> entry_lock(*external_locks_.at(task));

  DataItem item;
  item.from = SourceId{kExternalTask, task};
  item.ts = external_clocks_.at(task)->Next();
  item.user_tag = user_tag;
  item.payload = std::move(tuple);

  std::shared_lock topo(topo_mutex_);
  const auto& slots = task_instances_[task];
  uint32_t n = static_cast<uint32_t>(slots.size());
  if (n == 0) {
    return UnavailableError("entry task has no instances");
  }

  std::vector<std::pair<uint32_t, DataItem>> deliveries;
  if (te.access == graph::AccessMode::kPartitioned) {
    int key_field = te.entry_key_field;
    if (key_field < 0 || static_cast<size_t>(key_field) >= item.payload.size()) {
      return InvalidArgumentError("entry tuple lacks the partition key field");
    }
    uint32_t dest = static_cast<uint32_t>(item.payload[key_field].Hash() % n);
    if (buffering_enabled_) {
      external_buffers_.at(task)->Append(item, dest);
    }
    deliveries.emplace_back(dest, std::move(item));
  } else if (te.access == graph::AccessMode::kGlobal) {
    item.barrier_id = barrier_seq_.fetch_add(1);
    item.expected_partials = n;
    for (uint32_t j = 0; j < n; ++j) {
      if (buffering_enabled_) {
        external_buffers_.at(task)->Append(item, j);
      }
      if (j + 1 < n) {
        deliveries.emplace_back(j, item);
      } else {
        deliveries.emplace_back(j, std::move(item));
      }
    }
  } else {
    // Local / stateless entries load-balance (one-to-any).
    uint32_t dest = static_cast<uint32_t>(item.ts % n);
    if (buffering_enabled_) {
      external_buffers_.at(task)->Append(item, dest);
    }
    deliveries.emplace_back(dest, std::move(item));
  }

  std::vector<std::pair<TaskInstance*, DataItem>> pushes;
  pushes.reserve(deliveries.size());
  for (auto& [dest, it] : deliveries) {
    if (slots[dest]) {
      pushes.emplace_back(slots[dest].get(), std::move(it));
    }
  }
  topo.unlock();

  for (auto& [ti, it] : pushes) {
    if (fault_injector_ != nullptr) {
      // Faults apply after the buffer append above: a dropped item is a lost
      // network delivery that replay can still restore from the buffer.
      std::vector<DataItem> group;
      group.push_back(std::move(it));
      fault_injector_->ApplyToGroup(kExternalTask, task, group);
      if (options_.serialize_cross_node) {
        for (auto& item : group) {
          item = SerializedRoundTrip(std::move(item));
        }
      }
      const size_t count = group.size();
      if (count == 0) {
        continue;
      }
      AccountDelivered(count);
      size_t accepted = ti->DeliverAll(std::move(group));
      if (accepted < count) {
        AccountDone(count - accepted);
      }
      continue;
    }
    // Injection crosses the client/cluster boundary: always serialise.
    if (options_.serialize_cross_node) {
      it = SerializedRoundTrip(std::move(it));
    }
    AccountDelivered(1);
    if (!ti->Deliver(std::move(it))) {
      AccountDone(1);
    }
  }
  return Status::Ok();
}

Status Deployment::InjectAll(std::string_view entry, std::vector<Tuple> tuples,
                             uint64_t user_tag) {
  if (tuples.empty()) {
    return Status::Ok();
  }
  if (!started_.load() || shut_down_.load()) {
    return FailedPreconditionError("deployment is not running");
  }
  std::shared_lock ingest(ingest_gate_);
  SDG_ASSIGN_OR_RETURN(graph::TaskId task, sdg_.TaskByName(entry));
  const auto& te = sdg_.task(task);
  if (!te.is_entry) {
    return InvalidArgumentError("task '" + std::string(entry) +
                                "' is not an entry point");
  }
  if (te.access == graph::AccessMode::kPartitioned) {
    // Validate before ticking the clock so a malformed tuple cannot leave a
    // partial batch behind.
    int key_field = te.entry_key_field;
    for (const auto& tuple : tuples) {
      if (key_field < 0 || static_cast<size_t>(key_field) >= tuple.size()) {
        return InvalidArgumentError("entry tuple lacks the partition key field");
      }
    }
  }

  // The per-entry lock makes (timestamps, buffer appends, dispatch) atomic
  // for the whole batch, so per-source FIFO timestamps stay monotone at
  // every destination.
  std::lock_guard<std::mutex> entry_lock(*external_locks_.at(task));
  LogicalClock& clock = *external_clocks_.at(task);
  OutputBuffer* ext_buffer =
      buffering_enabled_ ? external_buffers_.at(task).get() : nullptr;

  // Delivery groups, one per destination instance, built under a single
  // topology-lock scope and pushed with one mailbox batch each.
  struct Group {
    uint32_t dest = 0;
    TaskInstance* ti = nullptr;
    std::vector<DataItem> items;
  };
  std::vector<Group> groups;
  auto stage = [&](uint32_t dest, TaskInstance* ti, DataItem item) {
    for (auto& g : groups) {
      if (g.dest == dest) {
        g.items.push_back(std::move(item));
        return;
      }
    }
    groups.push_back(Group{dest, ti, {}});
    groups.back().items.push_back(std::move(item));
  };

  {
    std::shared_lock topo(topo_mutex_);
    const auto& slots = task_instances_[task];
    uint32_t n = static_cast<uint32_t>(slots.size());
    if (n == 0) {
      return UnavailableError("entry task has no instances");
    }
    for (auto& tuple : tuples) {
      DataItem item;
      item.from = SourceId{kExternalTask, task};
      item.ts = clock.Next();
      item.user_tag = user_tag;
      item.payload = std::move(tuple);

      if (te.access == graph::AccessMode::kPartitioned) {
        uint32_t dest = static_cast<uint32_t>(
            item.payload[te.entry_key_field].Hash() % n);
        if (ext_buffer != nullptr) {
          ext_buffer->Append(item, dest);
        }
        stage(dest, slots[dest] ? slots[dest].get() : nullptr, std::move(item));
      } else if (te.access == graph::AccessMode::kGlobal) {
        item.barrier_id = barrier_seq_.fetch_add(1);
        item.expected_partials = n;
        for (uint32_t j = 0; j < n; ++j) {
          if (ext_buffer != nullptr) {
            ext_buffer->Append(item, j);
          }
          TaskInstance* ti = slots[j] ? slots[j].get() : nullptr;
          if (j + 1 < n) {
            stage(j, ti, item);
          } else {
            stage(j, ti, std::move(item));
          }
        }
      } else {
        // Local / stateless entries load-balance (one-to-any).
        uint32_t dest = static_cast<uint32_t>(item.ts % n);
        if (ext_buffer != nullptr) {
          ext_buffer->Append(item, dest);
        }
        stage(dest, slots[dest] ? slots[dest].get() : nullptr, std::move(item));
      }
    }
  }

  for (auto& g : groups) {
    if (g.ti == nullptr) {
      continue;  // lost instance: the buffer retains the items for replay
    }
    if (fault_injector_ != nullptr) {
      // After the buffer appends, before accounting: the group size below
      // already reflects drops and duplicates.
      fault_injector_->ApplyToGroup(kExternalTask, task, g.items);
      if (g.items.empty()) {
        continue;
      }
    }
    // Injection crosses the client/cluster boundary: always serialise.
    if (options_.serialize_cross_node) {
      for (auto& item : g.items) {
        item = SerializedRoundTrip(std::move(item));
      }
    }
    const size_t count = g.items.size();
    AccountDelivered(count);
    size_t accepted = g.ti->DeliverAll(std::move(g.items));
    if (accepted < count) {
      AccountDone(count - accepted);  // closed mailbox rejected the tail
    }
  }
  return Status::Ok();
}

Status Deployment::InjectRemote(std::string_view entry,
                                std::vector<DataItem> items) {
  if (items.empty()) {
    return Status::Ok();
  }
  if (!started_.load() || shut_down_.load()) {
    return FailedPreconditionError("deployment is not running");
  }
  std::shared_lock ingest(ingest_gate_);
  SDG_ASSIGN_OR_RETURN(graph::TaskId task, sdg_.TaskByName(entry));
  const auto& te = sdg_.task(task);
  if (!te.is_entry) {
    return InvalidArgumentError("task '" + std::string(entry) +
                                "' is not an entry point");
  }
  if (te.access == graph::AccessMode::kGlobal) {
    return UnimplementedError(
        "global entry TEs are not supported for remote injection");
  }
  if (te.access == graph::AccessMode::kPartitioned) {
    int key_field = te.entry_key_field;
    for (const auto& item : items) {
      if (key_field < 0 ||
          static_cast<size_t>(key_field) >= item.payload.size()) {
        return InvalidArgumentError("entry item lacks the partition key field");
      }
    }
  }

  // No entry lock, clock tick or local buffer append: the items carry the
  // sender's timestamps, and the sender's OutputBuffer is their log. Two
  // connections delivering concurrently are two independent sources — each
  // is FIFO per its own source id, which is all the dedup filter needs.
  struct Group {
    uint32_t dest = 0;
    TaskInstance* ti = nullptr;
    std::vector<DataItem> items;
  };
  std::vector<Group> groups;
  auto stage = [&](uint32_t dest, TaskInstance* ti, DataItem item) {
    for (auto& g : groups) {
      if (g.dest == dest) {
        g.items.push_back(std::move(item));
        return;
      }
    }
    groups.push_back(Group{dest, ti, {}});
    groups.back().items.push_back(std::move(item));
  };

  {
    std::shared_lock topo(topo_mutex_);
    const auto& slots = task_instances_[task];
    uint32_t n = static_cast<uint32_t>(slots.size());
    if (n == 0) {
      return UnavailableError("entry task has no instances");
    }
    for (auto& item : items) {
      uint32_t dest;
      if (te.access == graph::AccessMode::kPartitioned) {
        dest = static_cast<uint32_t>(
            item.payload[te.entry_key_field].Hash() % n);
      } else {
        // One-to-any: ts modulo n, NOT load-based — a replayed item must
        // reach the instance that saw (or would have seen) the original.
        dest = static_cast<uint32_t>(item.ts % n);
      }
      stage(dest, slots[dest] ? slots[dest].get() : nullptr, std::move(item));
    }
  }

  for (auto& g : groups) {
    if (g.ti == nullptr) {
      // Lost instance: drop here; the REMOTE sender's buffer still holds the
      // items (they are unacked until the next durable watermark), so a
      // later replay re-delivers them once the instance is restored.
      continue;
    }
    const size_t count = g.items.size();
    AccountDelivered(count);
    size_t accepted = g.ti->DeliverAll(std::move(g.items));
    if (accepted < count) {
      AccountDone(count - accepted);
    }
  }
  return Status::Ok();
}

Status Deployment::OnOutput(std::string_view task, SinkFn fn) {
  SDG_ASSIGN_OR_RETURN(graph::TaskId id, sdg_.TaskByName(task));
  std::lock_guard<std::mutex> lock(sinks_mutex_);
  sinks_[id] = std::move(fn);
  return Status::Ok();
}

void Deployment::Drain() {
  // AccountDone serialises on inflight_mutex_ before notifying, so checking
  // the atomic under the lock cannot miss the 1->0 wakeup.
  {
    std::unique_lock<std::mutex> lock(inflight_mutex_);
    if (inflight_cv_.wait_for(lock, std::chrono::milliseconds(2),
                              [&] { return in_flight_.value() <= 0; })) {
      return;
    }
  }
  // Slow path: help. On a shared pool every worker may be occupied — or
  // blocked on a lock the Drain caller holds (e.g. an ingest gate taken
  // around checkpointing): waiting passively would deadlock. The draining
  // thread claims and runs this deployment's OWN instances inline instead.
  // Only own instances: a foreign entity's slice could be the one that needs
  // the caller's lock. Slices never take ingest_gate_ (only the Inject*
  // entry points do), so a caller holding it uniquely (ScaleUp) is safe.
  std::vector<TaskInstance*> instances;
  for (;;) {
    instances.clear();
    {
      std::shared_lock topo(topo_mutex_);
      for (auto& slots : task_instances_) {
        for (auto& ti : slots) {
          if (ti) {
            instances.push_back(ti.get());
          }
        }
      }
    }
    // Raw pointers stay valid off the lock: instances are only destroyed in
    // ~Deployment, never while a Drain can be in progress.
    bool progress = false;
    for (auto* ti : instances) {
      progress |= ti->TryRunInline();
    }
    std::unique_lock<std::mutex> lock(inflight_mutex_);
    if (in_flight_.value() <= 0) {
      return;
    }
    if (!progress) {
      if (inflight_cv_.wait_for(lock, std::chrono::milliseconds(1),
                                [&] { return in_flight_.value() <= 0; })) {
        return;
      }
    }
  }
}

void Deployment::AccountDelivered(size_t count) {
  in_flight_.Add(static_cast<int64_t>(count));
}

void Deployment::AccountDone(size_t count) {
  if (in_flight_.Add(-static_cast<int64_t>(count)) <= 0) {
    // Taking (and immediately dropping) the lock orders this notification
    // after any Drain() caller's predicate check, closing the lost-wakeup
    // window. Only the transition to zero pays it.
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_cv_.notify_all();
  }
}

void Deployment::Shutdown() {
  if (shut_down_.exchange(true)) {
    return;
  }
  services_running_ = false;
  if (ckpt_driver_.joinable()) {
    ckpt_driver_.join();
  }
  if (scaling_monitor_.joinable()) {
    scaling_monitor_.join();
  }
  // Abort everything; callers wanting a clean flush call Drain() first. The
  // joins happen OFF the topology lock: a retiring slice may still be inside
  // RouteEmits waiting for a shared topo lock, and AwaitIdle-ing it while
  // holding any topo lock could deadlock through a queued writer. The raw
  // pointers stay valid — nothing destroys instances until ~Deployment.
  std::vector<TaskInstance*> to_join;
  {
    std::unique_lock topo(topo_mutex_);
    for (auto& slots : task_instances_) {
      for (auto& ti : slots) {
        if (ti) {
          ti->Abort();
          to_join.push_back(ti.get());
        }
      }
    }
    for (auto& ti : dead_instances_) {
      ti->Abort();
      to_join.push_back(ti.get());
    }
  }
  for (auto* ti : to_join) {
    ti->Join();
  }
}

// --- Routing -----------------------------------------------------------------

void Deployment::RouteEmits(TaskInstance& src, std::vector<PendingEmit>& emits,
                            const DataItem& cause) {
  const auto& outs = out_edges_[src.task_id()];
  const uint32_t src_node = src.node();

  // Items are staged into the calling worker's per-(downstream task,
  // destination instance) delivery groups. A TE fans out to a handful of
  // destinations at most, so a flat vector with a linear scan beats a map.
  // Items stay in emit order within a group, which preserves per-(source,
  // destination) FIFO delivery: a group's items are pushed as one contiguous
  // batch, and only this worker thread emits for this source.
  std::vector<StagedGroup>& groups = tl_staged;
  std::vector<Tuple>& sinks = tl_sink_tuples;
  size_t staged_count = 0;

  auto stage = [&](graph::TaskId task, uint32_t dest, DataItem item) {
    ++staged_count;
    for (auto& g : groups) {
      if (g.task == task && g.dest == dest) {
        g.items.push_back(std::move(item));
        return;
      }
    }
    groups.push_back(StagedGroup{task, dest, src_node, src.task_id(), nullptr, {}});
    groups.back().items.push_back(std::move(item));
  };

  // Mailbox depth a destination would have once this worker's staged items
  // land; keeps join-shortest-queue decisions honest while deliveries are
  // deferred to the end of the drained batch.
  auto staged_depth = [&](graph::TaskId task, uint32_t dest) -> size_t {
    for (const auto& g : groups) {
      if (g.task == task && g.dest == dest) {
        return g.items.size();
      }
    }
    return 0;
  };

  // One shared topology-lock scope covers routing decisions for every emit
  // of this input item; mailbox pushes happen after release.
  {
    std::shared_lock topo(topo_mutex_);
    for (auto& emit : emits) {
      if (emit.output >= outs.size()) {
        sinks.push_back(std::move(emit.tuple));
        continue;
      }
      const graph::DataflowEdge& edge = *outs[emit.output];
      const auto& slots = task_instances_[edge.to];
      uint32_t n = static_cast<uint32_t>(slots.size());
      if (n == 0) {
        continue;
      }
      DataItem item;
      item.from = SourceId{src.task_id(), src.instance_id()};
      item.ts = src.emit_clock().Next();
      item.barrier_id = cause.barrier_id;
      item.expected_partials = cause.expected_partials;
      item.user_tag = cause.user_tag;
      item.replayed = cause.replayed;  // derived items of replayed inputs dedupe too
      item.payload = std::move(emit.tuple);

      switch (edge.dispatch) {
        case graph::Dispatch::kPartitioned: {
          uint32_t dest = static_cast<uint32_t>(
              item.payload[edge.key_field].Hash() % n);
          stage(edge.to, dest, std::move(item));
          break;
        }
        case graph::Dispatch::kOneToAny: {
          size_t edge_index = static_cast<size_t>(&edge - edges_.data());
          uint32_t start = static_cast<uint32_t>(
              rr_counters_[edge_index]->fetch_add(1) % n);
          uint32_t dest = start;
          if (options_.one_to_any == OneToAnyPolicy::kRoundRobin) {
            // Strict fair share; skip dead instances only.
            for (uint32_t tries = 0; tries < n && !slots[dest]; ++tries) {
              dest = (dest + 1) % n;
            }
          } else {
            // Join-shortest-queue with round-robin tie-breaking: a straggling
            // instance naturally receives less work instead of its fair share
            // (reactive load balancing, §3.3). Depth probes read the queues'
            // relaxed size mirror — no lock taken per probe — plus this
            // worker's own staged-but-unpushed items.
            size_t min_depth = SIZE_MAX;
            for (uint32_t j = 0; j < n; ++j) {
              if (slots[j]) {
                min_depth = std::min(
                    min_depth, slots[j]->QueueDepth() + staged_depth(edge.to, j));
              }
            }
            if (min_depth == SIZE_MAX) {
              break;  // no alive instance
            }
            for (uint32_t tries = 0; tries < n; ++tries) {
              uint32_t candidate = (start + tries) % n;
              if (slots[candidate] &&
                  slots[candidate]->QueueDepth() +
                          staged_depth(edge.to, candidate) <=
                      min_depth) {
                dest = candidate;
                break;
              }
            }
          }
          stage(edge.to, dest, std::move(item));
          break;
        }
        case graph::Dispatch::kOneToAll: {
          // A broadcast over partial instances opens a barrier (§4.2 rule 3).
          item.barrier_id = barrier_seq_.fetch_add(1);
          uint32_t alive = 0;
          for (uint32_t j = 0; j < n; ++j) {
            if (slots[j]) {
              ++alive;
            }
          }
          item.expected_partials = alive;
          uint32_t fanned = 0;
          for (uint32_t j = 0; j < n; ++j) {
            if (slots[j]) {
              ++fanned;
              if (fanned < alive) {
                stage(edge.to, j, item);
              } else {
                stage(edge.to, j, std::move(item));
              }
            }
          }
          break;
        }
        case graph::Dispatch::kAllToOne: {
          // Gather at the collector's first alive instance.
          uint32_t dest = 0;
          for (uint32_t j = 0; j < n; ++j) {
            if (slots[j]) {
              dest = j;
              break;
            }
          }
          stage(edge.to, dest, std::move(item));
          break;
        }
      }
    }
  }

  // Take this item's sink tuples out of the thread_local before anything can
  // deliver: a blocked delivery below may help-run a nested slice on this
  // thread, and its RouteEmits must find tl_sink_tuples empty rather than
  // adopt (and mis-tag) ours.
  std::vector<Tuple> local_sinks;
  local_sinks.swap(sinks);

  // Staged items count as in flight from here: the causing input item is
  // only released (OnItemsDone) after they are flushed, so Drain() cannot
  // observe a moment where they are invisible.
  AccountDelivered(staged_count);

  if (buffering_enabled_) {
    // Upstream-backup log as the items are staged: an item must be in its
    // source's buffer before any downstream effect of it can be
    // checkpointed. Delivery waits for OnItemsDone, which the slice calls
    // before releasing its step lock, so no checkpoint can cover this input
    // while its outputs sit undelivered in this thread (a downstream replay
    // plus the late original push would double-deliver: originals carry
    // replayed=false and bypass dedup).
    for (auto& g : groups) {
      if (g.logged < g.items.size()) {
        src.BufferFor(g.task).AppendAll(
            std::span<const DataItem>(g.items).subspan(g.logged), g.dest);
        g.logged = g.items.size();
      }
    }
  }
  for (auto& tuple : local_sinks) {
    DeliverToSink(src.task_id(), tuple, cause.user_tag);
  }
  local_sinks.clear();
  if (sinks.empty()) {
    sinks.swap(local_sinks);  // hand the warmed capacity back
  }
}

void Deployment::FlushStagedDeliveries() {
  if (tl_staged.empty()) {
    return;
  }
  // Move the staged groups out of the thread_local before delivering: a push
  // below may block on a full mailbox and help-run another instance's slice
  // inline on this thread, whose RouteEmits/OnItemsDone stage and flush
  // through the same thread_local.
  std::vector<StagedGroup> groups;
  groups.swap(tl_staged);
  // Resolve every destination under one shared topology-lock scope; pushes
  // happen after release (a blocking push under the topology lock could
  // stall writers, and readers behind them, on a full mailbox). The resolved
  // pointers stay valid past the unlock: killed instances move to the
  // graveyard and are only reclaimed by later recovery/shutdown.
  {
    std::shared_lock topo(topo_mutex_);
    for (auto& g : groups) {
      const auto& slots = task_instances_[g.task];
      g.ti = (g.dest < slots.size() && slots[g.dest]) ? slots[g.dest].get()
                                                      : nullptr;
      if (!node_alive_[g.src_node]) {
        // The source was killed mid-batch: its unsent outputs die with it,
        // as on a real crash. Recovery re-derives them from the upstream
        // replay (delivering them late could overtake that replay).
        g.ti = nullptr;
      }
    }
  }
  for (auto& g : groups) {
    if (g.ti == nullptr) {
      // Destination (or source) lost between staging and flush. When
      // buffering, an upstream log still retains the items or their inputs
      // for replay; either way they leave the in-flight count.
      AccountDone(g.items.size());
      continue;
    }
    if (fault_injector_ != nullptr) {
      // The upstream-backup log (RouteEmits) already holds the originals, so
      // a drop here models a lost network delivery that replay can restore.
      // Staged items were accounted in RouteEmits: settle the difference.
      auto eff = fault_injector_->ApplyToGroup(g.src_task, g.task, g.items);
      if (eff.dropped > 0) {
        AccountDone(eff.dropped);
      }
      if (eff.duplicated > 0) {
        AccountDelivered(eff.duplicated);
      }
      if (g.items.empty()) {
        continue;
      }
    }
    // Items crossing a node boundary are serialised to keep the location-
    // independence contract honest (§4.1).
    if (options_.serialize_cross_node && g.ti->node() != g.src_node) {
      for (auto& item : g.items) {
        item = SerializedRoundTrip(std::move(item));
      }
    }
    const size_t count = g.items.size();
    size_t accepted = g.ti->DeliverAll(std::move(g.items));
    if (accepted < count) {
      AccountDone(count - accepted);  // closed mailbox rejected the tail
    }
  }
  groups.clear();
  if (tl_staged.empty()) {
    tl_staged.swap(groups);  // hand the warmed capacity back
  }
}

void Deployment::DeliverTo(graph::TaskId task, uint32_t dest, DataItem item,
                           uint32_t src_node) {
  TaskInstance* ti = nullptr;
  {
    std::shared_lock topo(topo_mutex_);
    const auto& slots = task_instances_[task];
    if (dest >= slots.size() || !slots[dest]) {
      return;  // lost instance: upstream buffer retains the item for replay
    }
    ti = slots[dest].get();
  }
  // Items crossing a node boundary are serialised to keep the location-
  // independence contract honest (§4.1).
  if (options_.serialize_cross_node && ti->node() != src_node) {
    item = SerializedRoundTrip(std::move(item));
  }
  AccountDelivered(1);
  if (!ti->Deliver(std::move(item))) {
    // A closed mailbox rejected the item: release it through the same
    // accounting helper the success path uses.
    AccountDone(1);
  }
}

void Deployment::DeliverToSink(graph::TaskId task, const Tuple& tuple,
                               uint64_t user_tag) {
  SinkFn fn;
  {
    std::lock_guard<std::mutex> lock(sinks_mutex_);
    auto it = sinks_.find(task);
    if (it == sinks_.end()) {
      return;
    }
    fn = it->second;
  }
  fn(tuple, user_tag);
}

void Deployment::OnItemsDone(size_t count) {
  // Push everything this worker staged in the step-lock scope (the slice
  // still holds the lock) before releasing the items' own in-flight count —
  // staged items were accounted at staging time, so in_flight_ never dips to
  // zero while they are pending.
  FlushStagedDeliveries();
  AccountDone(count);
}

double Deployment::NodeSpeed(uint32_t node) const {
  if (node < options_.node_speed.size()) {
    return options_.node_speed[node];
  }
  return 1.0;
}

uint32_t Deployment::NumInstances(graph::TaskId task) const {
  std::shared_lock topo(topo_mutex_);
  uint32_t alive = 0;
  for (const auto& ti : task_instances_[task]) {
    if (ti) {
      ++alive;
    }
  }
  return alive;
}

// --- Introspection -------------------------------------------------------------

uint64_t Deployment::TotalProcessed() const {
  std::shared_lock topo(topo_mutex_);
  uint64_t total = 0;
  for (const auto& slots : task_instances_) {
    for (const auto& ti : slots) {
      if (ti) {
        total += ti->ItemsProcessed();
      }
    }
  }
  return total;
}

size_t Deployment::TotalQueueDepth() const {
  std::shared_lock topo(topo_mutex_);
  size_t total = 0;
  for (const auto& slots : task_instances_) {
    for (const auto& ti : slots) {
      if (ti) {
        total += ti->QueueDepth();
      }
    }
  }
  return total;
}

size_t Deployment::QueueDepthOf(std::string_view task_name) const {
  auto id = sdg_.TaskByName(task_name);
  if (!id.ok()) {
    return 0;
  }
  std::shared_lock topo(topo_mutex_);
  size_t total = 0;
  for (const auto& ti : task_instances_[*id]) {
    if (ti) {
      total += ti->QueueDepth();
    }
  }
  return total;
}

uint64_t Deployment::ProcessedOf(std::string_view task_name) const {
  auto id = sdg_.TaskByName(task_name);
  if (!id.ok()) {
    return 0;
  }
  std::shared_lock topo(topo_mutex_);
  uint64_t total = 0;
  for (const auto& ti : task_instances_[*id]) {
    if (ti) {
      total += ti->ItemsProcessed();
    }
  }
  return total;
}

size_t Deployment::StateSizeBytes(std::string_view state_name) const {
  auto id = sdg_.StateByName(state_name);
  if (!id.ok()) {
    return 0;
  }
  std::shared_lock topo(topo_mutex_);
  size_t total = 0;
  for (const auto& inst : state_groups_[*id].instances) {
    if (inst) {
      total += inst->SizeBytes();
    }
  }
  return total;
}

state::StateBackend* Deployment::StateInstance(std::string_view state_name,
                                               uint32_t instance) {
  auto id = sdg_.StateByName(state_name);
  if (!id.ok()) {
    return nullptr;
  }
  std::shared_lock topo(topo_mutex_);
  auto& group = state_groups_[*id];
  if (instance >= group.instances.size()) {
    return nullptr;
  }
  return group.instances[instance].get();
}

uint32_t Deployment::NumStateInstances(std::string_view state_name) const {
  auto id = sdg_.StateByName(state_name);
  if (!id.ok()) {
    return 0;
  }
  std::shared_lock topo(topo_mutex_);
  return static_cast<uint32_t>(state_groups_[*id].instances.size());
}

uint32_t Deployment::NodeOfStateInstance(std::string_view state_name,
                                         uint32_t instance) const {
  auto id = sdg_.StateByName(state_name);
  if (!id.ok()) {
    return UINT32_MAX;
  }
  std::shared_lock topo(topo_mutex_);
  const auto& group = state_groups_[*id];
  if (instance >= group.instance_nodes.size() || !group.instances[instance]) {
    return UINT32_MAX;
  }
  return group.instance_nodes[instance];
}

uint32_t Deployment::NumInstancesOf(std::string_view task_name) const {
  auto id = sdg_.TaskByName(task_name);
  if (!id.ok()) {
    return 0;
  }
  return NumInstances(*id);
}

bool Deployment::NodeAlive(uint32_t node) const {
  std::shared_lock topo(topo_mutex_);
  return node < node_alive_.size() && node_alive_[node];
}

std::string Deployment::DescribeTopology() const {
  std::shared_lock topo(topo_mutex_);
  std::ostringstream os;
  for (uint32_t node = 0; node < options_.num_nodes; ++node) {
    os << "node " << node << (node_alive_[node] ? "" : " [DEAD]")
       << (node_straggler_[node] ? " [straggler]" : "");
    double speed = node < options_.node_speed.size()
                       ? options_.node_speed[node]
                       : 1.0;
    if (speed != 1.0) {
      os << " (speed " << speed << "x)";
    }
    os << "\n";
    for (const auto& group : state_groups_) {
      for (uint32_t j = 0; j < group.instances.size(); ++j) {
        if (group.instances[j] && group.instance_nodes[j] == node) {
          os << "  SE " << sdg_.state(group.state).name << "[" << j << "] "
             << group.instances[j]->EntryCount() << " entries, "
             << group.instances[j]->SizeBytes() << " bytes\n";
        }
      }
    }
    for (const auto& slots : task_instances_) {
      for (const auto& ti : slots) {
        if (ti && ti->node() == node) {
          os << "  TE " << ti->te().name << "[" << ti->instance_id() << "] "
             << "queued=" << ti->QueueDepth()
             << " processed=" << ti->ItemsProcessed() << "\n";
        }
      }
    }
  }
  return os.str();
}

// --- Scaling -------------------------------------------------------------------

uint32_t Deployment::PickLeastLoadedNode(bool avoid_stragglers) const {
  // Callers hold at least a shared topo lock.
  std::vector<size_t> load(options_.num_nodes, 0);
  for (const auto& slots : task_instances_) {
    for (const auto& ti : slots) {
      if (ti) {
        ++load[ti->node()];
      }
    }
  }
  auto least_loaded = [&](bool skip_stragglers) {
    uint32_t best = kNoNode;
    size_t best_load = SIZE_MAX;
    for (uint32_t n = 0; n < options_.num_nodes; ++n) {
      if (!node_alive_[n]) {
        continue;
      }
      if (skip_stragglers && node_straggler_[n]) {
        continue;
      }
      if (load[n] < best_load) {
        best = n;
        best_load = load[n];
      }
    }
    return best;
  };
  uint32_t best = least_loaded(avoid_stragglers);
  if (best == kNoNode && avoid_stragglers) {
    // Every alive node is flagged as a straggler: still balance by load
    // among them instead of dog-piling the first alive node (the previous
    // fallback), which was typically the straggler that triggered scaling.
    best = least_loaded(false);
  }
  return best;  // kNoNode when no node is alive at all
}

void Deployment::MarkNodeStraggler(uint32_t node) {
  std::unique_lock topo(topo_mutex_);
  if (node < node_straggler_.size()) {
    node_straggler_[node] = true;
  }
}

uint32_t Deployment::NodeOfTaskInstance(std::string_view task_name,
                                        uint32_t instance) const {
  auto task = sdg_.TaskByName(task_name);
  if (!task.ok()) {
    return kNoNode;
  }
  std::shared_lock topo(topo_mutex_);
  const auto& slots = task_instances_[*task];
  if (instance >= slots.size() || !slots[instance]) {
    return kNoNode;
  }
  return slots[instance]->node();
}

Status Deployment::AddTaskInstance(std::string_view task_name) {
  SDG_ASSIGN_OR_RETURN(graph::TaskId task, sdg_.TaskByName(task_name));
  const auto& te = sdg_.task(task);

  // Pause ingest and wait for in-flight items so no item is routed under the
  // old partitioning while we re-shard.
  std::unique_lock ingest(ingest_gate_);
  Drain();
  std::unique_lock topo(topo_mutex_);

  if (!te.state.has_value()) {
    auto& slots = task_instances_[task];
    uint32_t j = static_cast<uint32_t>(slots.size());
    uint32_t node = PickLeastLoadedNode(/*avoid_stragglers=*/true);
    if (node == kNoNode) {
      return UnavailableError("no alive node to place the new instance on");
    }
    slots.push_back(std::make_unique<TaskInstance>(
        te, j, node, nullptr, this, executor_, options_.mailbox_capacity,
        options_.max_batch));
    slots.back()->Start();
    return Status::Ok();
  }

  StateGroup& group = state_groups_[*te.state];
  const auto& se = sdg_.state(group.state);
  uint32_t k = static_cast<uint32_t>(group.instances.size());
  for (const auto& inst : group.instances) {
    if (!inst) {
      return FailedPreconditionError(
          "cannot scale a group with failed instances; recover first");
    }
    if (inst->checkpoint_active()) {
      return FailedPreconditionError(
          "cannot scale during an active checkpoint of SE '" + se.name + "'");
    }
  }

  uint32_t node = PickLeastLoadedNode(/*avoid_stragglers=*/true);
  if (node == kNoNode) {
    return UnavailableError("no alive node to place the new instance on");
  }
  auto fresh = MakeStateBackend(se);

  if (se.distribution == graph::StateDistribution::kPartitioned) {
    // Re-shard every existing instance under the new modulus k+1: records
    // whose partition changes move to their new owner. Records just moved
    // into instance j already satisfy hash % (k+1) == j, so later
    // extractions cannot move them twice.
    group.instances.push_back(std::move(fresh));
    group.instance_nodes.push_back(node);
    uint32_t new_k = k + 1;
    for (uint32_t i = 0; i < new_k; ++i) {
      for (uint32_t j = 0; j < new_k; ++j) {
        if (i == j || !group.instances[i]) {
          continue;
        }
        // Collect the moving records first, restore after ExtractPartition
        // returns: restoring from inside the extraction callback would hold
        // two SE-instance locks at once, in both (i, j) orders across the
        // pairwise loop — a lock-order inversion.
        std::vector<std::vector<uint8_t>> moving;
        Status s = group.instances[i]->ExtractPartition(
            j, new_k, [&moving](uint64_t, const uint8_t* p, size_t n) {
              moving.emplace_back(p, p + n);
            });
        SDG_RETURN_IF_ERROR(s);
        // Stripe-locked backends take concurrent RestoreRecord calls, so a
        // large migration is ingested by a stride-per-slot executor fan-out.
        const uint32_t fanout =
            std::min<uint32_t>(CkptParallelism(options_.fault_tolerance),
                               static_cast<uint32_t>(moving.size() / 64));
        if (fanout > 1) {
          std::mutex status_mutex;
          Status first_error;
          state::StateBackend* target = group.instances[j].get();
          const size_t stride = (moving.size() + fanout - 1) / fanout;
          executor_->Parallel(
              fanout,
              [&moving, target, stride, &status_mutex, &first_error](size_t t) {
                const size_t begin = t * stride;
                const size_t end = std::min(moving.size(), begin + stride);
                for (size_t r = begin; r < end; ++r) {
                  Status rs = target->RestoreRecord(moving[r].data(),
                                                    moving[r].size());
                  if (!rs.ok()) {
                    std::lock_guard<std::mutex> lock(status_mutex);
                    if (first_error.ok()) {
                      first_error = rs;
                    }
                    return;
                  }
                }
              },
              fanout);
          SDG_CHECK(first_error.ok())
              << "re-shard restore failed: " << first_error.ToString();
        } else {
          for (const auto& rec : moving) {
            Status rs =
                group.instances[j]->RestoreRecord(rec.data(), rec.size());
            SDG_CHECK(rs.ok()) << "re-shard restore failed: " << rs.ToString();
          }
        }
      }
    }
  } else {
    // Partial (or single) SE: a new, independent replica starting empty; its
    // contributions merge with the others at the next global access (§3.2).
    group.instances.push_back(std::move(fresh));
    group.instance_nodes.push_back(node);
  }

  // Every accessor TE gains a colocated instance bound to the new SE
  // instance.
  uint32_t j = k;
  for (graph::TaskId accessor : group.accessors) {
    auto& slots = task_instances_[accessor];
    SDG_CHECK(slots.size() == j) << "group instance counts diverged";
    slots.push_back(std::make_unique<TaskInstance>(
        sdg_.task(accessor), j, node, group.instances[j].get(), this,
        executor_, options_.mailbox_capacity, options_.max_batch));
    slots.back()->Start();
  }
  return Status::Ok();
}

// --- Checkpointing -------------------------------------------------------------

Status Deployment::CheckpointNode(uint32_t node) {
  if (options_.fault_tolerance.mode == FtMode::kNone) {
    return FailedPreconditionError("fault tolerance disabled");
  }
  if (node >= options_.num_nodes) {
    return InvalidArgumentError("unknown node");
  }
  std::lock_guard<std::mutex> ckpt_lock(*node_ckpt_mutex_[node]);
  return CheckpointNodeLocked(node);
}

Status Deployment::CheckpointNodeLocked(uint32_t node) {
  const FtMode mode = options_.fault_tolerance.mode;
  const auto& ft = options_.fault_tolerance;
  const uint32_t num_chunks = std::max<uint32_t>(1, ft.chunks_per_state);
  Stopwatch ckpt_timer;

  checkpoint::CheckpointMeta meta;
  struct CapturedState {
    state::StateBackend* backend = nullptr;
    std::string name;
  };
  struct CaptureUnit {
    state::StateBackend* backend = nullptr;  // nullptr for stateless tasks
    graph::StateId state = 0;
    uint32_t instance = 0;
    std::vector<TaskInstance*> accessors;
  };
  std::vector<CapturedState> captured_states;
  std::vector<TaskInstance*> captured_tasks;

  // Pass 1 (topology lock only): enumerate what lives on the node. Pointers
  // stay valid after release — killed objects are parked, not destroyed.
  std::vector<CaptureUnit> units;
  {
    std::shared_lock topo(topo_mutex_);
    if (!node_alive_[node]) {
      return FailedPreconditionError("node is not alive");
    }
    meta.epoch = ++node_epoch_[node];

    for (auto& group : state_groups_) {
      for (uint32_t j = 0; j < group.instances.size(); ++j) {
        if (!group.instances[j] || group.instance_nodes[j] != node) {
          continue;
        }
        CaptureUnit unit;
        unit.backend = group.instances[j].get();
        unit.state = group.state;
        unit.instance = j;
        for (graph::TaskId a : group.accessors) {
          auto& slots = task_instances_[a];
          if (j < slots.size() && slots[j]) {
            unit.accessors.push_back(slots[j].get());
          }
        }
        units.push_back(std::move(unit));
      }
    }
    for (const auto& te : sdg_.tasks()) {
      if (te.state.has_value()) {
        continue;
      }
      for (auto& ti : task_instances_[te.id]) {
        if (ti && ti->node() == node) {
          CaptureUnit unit;
          unit.accessors.push_back(ti.get());
          units.push_back(std::move(unit));
        }
      }
    }
  }

  // Pass 2 (no topology lock held): per unit, briefly pause its accessors to
  // flag the SE dirty and capture a consistent (SE, vector-timestamp, clock)
  // cut — the paper's "minimal interruption" point (§5 step 1/2).
  for (auto& unit : units) {
    MultiLock pause(unit.accessors);
    if (unit.backend != nullptr) {
      unit.backend->BeginCheckpoint();
      checkpoint::StateInstanceMeta sm;
      sm.state = unit.state;
      sm.instance = unit.instance;
      sm.num_chunks = num_chunks;
      sm.record_count = unit.backend->EntryCount();
      meta.states.push_back(sm);
      captured_states.push_back(
          {unit.backend,
           checkpoint::StateChunkName(unit.state, unit.instance)});
    }
    for (auto* ti : unit.accessors) {
      checkpoint::TaskInstanceMeta tm;
      tm.task = ti->task_id();
      tm.instance = ti->instance_id();
      tm.emit_clock = ti->emit_clock().Peek();
      for (const auto& [src, ts] : ti->LastSeenSnapshot()) {
        tm.last_seen.push_back({src.task, src.instance, ts});
      }
      meta.tasks.push_back(std::move(tm));
      captured_tasks.push_back(ti);
    }
  }

  // Decide full base vs delta per captured SE, now that BeginCheckpoint has
  // frozen each backend's change set. meta.states[i] corresponds to
  // captured_states[i] (both were pushed per backend unit in pass 2). A delta
  // needs a committed chain to extend (headed by a full base, shorter than the
  // interval cap) and a backend with a frozen baseline; anything else writes a
  // fresh full base. ckpt_chains_[node] is guarded by node_ckpt_mutex_[node],
  // held by our caller.
  auto& chains = ckpt_chains_[node];
  for (size_t i = 0; i < captured_states.size(); ++i) {
    auto& sm = meta.states[i];
    auto& cs = captured_states[i];
    auto chain_it = chains.find(cs.name);
    const bool use_delta =
        ft.delta_epoch_interval > 0 && chain_it != chains.end() &&
        !chain_it->second.empty() &&
        chain_it->second.front().kind == checkpoint::EpochKind::kFull &&
        chain_it->second.size() < ft.delta_epoch_interval &&
        cs.backend->DeltaReady();
    sm.kind = use_delta ? checkpoint::EpochKind::kDelta
                        : checkpoint::EpochKind::kFull;
    if (use_delta) {
      sm.chain = chain_it->second;
    }
    sm.chain.push_back({meta.epoch, num_chunks, sm.kind});
    sm.base_epoch = sm.chain.front().epoch;
  }

  // Serialise + persist. For the synchronous modes, processing is paused for
  // this entire phase; for async-local the dirty overlays absorb writes.
  // Each SE streams fixed-size segments to the backup store as its records
  // are serialised (bounded memory, I/O overlapped).
  auto persist = [&]() -> Status {
    if (fault_injector_ != nullptr) {
      SDG_RETURN_IF_ERROR(
          fault_injector_->CheckCrash("checkpoint.persist", CrashPhase::kBefore));
    }
    for (size_t i = 0; i < captured_states.size(); ++i) {
      auto& cs = captured_states[i];
      const bool use_delta =
          meta.states[i].kind == checkpoint::EpochKind::kDelta;
      checkpoint::ChunkStreamWriter::Options wo;
      wo.num_chunks = num_chunks;
      wo.codec = ft.chunk_codec;
      wo.delta = use_delta;
      // Fan serialisation across the backend's shards: each stripe's records
      // are disjoint and the writer's Add is thread-safe when concurrent, so
      // the shards feed the same segment streams while the store overlaps
      // I/O. Unsharded backends report one shard and stay serial.
      const uint32_t fanout =
          std::min(CkptParallelism(ft), cs.backend->SerializeShardCount());
      wo.concurrent = fanout > 1;
      checkpoint::ChunkStreamWriter writer(*store_, node, meta.epoch, cs.name,
                                           wo);
      checkpoint::ParallelFor parallel_for;
      if (fanout > 1) {
        parallel_for = [&](size_t n, const std::function<void(size_t)>& fn) {
          executor_->Parallel(n, fn, fanout);
        };
      }
      SDG_ASSIGN_OR_RETURN(
          auto stats, checkpoint::WriteEpoch(writer, *cs.backend, parallel_for));
      ckpt_bytes_.Increment(stats.bytes);
      ckpt_tombstones_.Increment(stats.tombstones);
      if (use_delta) {
        ckpt_delta_se_.Increment();
        ckpt_records_delta_.Increment(stats.records);
      } else {
        ckpt_full_se_.Increment();
        ckpt_records_full_.Increment(stats.records);
      }
    }
    for (auto* ti : captured_tasks) {
      std::vector<uint8_t> blob = SerializeBuffers(*ti);
      ckpt_bytes_.Increment(blob.size());
      SDG_RETURN_IF_ERROR(store_->WriteChunks(
          node, meta.epoch, BufferChunkName(ti->task_id(), ti->instance_id()),
          {blob}));
    }
    return Status::Ok();
  };

  Status persist_status;
  if (mode == FtMode::kSyncLocal || mode == FtMode::kSyncGlobal) {
    // Stop-the-node (SEEP) / stop-the-world (Naiad): hold every relevant
    // step lock for the full serialise+write. Paused slices time out on
    // try_lock_for and yield their pool worker rather than wedging the pool.
    std::vector<TaskInstance*> paused;
    {
      std::shared_lock topo(topo_mutex_);
      for (auto& slots : task_instances_) {
        for (auto& ti : slots) {
          if (!ti) {
            continue;
          }
          if (mode == FtMode::kSyncGlobal || ti->node() == node) {
            paused.push_back(ti.get());
          }
        }
      }
    }
    MultiLock pause(std::move(paused));
    persist_status = persist();
  } else {
    persist_status = persist();
  }

  // Consolidate dirty overlays (brief per-SE lock inside EndCheckpoint).
  uint64_t consolidated = 0;
  for (auto& cs : captured_states) {
    consolidated += cs.backend->EndCheckpoint();
  }
  ckpt_overlay_.Increment(consolidated);

  Status final_status = persist_status;
  if (final_status.ok() && fault_injector_ != nullptr) {
    // Fires between persist and the meta write: state chunks are durable but
    // the completeness marker is missing, so the checkpoint never counts.
    final_status =
        fault_injector_->CheckCrash("checkpoint.persist", CrashPhase::kAfter);
  }
  if (final_status.ok()) {
    final_status = store_->WriteMeta(node, meta.epoch, meta);
  }
  // Epoch durability is decided: commit the frozen change sets as the new
  // delta baseline, or merge them forward so the next epoch's delta is a
  // superset (restore-equivalent, which also makes an uncertain WriteMeta —
  // durable but reported failed — safe). Must run on every path.
  for (auto& cs : captured_states) {
    cs.backend->ResolveEpoch(final_status.ok());
  }
  SDG_RETURN_IF_ERROR(final_status);
  for (size_t i = 0; i < captured_states.size(); ++i) {
    chains[captured_states[i].name] = meta.states[i].chain;
  }

  // Acknowledge upstream buffers: everything at or below the checkpointed
  // vector timestamp is now recoverable from this checkpoint (§5 trimming).
  {
    std::shared_lock topo(topo_mutex_);
    for (const auto& tm : meta.tasks) {
      for (const auto& seen : tm.last_seen) {
        if (seen.task == kExternalTask) {
          auto it = external_buffers_.find(seen.instance);
          if (it != external_buffers_.end()) {
            it->second->Ack(tm.instance, seen.ts);
          }
          continue;
        }
        if (seen.task >= task_instances_.size()) {
          // Remote-origin source ids (kRemoteSourceTask and friends) have no
          // local upstream buffer — the sending process trims its own log
          // from the watermark acks the channel server issues.
          continue;
        }
        auto& slots = task_instances_[seen.task];
        if (seen.instance < slots.size() && slots[seen.instance]) {
          slots[seen.instance]->BufferFor(tm.task).Ack(tm.instance, seen.ts);
        }
      }
    }
  }
  // Epochs below the oldest chain base are unreachable from any chain in
  // this meta and safe to drop.
  store_->PruneBefore(node, meta.MinChainEpoch());
  checkpoints_done_.Increment();
  const uint64_t us =
      static_cast<uint64_t>(ckpt_timer.ElapsedSeconds() * 1e6);
  ckpt_last_us_.store(us, std::memory_order_relaxed);
  ckpt_total_us_.Increment(us);
  return Status::Ok();
}

Deployment::CheckpointStats Deployment::CheckpointStatsSnapshot() const {
  CheckpointStats s;
  s.checkpoints = checkpoints_done_.value();
  s.full_serializations = ckpt_full_se_.value();
  s.delta_serializations = ckpt_delta_se_.value();
  s.records_full = ckpt_records_full_.value();
  s.records_delta = ckpt_records_delta_.value();
  s.tombstones = ckpt_tombstones_.value();
  s.bytes_written = ckpt_bytes_.value();
  s.overlay_consolidated = ckpt_overlay_.value();
  s.last_duration_us = ckpt_last_us_.load(std::memory_order_relaxed);
  s.total_duration_us = ckpt_total_us_.value();
  return s;
}

state::SpillStats Deployment::SpillStatsSnapshot() const {
  std::shared_lock topo(topo_mutex_);
  state::SpillStats total;
  for (const auto& group : state_groups_) {
    for (const auto& inst : group.instances) {
      if (!inst) {
        continue;
      }
      const state::SpillStats s = inst->GetSpillStats();
      total.evictions += s.evictions;
      total.fault_ins += s.fault_ins;
      total.cold_lookups += s.cold_lookups;
      total.spilled_stripes += s.spilled_stripes;
      total.spilled_bytes += s.spilled_bytes;
      total.resident_bytes += s.resident_bytes;
    }
  }
  return total;
}

Status Deployment::CheckpointAllNodes() {
  for (uint32_t n = 0; n < options_.num_nodes; ++n) {
    if (NodeAlive(n)) {
      SDG_RETURN_IF_ERROR(CheckpointNode(n));
    }
  }
  return Status::Ok();
}

void Deployment::CheckpointDriverLoop() {
  const double interval = options_.fault_tolerance.checkpoint_interval_s;
  Stopwatch since_last;
  while (services_running_) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (since_last.ElapsedSeconds() < interval) {
      continue;
    }
    since_last.Restart();
    for (uint32_t n = 0; n < options_.num_nodes && services_running_; ++n) {
      if (NodeAlive(n)) {
        Status s = CheckpointNode(n);
        if (!s.ok()) {
          SDG_LOG(kWarning) << "periodic checkpoint of node " << n
                            << " failed: " << s.ToString();
        }
      }
    }
    const CheckpointStats st = CheckpointStatsSnapshot();
    SDG_LOG(kInfo) << "checkpoint sweep done: " << st.checkpoints
                   << " checkpoints, " << st.full_serializations << " full / "
                   << st.delta_serializations << " delta serialisations, "
                   << st.bytes_written << " bytes written, "
                   << st.records_full << "+" << st.records_delta
                   << " records (full+delta), " << st.tombstones
                   << " tombstones, " << st.overlay_consolidated
                   << " overlay entries consolidated, last "
                   << st.last_duration_us << "us";
    const state::SpillStats sp = SpillStatsSnapshot();
    if (sp.evictions > 0 || sp.spilled_stripes > 0) {
      SDG_LOG(kInfo) << "cold tier: " << sp.spilled_stripes
                     << " stripes spilled (" << sp.spilled_bytes
                     << " bytes), " << sp.resident_bytes << " bytes resident, "
                     << sp.evictions << " evictions, " << sp.fault_ins
                     << " fault-ins, " << sp.cold_lookups << " cold lookups";
    }
    SDG_LOG(kInfo) << "executor: " << executor_->StatsSnapshot().ToString();
  }
}

// --- Output-buffer (de)serialisation -------------------------------------------

std::vector<uint8_t> Deployment::SerializeBuffers(TaskInstance& ti) {
  BinaryWriter w;
  std::vector<std::pair<graph::TaskId, std::vector<OutputBuffer::Entry>>> all;
  ti.ForEachBuffer([&](graph::TaskId task, OutputBuffer& buffer) {
    all.emplace_back(task, buffer.Snapshot());
  });
  w.Write<uint32_t>(static_cast<uint32_t>(all.size()));
  for (const auto& [task, entries] : all) {
    w.Write<uint32_t>(task);
    w.Write<uint64_t>(entries.size());
    for (const auto& e : entries) {
      w.Write<uint32_t>(e.dest_instance);
      e.item.Serialize(w);
    }
  }
  return std::move(w).TakeBuffer();
}

Status Deployment::RestoreBuffers(TaskInstance& ti,
                                  const std::vector<uint8_t>& blob) {
  BinaryReader r(blob);
  SDG_ASSIGN_OR_RETURN(uint32_t num_buffers, r.Read<uint32_t>());
  for (uint32_t b = 0; b < num_buffers; ++b) {
    SDG_ASSIGN_OR_RETURN(uint32_t task, r.Read<uint32_t>());
    SDG_ASSIGN_OR_RETURN(uint64_t count, r.Read<uint64_t>());
    OutputBuffer& buffer = ti.BufferFor(task);
    for (uint64_t i = 0; i < count; ++i) {
      SDG_ASSIGN_OR_RETURN(uint32_t dest, r.Read<uint32_t>());
      SDG_ASSIGN_OR_RETURN(DataItem item, DataItem::Deserialize(r));
      buffer.RestoreEntry(item, dest);
    }
  }
  return Status::Ok();
}

// --- Failure & recovery ----------------------------------------------------------

Status Deployment::KillNode(uint32_t node) {
  if (node >= options_.num_nodes) {
    return InvalidArgumentError("unknown node");
  }
  std::unique_lock topo(topo_mutex_);
  if (!node_alive_[node]) {
    return FailedPreconditionError("node already dead");
  }
  node_alive_[node] = false;
  size_t items_lost = 0;
  for (auto& slots : task_instances_) {
    for (auto& ti : slots) {
      if (ti && ti->node() == node) {
        // Drops queued items; the worker exits asynchronously. The dropped
        // items were counted as in flight when delivered and will never reach
        // OnItemsDone, so they are released here — otherwise a concurrent or
        // later Drain() would wait on them forever.
        items_lost += ti->Abort();
        dead_instances_.push_back(std::move(ti));
      }
    }
  }
  for (auto& group : state_groups_) {
    for (uint32_t j = 0; j < group.instances.size(); ++j) {
      if (group.instances[j] && group.instance_nodes[j] == node) {
        // The in-memory state is lost to the dataflow; the object itself is
        // parked so concurrent raw-pointer holders (e.g. a checkpoint in
        // flight) stay valid.
        dead_states_.push_back(std::move(group.instances[j]));
      }
    }
  }
  if (items_lost > 0) {
    AccountDone(items_lost);
  }
  return Status::Ok();
}

Status Deployment::RecoverNode(uint32_t failed,
                               const std::vector<uint32_t>& replacements) {
  if (store_ == nullptr) {
    return FailedPreconditionError("fault tolerance disabled");
  }
  if (replacements.empty()) {
    return InvalidArgumentError("need at least one replacement node");
  }
  if (failed >= options_.num_nodes || NodeAlive(failed)) {
    // Recovering a live node would install a second copy of every one of its
    // task instances next to the running ones.
    return FailedPreconditionError("node to recover must exist and be dead");
  }
  for (uint32_t r : replacements) {
    if (r == failed) {
      return InvalidArgumentError(
          "replacement list contains the failed node itself");
    }
    if (r >= options_.num_nodes || !NodeAlive(r)) {
      return InvalidArgumentError("replacement node not alive");
    }
  }
  const uint32_t n = static_cast<uint32_t>(replacements.size());

  // Exclude a still-running checkpoint of the failed node: its raw pointers
  // into the graveyard must stay valid while it persists.
  std::lock_guard<std::mutex> ckpt_lock(*node_ckpt_mutex_[failed]);

  if (fault_injector_ != nullptr) {
    // Fires before any checkpoint data is read; nothing has been mutated, so
    // a failed recovery here can simply be retried.
    SDG_RETURN_IF_ERROR(
        fault_injector_->CheckCrash("restore.meta", CrashPhase::kBefore));
  }
  SDG_ASSIGN_OR_RETURN(uint64_t epoch, store_->LatestEpoch(failed));
  SDG_ASSIGN_OR_RETURN(checkpoint::CheckpointMeta meta,
                       store_->ReadMeta(failed, epoch));

  // Phase 1 (off the lock): fetch chunks from the m backup directories in
  // parallel, split n ways, and rebuild backends + instances.
  struct RestoredState {
    graph::StateId state = 0;
    uint32_t old_instance = 0;
    std::vector<std::unique_ptr<state::StateBackend>> backends;  // size n
  };
  std::vector<RestoredState> restored_states;

  for (const auto& sm : meta.states) {
    RestoredState rs;
    rs.state = sm.state;
    rs.old_instance = sm.instance;
    const auto& se = sdg_.state(sm.state);
    for (uint32_t i = 0; i < n; ++i) {
      rs.backends.push_back(MakeStateBackend(se));
    }
    // Per-node ingest pacing: each recovering node can only absorb restore
    // traffic at a bounded rate, so splitting across n nodes divides the
    // per-node ingest time (the sleeps below overlap across threads).
    const uint64_t ingest_bw =
        options_.fault_tolerance.recovery_ingest_bytes_per_sec;
    auto ingest_throttle = [ingest_bw](size_t bytes) {
      if (ingest_bw > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            static_cast<int64_t>(1e9 * static_cast<double>(bytes) /
                                 static_cast<double>(ingest_bw))));
      }
    };
    // Apply the base+delta chain strictly in order: the full base first, then
    // each delta epoch's changed records and tombstones on top. v1 metas
    // deserialize with a synthesized single-link full chain, so this is the
    // only restore path. Each link is applied in full (the fan-outs below
    // join) before ReadChain reads the next, so later epochs never overtake
    // earlier ones.
    auto apply_link = [&](std::vector<std::vector<uint8_t>> chunks) -> Status {
      if (n == 1) {
        // Plain 1-to-1 (or m-to-1) restore. Stripe-locked backends accept
        // concurrent RestoreChunk calls (records route to per-stripe locks),
        // so one link's chunks are ingested in parallel.
        const uint32_t fanout =
            std::min<uint32_t>(CkptParallelism(options_.fault_tolerance),
                               static_cast<uint32_t>(chunks.size()));
        if (fanout > 1) {
          std::mutex status_mutex;
          Status first_error;
          state::StateBackend* target = rs.backends[0].get();
          executor_->Parallel(
              chunks.size(),
              [&chunks, target, &status_mutex, &first_error,
               &ingest_throttle](size_t c) {
                ingest_throttle(chunks[c].size());
                Status s = state::RestoreChunk(*target, chunks[c]);
                if (!s.ok()) {
                  std::lock_guard<std::mutex> lock(status_mutex);
                  if (first_error.ok()) {
                    first_error = s;
                  }
                }
              },
              fanout);
          SDG_RETURN_IF_ERROR(first_error);
        } else {
          for (const auto& chunk : chunks) {
            ingest_throttle(chunk.size());
            SDG_RETURN_IF_ERROR(state::RestoreChunk(*rs.backends[0], chunk));
          }
        }
      } else {
        // Step R1/R2 of Fig. 4: split each chunk into n partitions and
        // reconstruct the n new instances in parallel.
        std::mutex status_mutex;
        Status first_error;
        for (const auto& chunk : chunks) {
          SDG_ASSIGN_OR_RETURN(auto parts, state::SplitChunk(chunk, n));
          executor_->Parallel(
              n,
              [&parts, &rs, &status_mutex, &first_error,
               &ingest_throttle](size_t i) {
                ingest_throttle(parts[i].size());
                Status s = state::RestoreChunk(*rs.backends[i], parts[i]);
                if (!s.ok()) {
                  std::lock_guard<std::mutex> lock(status_mutex);
                  if (first_error.ok()) {
                    first_error = s;
                  }
                }
              },
              n);
        }
        SDG_RETURN_IF_ERROR(first_error);
      }
      return Status::Ok();
    };
    SDG_RETURN_IF_ERROR(store_->ReadChain(failed, sm, apply_link));
    restored_states.push_back(std::move(rs));
  }

  // Phase 2: install under the topology lock.
  if (fault_injector_ != nullptr) {
    // Fires after every chunk was read but before the topology is mutated:
    // the restore work is wasted, the deployment is untouched, a retry works.
    SDG_RETURN_IF_ERROR(
        fault_injector_->CheckCrash("restore.install", CrashPhase::kBefore));
  }
  std::vector<TaskInstance*> new_instances;
  std::set<graph::TaskId> split_tasks;  // re-instantiated n-way (old dest = 0)
  {
    std::unique_lock topo(topo_mutex_);

    for (auto& rs : restored_states) {
      StateGroup& group = state_groups_[rs.state];
      if (n == 1) {
        group.instances[rs.old_instance] = std::move(rs.backends[0]);
        group.instance_nodes[rs.old_instance] = replacements[0];
      } else {
        if (group.instances.size() != 1) {
          return UnimplementedError(
              "n-way split recovery requires a single-instance SE");
        }
        group.instances.clear();
        group.instance_nodes.clear();
        for (uint32_t i = 0; i < n; ++i) {
          group.instances.push_back(std::move(rs.backends[i]));
          group.instance_nodes.push_back(replacements[i]);
        }
      }
    }

    for (const auto& tm : meta.tasks) {
      const auto& te = sdg_.task(tm.task);
      auto& slots = task_instances_[tm.task];
      std::map<SourceId, uint64_t> seen;
      for (const auto& s : tm.last_seen) {
        seen[SourceId{s.task, s.instance}] = s.ts;
      }

      uint32_t copies = 1;
      if (te.state.has_value() &&
          state_groups_[*te.state].instances.size() == n && n > 1) {
        copies = n;  // accessor of a split SE is re-instantiated n-way
        split_tasks.insert(tm.task);
        slots.clear();
        slots.resize(n);
      }
      for (uint32_t c = 0; c < copies; ++c) {
        uint32_t inst = copies == 1 ? tm.instance : c;
        uint32_t node = replacements[c % replacements.size()];
        state::StateBackend* backend = nullptr;
        if (te.state.has_value()) {
          backend = state_groups_[*te.state].instances[inst].get();
        }
        if (inst >= slots.size()) {
          slots.resize(inst + 1);
        }
        slots[inst] = std::make_unique<TaskInstance>(
            te, inst, node, backend, this, executor_,
            options_.mailbox_capacity, options_.max_batch);
        // tm.emit_clock is the checkpointed Peek() — the next ts to issue.
        // ResumeAt (not AdvanceTo) so re-processed inputs re-issue the same
        // timestamps and stay inside downstream dedup watermarks.
        slots[inst]->emit_clock().ResumeAt(tm.emit_clock);
        // Chaos-debug trace (docs/testing.md) — marks installs so a
        // SDG_DEBUG_TASK item trace can be segmented by recovery epoch.
        static const char* const dbg = getenv("SDG_DEBUG_TASK");
        if (dbg != nullptr && te.name == dbg) {
          fprintf(stderr, "DBG RESTORE %s inst=%u node=%u clock=%llu\n",
                  te.name.c_str(), inst, node,
                  (unsigned long long)tm.emit_clock);
        }
        slots[inst]->RestoreLastSeen(seen);
        new_instances.push_back(slots[inst].get());
      }
      // Restore this instance's output buffers (for downstream replay).
      auto blob = store_->ReadChunks(failed, epoch,
                                     BufferChunkName(tm.task, tm.instance), 1);
      if (blob.ok() && !blob->empty()) {
        SDG_RETURN_IF_ERROR(RestoreBuffers(*slots[copies == 1 ? tm.instance : 0],
                                           (*blob)[0]));
      }
    }
    // Note: the graveyard (dead_instances_/dead_states_) is reclaimed only at
    // shutdown — an in-flight checkpoint may still hold raw pointers into it.
  }

  for (auto* ti : new_instances) {
    ti->Start();
  }

  // Phase 3: replay. First re-send the recovered node's own buffered outputs
  // (downstream dedups by timestamp), then ask upstreams to replay inputs
  // past the checkpoint's vector timestamp. The whole phase is idempotent —
  // every replayed item carries replayed=true and dedups by timestamp — which
  // the "replay.repeat" crash point exercises by running it twice.
  auto run_replay = [&]() {
  for (auto* ti : new_instances) {
    // Snapshot under the buffer lock, deliver after: DeliverTo takes the
    // topology lock, which elsewhere (RestoreBuffers under the exclusive
    // scope above) is held while buffer locks are taken — delivering from
    // inside ForEachBuffer would invert that order.
    std::vector<std::pair<graph::TaskId, std::vector<OutputBuffer::Entry>>>
        logged;
    ti->ForEachBuffer([&](graph::TaskId downstream, OutputBuffer& buffer) {
      logged.emplace_back(downstream, buffer.Snapshot());
    });
    for (auto& [downstream, entries] : logged) {
      for (auto& entry : entries) {
        DataItem item = std::move(entry.item);
        item.replayed = true;
        DeliverTo(downstream, entry.dest_instance, std::move(item), UINT32_MAX);
      }
    }
  }

  for (auto* ti : new_instances) {
    graph::TaskId t = ti->task_id();
    const auto& te = sdg_.task(t);
    const bool split = split_tasks.count(t) > 0;
    // Items for a split task were originally destined to the single old
    // instance 0; re-dispatch them under the new partitioning. For 1:1
    // recovery the recorded destination is exact.
    const uint32_t old_dest = split ? 0 : ti->instance_id();

    auto replay_to_self = [&](const DataItem& item, int key_field) {
      DataItem replay = item;
      replay.replayed = true;
      if (split && te.access == graph::AccessMode::kPartitioned &&
          key_field >= 0) {
        uint32_t count = NumInstances(t);
        uint32_t dest =
            count == 0
                ? 0
                : static_cast<uint32_t>(
                      replay.payload[static_cast<size_t>(key_field)].Hash() %
                      count);
        if (dest != ti->instance_id()) {
          return;  // another new instance replays it
        }
      } else if (split && ti->instance_id() != 0) {
        // Non-partitioned access after a split: instance 0 inherits the
        // stream (others start fresh).
        return;
      }
      DeliverTo(t, ti->instance_id(), std::move(replay), UINT32_MAX);
    };

    // External replay for entry TEs.
    if (te.is_entry) {
      std::shared_lock topo(topo_mutex_);
      auto it = external_buffers_.find(t);
      if (it != external_buffers_.end()) {
        uint64_t from_ts = ti->LastSeenFrom(SourceId{kExternalTask, t});
        auto items = it->second->ItemsAfter(old_dest, from_ts);
        topo.unlock();
        for (auto& item : items) {
          replay_to_self(item, te.entry_key_field);
        }
      }
    }
    // Upstream TE replay.
    for (const auto* edge : sdg_.InEdges(t)) {
      std::vector<TaskInstance*> upstreams;
      {
        std::shared_lock topo(topo_mutex_);
        for (auto& u : task_instances_[edge->from]) {
          if (u) {
            upstreams.push_back(u.get());
          }
        }
      }
      for (auto* u : upstreams) {
        uint64_t from_ts =
            ti->LastSeenFrom(SourceId{edge->from, u->instance_id()});
        for (auto& item : u->BufferFor(t).ItemsAfter(old_dest, from_ts)) {
          replay_to_self(item, edge->key_field);
        }
      }
    }
  }
  };
  run_replay();
  if (fault_injector_ != nullptr &&
      fault_injector_->FireIfArmed("replay.repeat", CrashPhase::kAfter)) {
    run_replay();
  }
  return Status::Ok();
}

Status Deployment::MigrateNode(uint32_t from, const std::vector<uint32_t>& to) {
  for (uint32_t t : to) {
    if (t == from) {
      return InvalidArgumentError("cannot migrate a node onto itself");
    }
  }
  // A fresh checkpoint minimises the replay tail; the kill then makes the
  // node's in-memory state unreachable, and recovery restores it elsewhere.
  SDG_RETURN_IF_ERROR(CheckpointNode(from));
  SDG_RETURN_IF_ERROR(KillNode(from));
  return RecoverNode(from, to);
}

// --- Scaling monitor --------------------------------------------------------------

void Deployment::ScalingMonitorLoop() {
  const auto& opts = options_.scaling;
  std::map<graph::TaskId, int> high_samples;
  std::map<std::pair<graph::TaskId, uint32_t>, uint64_t> last_processed;
  std::map<std::pair<graph::TaskId, uint32_t>, size_t> last_backlog;
  std::map<std::pair<graph::TaskId, uint32_t>, int> slow_samples;
  Stopwatch cooldown;
  bool in_cooldown = false;

  while (services_running_) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opts.sample_interval_ms));
    if (!services_running_) {
      return;
    }
    if (in_cooldown && cooldown.ElapsedMillis() < opts.cooldown_ms) {
      continue;
    }
    in_cooldown = false;

    struct TaskSample {
      graph::TaskId task;
      double occupancy = 0;
      uint32_t alive = 0;
      std::vector<std::pair<uint32_t, double>> instance_rates;  // per instance
      std::vector<uint32_t> instance_nodes;
      std::vector<bool> instance_had_work;
    };
    std::vector<TaskSample> samples;
    {
      std::shared_lock topo(topo_mutex_);
      for (const auto& te : sdg_.tasks()) {
        TaskSample s;
        s.task = te.id;
        size_t depth = 0, capacity = 0;
        for (const auto& ti : task_instances_[te.id]) {
          if (!ti) {
            continue;
          }
          ++s.alive;
          depth += ti->QueueDepth();
          capacity += ti->QueueCapacity();
          uint64_t processed = ti->ItemsProcessed();
          auto key = std::make_pair(te.id, ti->instance_id());
          double rate =
              static_cast<double>(processed - last_processed[key]);
          last_processed[key] = processed;
          // Backlog at either end of the window: an instance that had none
          // was starved by its input, not slow.
          size_t backlog = ti->Backlog();
          s.instance_had_work.push_back(backlog > 0 || last_backlog[key] > 0);
          last_backlog[key] = backlog;
          s.instance_rates.emplace_back(ti->instance_id(), rate);
          s.instance_nodes.push_back(ti->node());
        }
        s.occupancy = capacity == 0
                          ? 0
                          : static_cast<double>(depth) / static_cast<double>(capacity);
        samples.push_back(std::move(s));
      }
    }

    for (auto& s : samples) {
      // Straggler detection: an instance persistently slower than the median
      // while it had queued work marks its node (future placements avoid it;
      // §6.3). An idle instance is not judged: its rate is its input's.
      if (s.instance_rates.size() >= 2) {
        std::vector<double> rates;
        for (auto& [inst, rate] : s.instance_rates) {
          rates.push_back(rate);
        }
        std::sort(rates.begin(), rates.end());
        double median = rates[rates.size() / 2];
        for (size_t i = 0; i < s.instance_rates.size(); ++i) {
          auto [inst, rate] = s.instance_rates[i];
          auto key = std::make_pair(s.task, inst);
          if (s.instance_had_work[i] && median > 0 &&
              rate < opts.straggler_ratio * median) {
            if (++slow_samples[key] >= opts.samples_to_trigger) {
              uint32_t node = s.instance_nodes[i];
              bool newly_flagged = false;
              {
                std::unique_lock topo(topo_mutex_);
                if (!node_straggler_[node]) {
                  SDG_LOG(kInfo) << "node " << node << " flagged as straggler";
                  node_straggler_[node] = true;
                  newly_flagged = true;
                }
              }
              if (newly_flagged && opts.on_straggler) {
                opts.on_straggler(node);
              }
            }
          } else {
            slow_samples[key] = 0;
          }
        }
      }
      // Bottleneck detection: sustained queue occupancy triggers a new
      // instance (§3.3 reactive scaling).
      if (s.occupancy >= opts.queue_high_watermark &&
          s.alive < opts.max_instances_per_task) {
        if (++high_samples[s.task] >= opts.samples_to_trigger) {
          high_samples[s.task] = 0;
          const auto& te = sdg_.task(s.task);
          SDG_LOG(kInfo) << "scaling task '" << te.name << "' to "
                         << (s.alive + 1) << " instances";
          Status st = AddTaskInstance(te.name);
          if (!st.ok()) {
            SDG_LOG(kWarning) << "scale-out failed: " << st.ToString();
          }
          in_cooldown = true;
          cooldown.Restart();
          break;  // one action per cycle
        }
      } else {
        high_samples[s.task] = 0;
      }
    }
  }
}

// --- Cluster -----------------------------------------------------------------------

Result<std::unique_ptr<Deployment>> Cluster::Deploy(graph::Sdg g) {
  auto deployment = std::make_unique<Deployment>(std::move(g), options_);
  SDG_RETURN_IF_ERROR(deployment->Start());
  return deployment;
}

}  // namespace sdg::runtime
