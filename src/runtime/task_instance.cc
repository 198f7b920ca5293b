#include "src/runtime/task_instance.h"

#include <chrono>
#include <thread>

#include "src/common/logging.h"

namespace sdg::runtime {

namespace {
// Help-on-block nesting bound. A chain of full mailboxes A -> B -> C ... is
// helped by running each destination inline on the pushing thread; the chain
// length is bounded by the topology's path length, so a depth beyond this is
// a cycle of full mailboxes — which deadlocked under thread-per-instance too.
// Falling back to a bounded wait converts would-be infinite recursion into
// that same (pre-existing) deadlock instead of a stack overflow.
constexpr int kMaxHelpDepth = 64;
thread_local int tl_help_depth = 0;
}  // namespace

// TaskContext implementation bound to one (instance, input item) pair. Emits
// are coalesced into the instance's scratch vector (single runner, so no
// sharing) and routed as one batch after the task function returns — one
// routing pass (one topology-lock scope) per input item instead of one per
// emit, and no per-item allocation once the scratch capacity has warmed up.
class InstanceTaskContext final : public graph::TaskContext {
 public:
  InstanceTaskContext(TaskInstance& ti, const DataItem& cause,
                      uint32_t num_instances, std::vector<PendingEmit>& emits)
      : ti_(ti), cause_(cause), num_instances_(num_instances), emits_(emits) {}

  state::StateBackend* state() override { return ti_.state_; }

  void Emit(size_t output, Tuple tuple) override {
    emits_.push_back(PendingEmit{output, std::move(tuple)});
  }

  // Routes everything emitted so far. Called under the runner's step lock,
  // so emitted timestamps stay consistent with the checkpoint cut.
  void Flush() {
    if (emits_.empty()) {
      return;
    }
    ti_.hooks_->RouteEmits(ti_, emits_, cause_);
    emits_.clear();
  }

  uint32_t instance_id() const override { return ti_.instance_; }
  uint32_t num_instances() const override { return num_instances_; }

 private:
  TaskInstance& ti_;
  const DataItem& cause_;
  uint32_t num_instances_;
  std::vector<PendingEmit>& emits_;
};

TaskInstance::TaskInstance(const graph::TaskElement& te, uint32_t instance,
                           uint32_t node, state::StateBackend* state,
                           RuntimeHooks* hooks, Executor* executor,
                           size_t mailbox_capacity, size_t max_batch)
    : te_(te),
      instance_(instance),
      node_(node),
      state_(state),
      hooks_(hooks),
      executor_(executor),
      mailbox_(mailbox_capacity),
      max_batch_(max_batch < 1 ? 1 : max_batch) {
  // Invoked under the mailbox lock whenever items land; Ready() is a no-op
  // until Start() binds the executor, and Close/Abort serialise against it
  // on the same lock, so no ready can start after shutdown begins.
  mailbox_.SetReadyCallback([this] { Ready(); });
}

TaskInstance::~TaskInstance() {
  Abort();
  Join();
}

void TaskInstance::Start() {
  SDG_CHECK(!started_.exchange(true)) << "task instance started twice";
  BindExecutor(executor_);
  if (!mailbox_.Empty()) {
    Ready();  // items delivered before Start (restore/install paths)
  }
}

void TaskInstance::StopWhenDrained() {
  mailbox_.Close();
  Ready();  // make sure a final slice observes the close and retires
}

size_t TaskInstance::Abort() {
  aborted_.store(true, std::memory_order_relaxed);
  size_t dropped = mailbox_.Abort();
  Ready();  // flush any carried resume_ items, then go idle
  return dropped;
}

void TaskInstance::Join() { AwaitIdle(); }

bool TaskInstance::Deliver(DataItem item) {
  std::vector<DataItem> one;
  one.push_back(std::move(item));
  return DeliverAll(std::move(one)) == 1;
}

size_t TaskInstance::DeliverAll(std::vector<DataItem>&& items) {
  if (items.empty()) {
    return 0;
  }
  size_t done = 0;
  bool closed = false;
  for (;;) {
    done = mailbox_.TryPushSome(items, done, &closed);
    if (closed || done == items.size()) {
      return done;  // on close the remainder is dropped, matching PushAll
    }
    // Mailbox full. Instead of parking this thread until the pool gets to
    // the destination (which on a saturated pool might be never, if every
    // worker is a blocked producer), drain the destination right here.
    if (tl_help_depth < kMaxHelpDepth) {
      ++tl_help_depth;
      bool ran = TryRunInline();
      --tl_help_depth;
      if (ran) {
        continue;
      }
    }
    // Someone else is running it (or the help chain is a cycle): bounded
    // wait for capacity, then retry.
    mailbox_.WaitNotFullFor(std::chrono::microseconds(200));
  }
}

std::map<SourceId, uint64_t> TaskInstance::LastSeenSnapshot() const {
  std::lock_guard<std::mutex> lock(seen_mutex_);
  return last_seen_;
}

void TaskInstance::RestoreLastSeen(const std::map<SourceId, uint64_t>& seen) {
  std::lock_guard<std::mutex> lock(seen_mutex_);
  last_seen_ = seen;
}

uint64_t TaskInstance::LastSeenFrom(const SourceId& src) const {
  std::lock_guard<std::mutex> lock(seen_mutex_);
  auto it = last_seen_.find(src);
  return it == last_seen_.end() ? 0 : it->second;
}

OutputBuffer& TaskInstance::BufferFor(graph::TaskId downstream) {
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  auto& slot = buffers_[downstream];
  if (!slot) {
    slot = std::make_unique<OutputBuffer>();
  }
  return *slot;
}

void TaskInstance::ForEachBuffer(
    const std::function<void(graph::TaskId, OutputBuffer&)>& fn) {
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  for (auto& [task, buffer] : buffers_) {
    fn(task, *buffer);
  }
}

bool TaskInstance::RunSlice() {
  // resume_ holds items already popped by a previous slice that yielded on
  // the step lock or at a cut; they must go first to preserve per-source
  // FIFO.
  if (resume_.empty() &&
      mailbox_.TryPopAll(resume_, max_batch_) == 0) {
    return false;  // empty (spurious ready) or closed-and-drained
  }
  popped_.store(resume_.size(), std::memory_order_relaxed);
  // A pending cut goes first: its taker polls (MultiLock), and a slice that
  // released at a cut is re-run within microseconds, so re-taking the lock
  // at once would starve the taker. Defer for up to ~1ms, once per cut, so a
  // taker that also waits on a busy sibling cannot stall this instance.
  if (cut_requests_.load(std::memory_order_relaxed) == 0) {
    deferred_to_cut_ = false;
  } else if (!deferred_to_cut_) {
    deferred_to_cut_ = true;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
    while (cut_requests_.load(std::memory_order_relaxed) != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
  // One step-lock scope covers the batch and the flush of everything it
  // staged (OnItemsDone): the checkpointer cannot cut between an item and
  // the delivery of its outputs, so an item is in its source's upstream log
  // (RouteEmits) before any downstream effect of it can be checkpointed. A
  // checkpointer that holds the lock across a long synchronous persist must
  // not wedge this pool worker: give up after ~1ms of polling and yield the
  // slice (the executor re-runs it; the batch stays in resume_). Polling
  // try_lock instead of a timed lock keeps every acquisition visible to the
  // thread sanitizer, which does not model timed_mutex::try_lock_for.
  std::unique_lock<std::mutex> step(step_mutex_, std::try_to_lock);
  for (int polls = 0; !step.owns_lock(); ++polls) {
    if (polls == 20) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    (void)step.try_lock();
  }
  int64_t start_ns = Stopwatch::NowNanos();
  size_t processed = 0;
  while (!resume_.empty()) {
    ProcessItem(resume_.front(), emit_scratch_);
    resume_.pop_front();
    ++processed;
    // A pending cut or a kill ends the scope at this item boundary.
    if (cut_requests_.load(std::memory_order_relaxed) != 0 ||
        aborted_.load(std::memory_order_relaxed)) {
      break;
    }
  }
  size_t done = processed;
  if (aborted_.load(std::memory_order_relaxed)) {
    done += resume_.size();  // lost with the instance, like its mailbox
    resume_.clear();
  }
  hooks_->OnItemsDone(done);
  step.unlock();
  popped_.store(resume_.size(), std::memory_order_relaxed);
  // Straggler simulation: a node with speed s < 1 takes 1/s times as long
  // per item; pad the batch by the difference. This sleeps a pool worker,
  // exactly as it slept the dedicated worker before.
  double speed = hooks_->NodeSpeed(node_);
  if (speed < 1.0 && speed > 0.0) {
    int64_t took = Stopwatch::NowNanos() - start_ns;
    auto pad = static_cast<int64_t>(static_cast<double>(took) *
                                    (1.0 / speed - 1.0));
    if (pad > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(pad));
    }
  }
  return !resume_.empty() || !mailbox_.Empty();
}

void TaskInstance::ProcessItem(const DataItem& item,
                               std::vector<PendingEmit>& emit_scratch) {
  // Duplicate detection (§5): only replayed items are checked — in normal
  // operation per-source FIFO delivery makes duplicates impossible, and
  // checking would mis-drop items rerouted by repartitioning.
  // Chaos-debug trace (docs/testing.md): SDG_DEBUG_TASK=<te name> prints
  // every apply/dedup decision for that task. One pointer check when unset.
  static const char* const dbg = getenv("SDG_DEBUG_TASK");
  if (dbg != nullptr && te_.name == dbg) {
    static const bool print_key = getenv("SDG_DEBUG_PAYLOAD0_STR") != nullptr;
    const char* key =
        print_key && !item.payload.empty() ? item.payload[0].AsString().c_str()
                                           : "";
    fprintf(stderr,
            "DBG %s inst=%u from=(%u,%u) ts=%llu replayed=%d seen=%llu %s %s\n",
            te_.name.c_str(), instance_, item.from.task, item.from.instance,
            (unsigned long long)item.ts, item.replayed ? 1 : 0,
            (unsigned long long)LastSeenFrom(item.from),
            (item.replayed && item.ts <= LastSeenFrom(item.from)) ? "DEDUP"
                                                                  : "APPLY",
            key);
  }
  if (item.replayed && item.ts <= LastSeenFrom(item.from)) {
    processed_.Increment();
    return;
  }

  uint32_t num_instances = hooks_->NumInstances(te_.id);
  emit_scratch.clear();
  InstanceTaskContext ctx(*this, item, num_instances, emit_scratch);
  if (te_.is_collector()) {
    // All-to-one barrier: gather the partials of this item's barrier until
    // all expected instances have reported, then run the merge logic (§3.2).
    if (item.barrier_id == 0) {
      te_.collector({item.payload}, ctx);
    } else {
      auto& pending = pending_barriers_[item.barrier_id];
      pending.expected = item.expected_partials;
      pending.user_tag = item.user_tag;
      pending.partials.push_back(item.payload);
      if (pending.partials.size() >= pending.expected) {
        PendingBarrier done = std::move(pending);
        pending_barriers_.erase(item.barrier_id);
        te_.collector(done.partials, ctx);
      }
    }
  } else {
    te_.fn(item.payload, ctx);
  }
  ctx.Flush();

  {
    std::lock_guard<std::mutex> lock(seen_mutex_);
    uint64_t& slot = last_seen_[item.from];
    slot = std::max(slot, item.ts);
  }
  processed_.Increment();
}

}  // namespace sdg::runtime
