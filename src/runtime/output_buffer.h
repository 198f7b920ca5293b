// OutputBuffer: the upstream-backup message log of the recovery protocol (§5).
//
// Every TE instance logs, per downstream TE, each item it sent together with
// the destination instance chosen by the dispatcher. After a downstream
// failure, entries past the restored checkpoint's vector timestamp are
// replayed; once a downstream instance's checkpoint is persisted, its entries
// at or below the acknowledged timestamp are trimmed.
//
// Entries are kept in one deque PER destination instance. Acks for one
// destination therefore trim that destination's log regardless of what other
// destinations still retain — a slow (or failed) instance can never pin
// acknowledged entries of its healthy siblings behind it, which is what the
// earlier single-FIFO layout did whenever destinations interleaved.
#ifndef SDG_RUNTIME_OUTPUT_BUFFER_H_
#define SDG_RUNTIME_OUTPUT_BUFFER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "src/common/serialize.h"
#include "src/runtime/data_item.h"

namespace sdg::runtime {

class OutputBuffer {
 public:
  struct Entry {
    DataItem item;
    uint32_t dest_instance = 0;
  };

  void Append(const DataItem& item, uint32_t dest_instance) {
    std::lock_guard<std::mutex> lock(mutex_);
    AppendLocked(item, dest_instance);
  }

  // Logs a run of items destined to one instance under a single lock hold
  // (routing appends each input item's share of a destination group).
  void AppendAll(std::span<const DataItem> items, uint32_t dest_instance) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& q = queues_[dest_instance];
    for (const auto& item : items) {
      q.push_back(item);
    }
  }

  // Records that `dest_instance` has durably checkpointed items from this
  // source up to `acked_ts`, then drops that destination's entries at or
  // below the highest acknowledgement seen (the watermark is sticky: an
  // entry restored or appended below it is trimmed by the next Ack, however
  // low). Timestamps per source are monotone, so covered entries are exactly
  // a prefix of the destination's deque.
  void Ack(uint32_t dest_instance, uint64_t acked_ts) {
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t& slot = acked_[dest_instance];
    slot = std::max(slot, acked_ts);
    auto it = queues_.find(dest_instance);
    if (it == queues_.end()) {
      return;
    }
    auto& q = it->second;
    while (!q.empty() && q.front().ts <= slot) {
      q.pop_front();
    }
    if (q.empty()) {
      queues_.erase(it);
    }
  }

  // Entries with ts > from_ts destined to `dest_instance` (replay set).
  std::vector<DataItem> ItemsAfter(uint32_t dest_instance,
                                   uint64_t from_ts) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<DataItem> out;
    auto it = queues_.find(dest_instance);
    if (it == queues_.end()) {
      return out;
    }
    for (const auto& item : it->second) {
      if (item.ts > from_ts) {
        out.push_back(item);
      }
    }
    return out;
  }

  // All retained entries, for checkpointing this buffer's contents. Grouped
  // by destination (FIFO within each destination) — the restore path replays
  // per destination, so cross-destination order carries no meaning.
  std::vector<Entry> Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Entry> out;
    for (const auto& [dest, q] : queues_) {
      for (const auto& item : q) {
        out.push_back(Entry{item, dest});
      }
    }
    return out;
  }

  void RestoreEntry(const DataItem& item, uint32_t dest_instance) {
    Append(item, dest_instance);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto& [dest, q] : queues_) {
      n += q.size();
    }
    return n;
  }

  // Retained entries for one destination (bounded-size assertions in tests).
  size_t SizeFor(uint32_t dest_instance) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = queues_.find(dest_instance);
    return it == queues_.end() ? 0 : it->second.size();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    queues_.clear();
  }

 private:
  void AppendLocked(const DataItem& item, uint32_t dest_instance) {
    queues_[dest_instance].push_back(item);
  }

  mutable std::mutex mutex_;
  // Ordered map so Snapshot() is deterministic across runs (checkpoint bytes
  // compare equal for equal logical state).
  std::map<uint32_t, std::deque<DataItem>> queues_;
  std::map<uint32_t, uint64_t> acked_;  // sticky per-destination watermark
};

}  // namespace sdg::runtime

#endif  // SDG_RUNTIME_OUTPUT_BUFFER_H_
