// EpochTail: the delta-checkpoint fan-out buffer feeding read replicas.
//
// The worker cuts each checkpoint epoch once (a full base or a dirty-record
// delta) and the same serialized bytes go to the backup store as a chain
// link and to the serve path as a replication stream. Per partition, the
// tail retains the latest base epoch plus every delta cut since it — the
// in-memory mirror of the partition's durable chain — so that
//
//   - a live subscriber receives each epoch once, in order, as a delta (a
//     base only on ownership change, or once the partition has outgrown its
//     base and the delta would be as large), and
//   - a (re)connecting subscriber replays base + deltas and is caught up
//     without the owner re-serializing anything.
//
// The tail re-bases by DeltaChain's rule (checkpoint_meta.h): once the
// retained delta bytes reach the base's bytes, or the run is
// DeltaChain::kMaxLinks long, NeedsBase asks for the next epoch as a full
// base. That bounds replay length, and memory at about twice a base.
// SerializeEpochBlobs turns a checkpoint-frozen backend into the chunk blobs
// the tail stores — the same streamed chunk frames the migration path ships,
// assembled in memory.
#ifndef SDG_CHECKPOINT_EPOCH_TAIL_H_
#define SDG_CHECKPOINT_EPOCH_TAIL_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "src/checkpoint/checkpoint_meta.h"
#include "src/common/status.h"
#include "src/state/state_backend.h"

namespace sdg::checkpoint {

// Serialises `backend` into `num_chunks` in-memory chunk blobs (streamed
// frames). With `delta` set, emits the dirty records + tombstones of the
// active checkpoint (the caller drives the Begin/End/Resolve protocol);
// otherwise the full contents. The backend must be quiescent or checkpoint-
// frozen for the duration.
Result<std::vector<std::vector<uint8_t>>> SerializeEpochBlobs(
    const state::StateBackend& backend, const std::string& name,
    uint32_t num_chunks, bool delta, uint8_t codec);

inline uint64_t BlobBytes(const std::vector<std::vector<uint8_t>>& chunks) {
  uint64_t bytes = 0;
  for (const auto& c : chunks) bytes += c.size();
  return bytes;
}

class EpochTail {
 public:
  struct Entry {
    uint64_t epoch = 0;
    bool base = false;
    std::vector<std::vector<uint8_t>> chunks;
  };

  // True when the next published epoch must be a full base (DeltaChain's
  // rule over the retained entries).
  bool NeedsBase() const {
    std::lock_guard<std::mutex> lock(mu_);
    return chain_.NeedsBase();
  }

  void PushBase(uint64_t epoch, std::vector<std::vector<uint8_t>> chunks) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    Push(Entry{epoch, /*base=*/true, std::move(chunks)});
  }

  // False when the tail has no base to anchor the delta (the caller should
  // have consulted NeedsBase); the delta is dropped and the next epoch must
  // re-base.
  bool PushDelta(uint64_t epoch, std::vector<std::vector<uint8_t>> chunks) {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.empty()) return false;
    Push(Entry{epoch, /*base=*/false, std::move(chunks)});
    return true;
  }

  // Base + deltas in epoch order, for catching up a fresh subscriber.
  std::vector<Entry> Replay() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {entries_.begin(), entries_.end()};
  }

  // Drops everything (the partition's ownership or delta baseline changed).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    chain_.Clear();
  }

  uint64_t latest_epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.empty() ? 0 : entries_.back().epoch;
  }

 private:
  void Push(Entry entry) {
    chain_.Push({entry.epoch, static_cast<uint32_t>(entry.chunks.size()),
                 entry.base ? EpochKind::kFull : EpochKind::kDelta},
                BlobBytes(entry.chunks));
    entries_.push_back(std::move(entry));
  }

  mutable std::mutex mu_;
  std::deque<Entry> entries_;
  DeltaChain chain_;
};

}  // namespace sdg::checkpoint

#endif  // SDG_CHECKPOINT_EPOCH_TAIL_H_
