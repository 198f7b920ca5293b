// EpochTail: the delta-checkpoint fan-out buffer feeding read replicas.
//
// The worker already cuts checkpoint epochs (full bases or dirty-record
// deltas) for durability; the serve path re-uses the same serialized bytes
// as a replication stream. Per partition, the tail retains the latest base
// epoch plus every delta cut since it, so that
//
//   - a live subscriber receives each epoch once, in order, and
//   - a (re)connecting subscriber replays base + deltas and is caught up
//     without the owner re-serializing anything.
//
// When the retained delta run grows past `max_deltas` the tail asks the
// publisher (NeedsBase) to cut the next epoch as a full base, bounding both
// replay length and memory. SerializeEpochBlobs turns a quiesced backend
// into the chunk blobs the tail stores — the same streamed chunk frames the
// migration path ships, assembled in memory instead of written to the
// backup store.
#ifndef SDG_CHECKPOINT_EPOCH_TAIL_H_
#define SDG_CHECKPOINT_EPOCH_TAIL_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

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

class EpochTail {
 public:
  struct Entry {
    uint64_t epoch = 0;
    bool base = false;
    std::vector<std::vector<uint8_t>> chunks;
  };

  explicit EpochTail(size_t max_deltas = 8) : max_deltas_(max_deltas) {}

  // True when the next published epoch must be a full base: nothing retained
  // yet, or the delta run since the last base is at its cap.
  bool NeedsBase() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.empty() || deltas_ >= max_deltas_;
  }

  void PushBase(uint64_t epoch, std::vector<std::vector<uint8_t>> chunks) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    deltas_ = 0;
    entries_.push_back(Entry{epoch, /*base=*/true, std::move(chunks)});
  }

  // False when the tail has no base to anchor the delta (the caller should
  // have consulted NeedsBase); the delta is dropped and the next epoch must
  // re-base.
  bool PushDelta(uint64_t epoch, std::vector<std::vector<uint8_t>> chunks) {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.empty()) return false;
    ++deltas_;
    entries_.push_back(Entry{epoch, /*base=*/false, std::move(chunks)});
    return true;
  }

  // Base + deltas in epoch order, for catching up a fresh subscriber.
  std::vector<Entry> Replay() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {entries_.begin(), entries_.end()};
  }

  // Drops everything (partition migrated away).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    deltas_ = 0;
  }

  uint64_t latest_epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.empty() ? 0 : entries_.back().epoch;
  }

 private:
  mutable std::mutex mu_;
  const size_t max_deltas_;
  std::deque<Entry> entries_;
  size_t deltas_ = 0;
};

}  // namespace sdg::checkpoint

#endif  // SDG_CHECKPOINT_EPOCH_TAIL_H_
