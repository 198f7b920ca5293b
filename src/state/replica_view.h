// ReplicaView: a read-only partial-state replica of one partition (§3.2).
//
// The owning worker publishes its state as checkpoint-epoch events: an
// *announce* per epoch (a few bytes — it advances the owner's epoch
// watermark), then the epoch's chunk blobs as a *base* (full contents) or a
// *delta* (dirty records + tombstones over the previous epoch). A live view
// receives a delta every epoch, even when the owner's durable chain
// re-bases; a base arrives only when the partition's owner or delta
// baseline changes, or in the tail replay of a (re)subscribe. The view
// applies those events to a private StateBackend and tracks two watermarks:
//
//   applied_epoch    — the last epoch folded into the backend
//   announced_epoch  — the last epoch the owner announced cutting
//
// A bounded-stale read is admissible iff the replica has a valid base from
// the current owner and (announced - applied) <= the caller's max lag: the
// staleness bound is measured in checkpoint epochs against the owner's own
// watermark, so a replica that has stopped receiving blobs (wedged feed,
// mid-migration owner change) fails the bound instead of serving arbitrarily
// old data. Ownership changes force re-basing: delta events from a member
// other than the one that applied the base are rejected, and reads are
// refused until the new owner's base lands.
#ifndef SDG_STATE_REPLICA_VIEW_H_
#define SDG_STATE_REPLICA_VIEW_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/state/chunk.h"
#include "src/state/state_backend.h"

namespace sdg::state {

class ReplicaView {
 public:
  explicit ReplicaView(std::unique_ptr<StateBackend> backend)
      : backend_(std::move(backend)) {}

  // Owner watermark: epoch `epoch` exists at `member`. Monotonic per member;
  // an owner change moves the announce watermark to the new member (reads
  // fail the freshness check until its base arrives).
  void Announce(uint32_t member, uint64_t epoch) {
    std::unique_lock lock(mu_);
    if (member != announced_member_) {
      announced_member_ = member;
      announced_epoch_ = epoch;
      return;
    }
    if (epoch > announced_epoch_) announced_epoch_ = epoch;
  }

  // Replaces the replica contents with a full base of `epoch`.
  Status ApplyBase(uint32_t member, uint64_t epoch,
                   const std::vector<std::vector<uint8_t>>& chunks) {
    std::unique_lock lock(mu_);
    backend_->Clear();
    for (const auto& c : chunks) {
      SDG_RETURN_IF_ERROR(RestoreChunk(*backend_, c));
    }
    valid_ = true;
    member_ = member;
    applied_epoch_ = epoch;
    if (announced_member_ != member || announced_epoch_ < epoch) {
      announced_member_ = member;
      announced_epoch_ = epoch;
    }
    return Status::Ok();
  }

  // Applies a delta of `epoch` over the applied base. Rejected unless it
  // comes from the member whose base is applied and moves the epoch forward
  // — the publisher recovers by sending a fresh base.
  Status ApplyDelta(uint32_t member, uint64_t epoch,
                    const std::vector<std::vector<uint8_t>>& chunks) {
    std::unique_lock lock(mu_);
    if (!valid_ || member != member_) {
      return FailedPreconditionError("replica delta without matching base");
    }
    if (epoch <= applied_epoch_) {
      return Status::Ok();  // duplicate replay after reconnect
    }
    for (const auto& c : chunks) {
      SDG_RETURN_IF_ERROR(RestoreChunk(*backend_, c));
    }
    applied_epoch_ = epoch;
    if (announced_member_ != member || announced_epoch_ < epoch) {
      announced_member_ = member;
      announced_epoch_ = epoch;
    }
    return Status::Ok();
  }

  // Drops the replica contents (e.g. the feed reported an invalid stream).
  void Invalidate() {
    std::unique_lock lock(mu_);
    valid_ = false;
  }

  bool valid() const {
    std::shared_lock lock(mu_);
    return valid_;
  }
  uint64_t applied_epoch() const {
    std::shared_lock lock(mu_);
    return applied_epoch_;
  }
  uint64_t announced_epoch() const {
    std::shared_lock lock(mu_);
    return announced_epoch_;
  }

  // Runs `fn(backend, applied_epoch)` under the read lock iff the replica is
  // fresh within `max_lag` epochs of the owner's announce watermark. Returns
  // false (without calling fn) when the bound fails — the caller falls back
  // to the strong read path.
  template <typename Fn>
  bool ReadWithin(uint64_t max_lag, Fn&& fn) const {
    std::shared_lock lock(mu_);
    if (!valid_ || announced_member_ != member_) return false;
    if (announced_epoch_ - applied_epoch_ > max_lag) return false;
    fn(static_cast<const StateBackend&>(*backend_), applied_epoch_);
    return true;
  }

 private:
  mutable std::shared_mutex mu_;
  std::unique_ptr<StateBackend> backend_;
  bool valid_ = false;
  uint32_t member_ = 0;            // owner whose base is applied
  uint64_t applied_epoch_ = 0;
  uint32_t announced_member_ = 0;  // owner per the announce watermark
  uint64_t announced_epoch_ = 0;
};

}  // namespace sdg::state

#endif  // SDG_STATE_REPLICA_VIEW_H_
