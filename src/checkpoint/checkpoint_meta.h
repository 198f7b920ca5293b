// Checkpoint metadata: everything besides SE contents a node needs to resume.
//
// Per §5, a checkpoint records, for every task instance on the node, the
// vector timestamp of the last data item applied from each input dataflow
// (so upstream replay can resume exactly past the snapshot) and the
// instance's emit clock (so re-emitted items carry the same timestamps and
// downstream duplicate detection works).
#ifndef SDG_CHECKPOINT_CHECKPOINT_META_H_
#define SDG_CHECKPOINT_CHECKPOINT_META_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/serialize.h"
#include "src/common/status.h"

namespace sdg::checkpoint {

struct SourceTimestamp {
  uint32_t task = 0;
  uint32_t instance = 0;
  uint64_t ts = 0;
};

struct TaskInstanceMeta {
  uint32_t task = 0;
  uint32_t instance = 0;
  uint64_t emit_clock = 0;
  std::vector<SourceTimestamp> last_seen;
};

// v2 meta frame marker. v1 metas start directly with the epoch u64; epochs
// never reach 0x5344474D, so the first u32 disambiguates the two framings.
inline constexpr uint32_t kMetaMagic = 0x5344474D;  // "SDGM"
inline constexpr uint32_t kMetaVersion2 = 2;

// Whether an epoch's chunks for an SE instance hold the full state or only
// the records changed/erased since the previous epoch.
enum class EpochKind : uint8_t { kFull = 0, kDelta = 1 };

// One epoch of a base+delta chain: where to find an SE instance's chunks and
// how to apply them. Chains are applied strictly in order (base first).
struct ChainLink {
  uint64_t epoch = 0;
  uint32_t num_chunks = 0;
  EpochKind kind = EpochKind::kFull;
};

struct StateInstanceMeta {
  uint32_t state = 0;
  uint32_t instance = 0;
  uint32_t num_chunks = 0;
  uint64_t record_count = 0;
  // v2: this epoch's kind, the epoch of the chain's full base, and the full
  // restore chain ending with this epoch. v1 metas deserialize with a
  // synthesized single-link full chain, so restore code never branches.
  EpochKind kind = EpochKind::kFull;
  uint64_t base_epoch = 0;
  std::vector<ChainLink> chain;
};

// Store name of SE instance (`state`, `instance`)'s chunks. Every writer of
// chained state epochs names them this way, so a meta alone locates each
// link's chunk files.
std::string StateChunkName(uint32_t state, uint32_t instance);

// One SE instance's committed base+delta chain, as its writer tracks it, and
// the one rule that decides when the next epoch re-bases: when there is no
// chain to extend, when it is kMaxLinks long, or when the delta bytes
// retained since the base have reached the base's own bytes (replaying the
// chain would then cost more than a fresh base). The elastic worker's
// durable chains and the replica feed's EpochTail both follow it, so they
// re-base at the same epoch. A writer that knows the record count at the
// cut also re-bases an Outgrown chain before serialising.
class DeltaChain {
 public:
  static constexpr size_t kMaxLinks = 64;

  bool NeedsBase() const {
    return links_.empty() || links_.size() >= kMaxLinks ||
           delta_bytes_ >= base_bytes_;
  }

  // True when state cut at `records` records has grown to twice its base's
  // (or past an empty base): the records added since the base are alone a
  // base's worth of delta, which the byte rule would re-base one epoch
  // later, so this epoch is serialised once, as a base. This is how a load
  // into a partition assigned empty lands: in one base.
  bool Outgrown(uint64_t records) const {
    return records > 0 && records >= 2 * base_records_;
  }

  // Appends a committed epoch of `bytes` serialised bytes; a full link
  // starts a new chain, cut at `records` records (Outgrown's reference).
  void Push(const ChainLink& link, uint64_t bytes, uint64_t records = 0) {
    if (link.kind == EpochKind::kFull) {
      links_.clear();
      base_bytes_ = bytes;
      base_records_ = records;
      delta_bytes_ = 0;
    } else {
      delta_bytes_ += bytes;
    }
    links_.push_back(link);
  }

  void Clear() {
    links_.clear();
    base_bytes_ = 0;
    base_records_ = 0;
    delta_bytes_ = 0;
  }

  bool empty() const { return links_.empty(); }
  const std::vector<ChainLink>& links() const { return links_; }

 private:
  std::vector<ChainLink> links_;
  uint64_t base_bytes_ = 0;
  uint64_t base_records_ = 0;
  uint64_t delta_bytes_ = 0;
};

struct CheckpointMeta {
  uint64_t epoch = 0;
  std::vector<TaskInstanceMeta> tasks;
  std::vector<StateInstanceMeta> states;

  // Earliest epoch any state's chain reaches back to; pruning below this
  // would break restore. Equals `epoch` when every state is a full base.
  uint64_t MinChainEpoch() const;

  void Serialize(BinaryWriter& w) const;
  static Result<CheckpointMeta> Deserialize(BinaryReader& r);
  std::vector<uint8_t> ToBytes() const;
  static Result<CheckpointMeta> FromBytes(const std::vector<uint8_t>& bytes);
};

}  // namespace sdg::checkpoint

#endif  // SDG_CHECKPOINT_CHECKPOINT_META_H_
