#include "src/checkpoint/checkpoint_meta.h"

namespace sdg::checkpoint {

std::string StateChunkName(uint32_t state, uint32_t instance) {
  return "se" + std::to_string(state) + "_" + std::to_string(instance);
}

uint64_t CheckpointMeta::MinChainEpoch() const {
  uint64_t min_epoch = epoch;
  for (const auto& s : states) {
    for (const auto& link : s.chain) {
      min_epoch = std::min(min_epoch, link.epoch);
    }
  }
  return min_epoch;
}

void CheckpointMeta::Serialize(BinaryWriter& w) const {
  w.Write<uint32_t>(kMetaMagic);
  w.Write<uint32_t>(kMetaVersion2);
  w.Write<uint64_t>(epoch);
  w.Write<uint32_t>(static_cast<uint32_t>(tasks.size()));
  for (const auto& t : tasks) {
    w.Write<uint32_t>(t.task);
    w.Write<uint32_t>(t.instance);
    w.Write<uint64_t>(t.emit_clock);
    w.Write<uint32_t>(static_cast<uint32_t>(t.last_seen.size()));
    for (const auto& s : t.last_seen) {
      w.Write<uint32_t>(s.task);
      w.Write<uint32_t>(s.instance);
      w.Write<uint64_t>(s.ts);
    }
  }
  w.Write<uint32_t>(static_cast<uint32_t>(states.size()));
  for (const auto& s : states) {
    w.Write<uint32_t>(s.state);
    w.Write<uint32_t>(s.instance);
    w.Write<uint32_t>(s.num_chunks);
    w.Write<uint64_t>(s.record_count);
    w.Write<uint8_t>(static_cast<uint8_t>(s.kind));
    w.Write<uint64_t>(s.base_epoch);
    w.Write<uint32_t>(static_cast<uint32_t>(s.chain.size()));
    for (const auto& link : s.chain) {
      w.Write<uint64_t>(link.epoch);
      w.Write<uint32_t>(link.num_chunks);
      w.Write<uint8_t>(static_cast<uint8_t>(link.kind));
    }
  }
}

Result<CheckpointMeta> CheckpointMeta::Deserialize(BinaryReader& r) {
  CheckpointMeta m;
  uint32_t version = 1;
  SDG_ASSIGN_OR_RETURN(uint32_t head, r.Read<uint32_t>());
  if (head == kMetaMagic) {
    SDG_ASSIGN_OR_RETURN(version, r.Read<uint32_t>());
    if (version != kMetaVersion2) {
      return Status(StatusCode::kDataLoss, "unsupported meta version");
    }
    SDG_ASSIGN_OR_RETURN(m.epoch, r.Read<uint64_t>());
  } else {
    // v1: no magic, the first u64 is the epoch whose low half we just read.
    SDG_ASSIGN_OR_RETURN(uint32_t high, r.Read<uint32_t>());
    m.epoch = (static_cast<uint64_t>(high) << 32) | head;
  }
  SDG_ASSIGN_OR_RETURN(uint32_t num_tasks, r.Read<uint32_t>());
  m.tasks.reserve(std::min<size_t>(num_tasks, r.remaining()));
  for (uint32_t i = 0; i < num_tasks; ++i) {
    TaskInstanceMeta t;
    SDG_ASSIGN_OR_RETURN(t.task, r.Read<uint32_t>());
    SDG_ASSIGN_OR_RETURN(t.instance, r.Read<uint32_t>());
    SDG_ASSIGN_OR_RETURN(t.emit_clock, r.Read<uint64_t>());
    SDG_ASSIGN_OR_RETURN(uint32_t num_seen, r.Read<uint32_t>());
    t.last_seen.reserve(std::min<size_t>(num_seen, r.remaining()));
    for (uint32_t j = 0; j < num_seen; ++j) {
      SourceTimestamp s;
      SDG_ASSIGN_OR_RETURN(s.task, r.Read<uint32_t>());
      SDG_ASSIGN_OR_RETURN(s.instance, r.Read<uint32_t>());
      SDG_ASSIGN_OR_RETURN(s.ts, r.Read<uint64_t>());
      t.last_seen.push_back(s);
    }
    m.tasks.push_back(std::move(t));
  }
  SDG_ASSIGN_OR_RETURN(uint32_t num_states, r.Read<uint32_t>());
  m.states.reserve(std::min<size_t>(num_states, r.remaining()));
  for (uint32_t i = 0; i < num_states; ++i) {
    StateInstanceMeta s;
    SDG_ASSIGN_OR_RETURN(s.state, r.Read<uint32_t>());
    SDG_ASSIGN_OR_RETURN(s.instance, r.Read<uint32_t>());
    SDG_ASSIGN_OR_RETURN(s.num_chunks, r.Read<uint32_t>());
    SDG_ASSIGN_OR_RETURN(s.record_count, r.Read<uint64_t>());
    if (version >= kMetaVersion2) {
      SDG_ASSIGN_OR_RETURN(uint8_t kind, r.Read<uint8_t>());
      if (kind > static_cast<uint8_t>(EpochKind::kDelta)) {
        return Status(StatusCode::kDataLoss, "bad epoch kind in meta");
      }
      s.kind = static_cast<EpochKind>(kind);
      SDG_ASSIGN_OR_RETURN(s.base_epoch, r.Read<uint64_t>());
      SDG_ASSIGN_OR_RETURN(uint32_t chain_len, r.Read<uint32_t>());
      s.chain.reserve(std::min<size_t>(chain_len, r.remaining()));
      for (uint32_t j = 0; j < chain_len; ++j) {
        ChainLink link;
        SDG_ASSIGN_OR_RETURN(link.epoch, r.Read<uint64_t>());
        SDG_ASSIGN_OR_RETURN(link.num_chunks, r.Read<uint32_t>());
        SDG_ASSIGN_OR_RETURN(uint8_t link_kind, r.Read<uint8_t>());
        if (link_kind > static_cast<uint8_t>(EpochKind::kDelta)) {
          return Status(StatusCode::kDataLoss, "bad epoch kind in chain");
        }
        link.kind = static_cast<EpochKind>(link_kind);
        s.chain.push_back(link);
      }
    }
    if (s.chain.empty()) {
      // v1 meta (or a v2 writer that skipped the chain): one full link.
      s.kind = EpochKind::kFull;
      s.base_epoch = m.epoch;
      s.chain.push_back({m.epoch, s.num_chunks, EpochKind::kFull});
    }
    m.states.push_back(std::move(s));
  }
  return m;
}

std::vector<uint8_t> CheckpointMeta::ToBytes() const {
  BinaryWriter w;
  Serialize(w);
  return std::move(w).TakeBuffer();
}

Result<CheckpointMeta> CheckpointMeta::FromBytes(const std::vector<uint8_t>& bytes) {
  BinaryReader r(bytes);
  return Deserialize(r);
}

}  // namespace sdg::checkpoint
