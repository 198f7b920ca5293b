#include "src/state/chunk.h"

#include <cstring>

#include "src/common/serialize.h"
#include "src/state/codec.h"

namespace sdg::state {

std::vector<uint8_t> BuildChunkHeader(const ChunkOptions& options,
                                      std::string_view se_name,
                                      uint64_t record_count) {
  BinaryWriter w;
  w.Write<uint32_t>(kChunkMagic);
  w.Write<uint32_t>(kChunkVersion);
  w.WriteString(se_name);
  w.Write<uint64_t>(record_count);
  w.Write<uint8_t>(options.codec);
  w.Write<uint8_t>(options.delta ? kChunkFlagDelta : 0);
  return std::move(w).TakeBuffer();
}

void AppendRecordFrame(const ChunkOptions& options, uint64_t key_hash,
                       const uint8_t* payload, size_t size, bool tombstone,
                       std::vector<uint8_t>& out,
                       std::vector<uint8_t>& prev_payload) {
  size_t offset = out.size();
  out.resize(offset + sizeof(uint64_t) + 1);
  std::memcpy(out.data() + offset, &key_hash, sizeof(uint64_t));
  out[offset + sizeof(uint64_t)] = tombstone ? kRecordFlagTombstone : 0;
  AppendVarint(out, size);
  if (options.codec == kChunkCodecPrefix) {
    size_t prefix = 0;
    size_t limit = std::min(size, prev_payload.size());
    while (prefix < limit && payload[prefix] == prev_payload[prefix]) {
      ++prefix;
    }
    AppendVarint(out, prefix);
    out.insert(out.end(), payload + prefix, payload + size);
    prev_payload.assign(payload, payload + size);
  } else {
    out.insert(out.end(), payload, payload + size);
  }
}

ChunkBuilder::ChunkBuilder(std::string se_name, ChunkOptions options)
    : se_name_(std::move(se_name)), options_(options) {}

void ChunkBuilder::AddRecord(uint64_t key_hash, const uint8_t* payload,
                             size_t size) {
  // Hot path (every state record of every checkpoint): frame the record
  // in-place, no temporary buffers.
  AppendRecordFrame(options_, key_hash, payload, size, /*tombstone=*/false,
                    body_, prev_payload_);
  ++record_count_;
}

void ChunkBuilder::AddTombstone(uint64_t key_hash, const uint8_t* payload,
                                size_t size) {
  AppendRecordFrame(options_, key_hash, payload, size, /*tombstone=*/true,
                    body_, prev_payload_);
  ++record_count_;
}

RecordSink ChunkBuilder::AsSink() {
  return [this](uint64_t key_hash, const uint8_t* payload, size_t size) {
    AddRecord(key_hash, payload, size);
  };
}

size_t ChunkBuilder::size_bytes() const { return body_.size(); }

std::vector<uint8_t> ChunkBuilder::Finish() && {
  std::vector<uint8_t> out = BuildChunkHeader(options_, se_name_, record_count_);
  out.insert(out.end(), body_.begin(), body_.end());
  return out;
}

Result<ChunkReader> ChunkReader::Open(const std::vector<uint8_t>& chunk) {
  BinaryReader r(chunk);
  SDG_ASSIGN_OR_RETURN(uint32_t magic, r.Read<uint32_t>());
  if (magic != kChunkMagic) {
    return Status(StatusCode::kDataLoss, "bad chunk magic");
  }
  SDG_ASSIGN_OR_RETURN(uint32_t version, r.Read<uint32_t>());
  if (version != kChunkVersion) {
    return Status(StatusCode::kDataLoss, "unsupported chunk version");
  }
  SDG_ASSIGN_OR_RETURN(std::string se_name, r.ReadString());
  SDG_ASSIGN_OR_RETURN(uint64_t record_count, r.Read<uint64_t>());
  ChunkOptions options;
  SDG_ASSIGN_OR_RETURN(options.codec, r.Read<uint8_t>());
  if (!ChunkCodecKnown(options.codec)) {
    return Status(StatusCode::kDataLoss, "unknown chunk codec");
  }
  SDG_ASSIGN_OR_RETURN(uint8_t flags, r.Read<uint8_t>());
  options.delta = (flags & kChunkFlagDelta) != 0;
  return ChunkReader(std::move(se_name), record_count, options,
                     chunk.data() + r.position(), chunk.size() - r.position());
}

Status ChunkReader::ForEach(const ChunkRecordFn& fn) const {
  BinaryReader r(body_, body_size_);
  // Iterate by count, or to the end of the body for streamed chunks.
  std::vector<uint8_t> scratch;  // materialised payload (prefix codec)
  uint64_t seen = 0;
  while (record_count_ == kStreamedRecordCount ? !r.AtEnd()
                                               : seen < record_count_) {
    SDG_ASSIGN_OR_RETURN(uint64_t key_hash, r.Read<uint64_t>());
    SDG_ASSIGN_OR_RETURN(uint8_t flags, r.Read<uint8_t>());
    SDG_ASSIGN_OR_RETURN(uint64_t len, ReadVarint(r));
    const bool tombstone = (flags & kRecordFlagTombstone) != 0;
    if (options_.codec == kChunkCodecPrefix) {
      SDG_ASSIGN_OR_RETURN(uint64_t prefix, ReadVarint(r));
      if (prefix > len || prefix > scratch.size()) {
        return Status(StatusCode::kDataLoss, "bad prefix-dedup length");
      }
      const uint64_t suffix = len - prefix;
      if (r.remaining() < suffix) {
        return Status(StatusCode::kDataLoss, "truncated chunk record");
      }
      scratch.resize(len);
      std::memcpy(scratch.data() + prefix, body_ + r.position(), suffix);
      SDG_RETURN_IF_ERROR(r.Skip(suffix));
      fn({key_hash, scratch.data(), len, tombstone});
    } else {
      if (r.remaining() < len) {
        return Status(StatusCode::kDataLoss, "truncated chunk record");
      }
      fn({key_hash, body_ + r.position(), len, tombstone});
      SDG_RETURN_IF_ERROR(r.Skip(len));
    }
    ++seen;
  }
  return Status::Ok();
}

Result<std::vector<std::vector<uint8_t>>> SplitChunk(
    const std::vector<uint8_t>& chunk, uint32_t n) {
  SDG_ASSIGN_OR_RETURN(ChunkReader reader, ChunkReader::Open(chunk));
  std::vector<ChunkBuilder> builders;
  builders.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    builders.emplace_back(reader.se_name(), reader.options());
  }
  SDG_RETURN_IF_ERROR(reader.ForEach([&](const ChunkRecordView& rec) {
    ChunkBuilder& b = builders[rec.key_hash % n];
    if (rec.tombstone) {
      b.AddTombstone(rec.key_hash, rec.payload, rec.size);
    } else {
      b.AddRecord(rec.key_hash, rec.payload, rec.size);
    }
  }));
  std::vector<std::vector<uint8_t>> out;
  out.reserve(n);
  for (auto& b : builders) {
    out.push_back(std::move(b).Finish());
  }
  return out;
}

Result<std::vector<uint8_t>> FilterChunk(const std::vector<uint8_t>& chunk,
                                         uint32_t part, uint32_t num_parts) {
  SDG_ASSIGN_OR_RETURN(ChunkReader reader, ChunkReader::Open(chunk));
  ChunkBuilder builder(reader.se_name(), reader.options());
  SDG_RETURN_IF_ERROR(reader.ForEach([&](const ChunkRecordView& rec) {
    if (rec.key_hash % num_parts != part) {
      return;
    }
    if (rec.tombstone) {
      builder.AddTombstone(rec.key_hash, rec.payload, rec.size);
    } else {
      builder.AddRecord(rec.key_hash, rec.payload, rec.size);
    }
  }));
  return std::move(builder).Finish();
}

Status RestoreChunk(StateBackend& backend, const std::vector<uint8_t>& chunk) {
  SDG_ASSIGN_OR_RETURN(ChunkReader reader, ChunkReader::Open(chunk));
  Status status;
  SDG_RETURN_IF_ERROR(reader.ForEach([&](const ChunkRecordView& rec) {
    if (!status.ok()) {
      return;
    }
    status = rec.tombstone ? backend.RestoreErase(rec.payload, rec.size)
                           : backend.RestoreRecord(rec.payload, rec.size);
  }));
  return status;
}

}  // namespace sdg::state
