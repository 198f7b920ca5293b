#include "src/checkpoint/chunk_stream.h"

#include <utility>

#include "src/common/logging.h"
#include "src/state/codec.h"

namespace sdg::checkpoint {

ChunkStreamWriter::ChunkStreamWriter(BackupStore& store, uint32_t node,
                                     uint64_t epoch, std::string name,
                                     Options options)
    : store_(&store),
      node_(node),
      epoch_(epoch),
      name_(std::move(name)),
      options_(options) {
  SDG_CHECK(options_.num_chunks > 0) << "chunk stream needs >= 1 chunk";
  SDG_CHECK(options_.segment_bytes > 0) << "chunk stream needs a segment size";
  chunk_options_.codec = options_.codec;
  chunk_options_.delta = options_.delta;
}

ChunkStreamWriter::ChunkStreamWriter(SegmentSink sink, std::string name,
                                     Options options)
    : sink_(std::move(sink)), name_(std::move(name)), options_(options) {
  SDG_CHECK(sink_) << "chunk stream sink mode needs a sink";
  SDG_CHECK(options_.num_chunks > 0) << "chunk stream needs >= 1 chunk";
  SDG_CHECK(options_.segment_bytes > 0) << "chunk stream needs a segment size";
  chunk_options_.codec = options_.codec;
  chunk_options_.delta = options_.delta;
}

Status ChunkStreamWriter::Begin() {
  SDG_CHECK(!begun_) << "chunk stream writer already begun";
  begun_ = true;
  chunks_.reserve(options_.num_chunks);
  for (uint32_t i = 0; i < options_.num_chunks; ++i) {
    chunks_.push_back(std::make_unique<PerChunk>());
    PerChunk& chunk = *chunks_.back();
    if (store_ != nullptr) {
      SDG_ASSIGN_OR_RETURN(chunk.stream_id,
                           store_->BeginChunkStream(node_, epoch_, name_, i));
    }
    chunk.buffer = state::BuildChunkHeader(chunk_options_, name_,
                                           state::kStreamedRecordCount);
    chunk.bytes += chunk.buffer.size();
    chunk.buffer.reserve(options_.segment_bytes + 1024);
  }
  return Status::Ok();
}

void ChunkStreamWriter::Add(uint64_t key_hash, const uint8_t* payload,
                            size_t size, bool tombstone) {
  if (has_error_.load(std::memory_order_relaxed)) {
    return;
  }
  uint32_t chunk_index = static_cast<uint32_t>(key_hash % options_.num_chunks);
  PerChunk& chunk = *chunks_[chunk_index];
  std::unique_lock<std::mutex> lock(chunk.mutex, std::defer_lock);
  if (options_.concurrent) {
    lock.lock();
  }
  size_t before = chunk.buffer.size();
  state::AppendRecordFrame(chunk_options_, key_hash, payload, size, tombstone,
                           chunk.buffer, chunk.prev_payload);
  chunk.bytes += chunk.buffer.size() - before;
  ++chunk.records;
  if (tombstone) {
    ++chunk.tombstones;
  }
  if (chunk.buffer.size() >= options_.segment_bytes) {
    FlushChunkLocked(chunk, chunk_index);
  }
}

void ChunkStreamWriter::FlushChunkLocked(PerChunk& chunk,
                                         uint32_t chunk_index) {
  if (chunk.buffer.empty()) {
    return;
  }
  std::vector<uint8_t> segment = std::move(chunk.buffer);
  chunk.buffer.clear();
  chunk.buffer.reserve(options_.segment_bytes + 1024);
  // AppendChunkStream (and a well-behaved sink) is thread-safe and may block
  // on its backlog budget; holding this chunk's mutex only stalls records
  // routed to the same chunk, the rest of the fan-out keeps serialising.
  Status s = store_ != nullptr
                 ? store_->AppendChunkStream(chunk.stream_id,
                                             std::move(segment))
                 : sink_(chunk_index, std::move(segment));
  if (!s.ok()) {
    LatchError(s);
  }
}

void ChunkStreamWriter::LatchError(const Status& s) {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (error_.ok()) {
    error_ = s;
    has_error_.store(true, std::memory_order_relaxed);
  }
}

state::RecordSink ChunkStreamWriter::AsSink() {
  return [this](uint64_t key_hash, const uint8_t* payload, size_t size) {
    Add(key_hash, payload, size, /*tombstone=*/false);
  };
}

state::DeltaRecordSink ChunkStreamWriter::AsDeltaSink() {
  return [this](uint64_t key_hash, const uint8_t* payload, size_t size,
                bool tombstone) { Add(key_hash, payload, size, tombstone); };
}

Result<ChunkStreamWriter::Stats> ChunkStreamWriter::Finish() {
  SDG_CHECK(begun_) << "Finish before Begin on chunk stream writer";
  Stats stats;
  for (uint32_t i = 0; i < chunks_.size(); ++i) {
    PerChunk& chunk = *chunks_[i];
    std::lock_guard<std::mutex> lock(chunk.mutex);
    FlushChunkLocked(chunk, i);
    stats.records += chunk.records;
    stats.tombstones += chunk.tombstones;
    stats.bytes += chunk.bytes;
  }
  // Close every stream even after an error so no stream handles leak.
  if (store_ != nullptr) {
    for (auto& chunk : chunks_) {
      Status s = store_->FinishChunkStream(chunk->stream_id);
      if (!s.ok()) {
        LatchError(s);
      }
    }
  }
  if (has_error_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    return error_;
  }
  return stats;
}

Result<ChunkStreamWriter::Stats> WriteEpoch(
    ChunkStreamWriter& writer, const state::StateBackend& backend,
    const ParallelFor& parallel_for) {
  const bool delta = writer.options().delta;
  SDG_RETURN_IF_ERROR(writer.Begin());
  if (parallel_for) {
    SDG_CHECK(writer.options().concurrent)
        << "a per-shard fan-out needs a concurrent chunk stream writer";
    auto sink = writer.AsSink();
    auto delta_sink = writer.AsDeltaSink();
    parallel_for(backend.SerializeShardCount(), [&](size_t s) {
      const auto shard = static_cast<uint32_t>(s);
      if (delta) {
        backend.SerializeShardDirtyRecords(shard, delta_sink);
      } else {
        backend.SerializeShardRecords(shard, sink);
      }
    });
  } else if (delta) {
    backend.SerializeDirtyRecords(writer.AsDeltaSink());
  } else {
    backend.SerializeRecords(writer.AsSink());
  }
  return writer.Finish();
}

Status RestoreChain(BackupStore& store, uint32_t node,
                    const StateInstanceMeta& sm, state::StateBackend& backend) {
  return store.ReadChain(
      node, sm,
      [&backend](std::vector<std::vector<uint8_t>> chunks) -> Status {
        for (const auto& chunk : chunks) {
          SDG_RETURN_IF_ERROR(state::RestoreChunk(backend, chunk));
        }
        return Status::Ok();
      });
}

}  // namespace sdg::checkpoint
