// ChunkStreamWriter: the one way a state epoch becomes checkpoint chunks.
//
// The writer frames records into fixed-size segments as SerializeRecords
// produces them and hands each full segment on — to the BackupStore
// streaming API (durable checkpoints: the runtime's node checkpoints and the
// elastic worker's epochs), or to a segment sink (live migration, replica
// feed blobs). Serialisation overlaps backup I/O under the store's bounded
// backlog budget, so no full serialised copy of the state is ever held in
// memory. WriteEpoch drives one epoch through a writer.
//
// Streamed chunks carry a kStreamedRecordCount header (the exact count is
// unknown until the stream closes); readers walk the body to the end, and
// checkpoint completeness is still guaranteed by the epoch meta record being
// written last.
//
// With Options::concurrent set, Add is thread-safe: each chunk owns a
// mutex, so per-shard serialize tasks running on a thread pool can feed the
// same writer concurrently (serial callers skip the per-record lock). Record
// order within a chunk is not semantically meaningful — full chunks are
// keyed records restored into a map, delta chunks contain each key at most
// once per epoch, and the prefix-dedup codec is an order-agnostic
// prev-record context on both sides — so any interleaving produces a valid
// (byte-different, state-identical) chunk.
#ifndef SDG_CHECKPOINT_CHUNK_STREAM_H_
#define SDG_CHECKPOINT_CHUNK_STREAM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/checkpoint/backup_store.h"
#include "src/state/chunk.h"
#include "src/state/state_backend.h"

namespace sdg::checkpoint {

class ChunkStreamWriter {
 public:
  struct Options {
    uint32_t num_chunks = 1;
    uint8_t codec = 0;   // state::kChunkCodec*
    bool delta = false;  // emit a delta chunk (tombstones allowed)
    // Segment handed to the backup store once a chunk's buffer reaches this
    // size. Small enough to keep the pipeline busy, large enough to amortise
    // the per-append queue hop.
    size_t segment_bytes = 256 * 1024;
    // Whether Add may be called from multiple threads (the per-shard
    // serialize fan-out). Serial callers keep this false and skip the
    // per-record chunk mutex.
    bool concurrent = false;
  };

  struct Stats {
    uint64_t records = 0;
    uint64_t tombstones = 0;
    uint64_t bytes = 0;  // framed bytes across all chunks, headers included
  };

  ChunkStreamWriter(BackupStore& store, uint32_t node, uint64_t epoch,
                    std::string name, Options options);

  // Remote-sink mode: full segments go to `sink(chunk_index, segment)`
  // instead of the backup store — the live-migration path streams them as
  // kMigrateChunk frames while the source keeps serving. Segments of one
  // chunk_index concatenate (in emission order) into a valid streamed chunk
  // blob; a sink error is latched and surfaced by Finish.
  using SegmentSink =
      std::function<Status(uint32_t chunk_index, std::vector<uint8_t> segment)>;
  ChunkStreamWriter(SegmentSink sink, std::string name, Options options);

  // Opens the per-chunk streams and writes their headers. Must be called
  // (and succeed) before Add. Not thread-safe (call before fanning out).
  Status Begin();

  // Routes one record to its chunk (key_hash % num_chunks) and flushes the
  // chunk's segment when full. Thread-safe when Options::concurrent is set.
  // Errors are latched and surfaced by Finish — the record sinks of the
  // state backends cannot fail mid-iteration.
  void Add(uint64_t key_hash, const uint8_t* payload, size_t size,
           bool tombstone);

  state::RecordSink AsSink();
  state::DeltaRecordSink AsDeltaSink();

  // Flushes the tail segments and closes every stream. Not thread-safe (call
  // after the fan-out has joined).
  Result<Stats> Finish();

  const Options& options() const { return options_; }

 private:
  struct PerChunk {
    std::mutex mutex;
    uint64_t stream_id = 0;
    std::vector<uint8_t> buffer;
    std::vector<uint8_t> prev_payload;  // prefix-dedup context
    // Chunk-local stats, summed by Finish — no shared counters on the path.
    uint64_t records = 0;
    uint64_t tombstones = 0;
    uint64_t bytes = 0;
  };

  // Caller holds chunk.mutex.
  void FlushChunkLocked(PerChunk& chunk, uint32_t chunk_index);
  void LatchError(const Status& s);

  BackupStore* store_ = nullptr;  // null in remote-sink mode
  SegmentSink sink_;              // null in store mode
  uint32_t node_ = 0;
  uint64_t epoch_ = 0;
  std::string name_;
  Options options_;
  state::ChunkOptions chunk_options_;
  std::vector<std::unique_ptr<PerChunk>> chunks_;
  std::atomic<bool> has_error_{false};
  std::mutex error_mutex_;
  Status error_;
  bool begun_ = false;
};

// Runs `n` tasks, fn(0) .. fn(n - 1), and returns once all have finished.
using ParallelFor =
    std::function<void(size_t n, const std::function<void(size_t)>& fn)>;

// Writes one epoch of `backend` through `writer`: Begin, then the dirty
// records and tombstones of the active checkpoint when the writer was opened
// with Options::delta (the caller drives BeginCheckpoint/ResolveEpoch and
// checks DeltaReady), the full contents otherwise, then Finish. With
// `parallel_for` the records are emitted per serialisation shard, one task
// per shard, which needs a concurrent writer. The backend must be quiescent
// or checkpoint-frozen for the duration.
Result<ChunkStreamWriter::Stats> WriteEpoch(
    ChunkStreamWriter& writer, const state::StateBackend& backend,
    const ParallelFor& parallel_for = nullptr);

// WriteEpoch's inverse over a whole chain: restores SE instance `sm` of
// `node` from `store` into `backend`, base first, each link's chunks in
// order (BackupStore::ReadChain).
Status RestoreChain(BackupStore& store, uint32_t node,
                    const StateInstanceMeta& sm, state::StateBackend& backend);

}  // namespace sdg::checkpoint

#endif  // SDG_CHECKPOINT_CHUNK_STREAM_H_
