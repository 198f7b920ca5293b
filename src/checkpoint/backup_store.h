// BackupStore: the distributed checkpoint storage of §5 (Fig. 4).
//
// Checkpoint chunks are streamed round-robin to m backup "nodes" — here,
// m directories on disk, each with an optional bandwidth throttle so benches
// can reproduce the paper's disk-bound regime. A thread pool serialises and
// writes chunks in parallel (step B2); restore reads the chunks of an SE
// instance from all m directories in parallel and hands them to the caller,
// which splits them across n recovering instances (steps R1/R2).
#ifndef SDG_CHECKPOINT_BACKUP_STORE_H_
#define SDG_CHECKPOINT_BACKUP_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/checkpoint/checkpoint_meta.h"

namespace sdg::checkpoint {

struct BackupStoreOptions {
  std::filesystem::path root;
  // m: number of simulated backup nodes (directories).
  uint32_t num_backup_nodes = 2;
  // Per-backup-node I/O throughput cap in bytes/second; 0 disables the
  // throttle. Models the paper's per-disk bandwidth.
  uint64_t throttle_bytes_per_sec = 0;
  // Threads serialising/writing chunks in parallel (step B2).
  size_t io_threads = 4;
  // Streaming writes: total bytes of queued-but-unwritten segments across all
  // open chunk streams before AppendChunkStream blocks. This bounds the
  // checkpoint path's memory overhead (the paper's no-2x-RSS property).
  uint64_t max_stream_backlog_bytes = 4 * 1024 * 1024;
  // Test-only fault hook, called around each chunk/meta I/O with the
  // operation ("write_chunk", "read_chunk", "write_meta"), the chunk index
  // (0 for meta), and whether the call is before or after the I/O. A non-OK
  // status makes the store operation fail at exactly that point — chunks
  // already issued are still written, everything later is not — which is how
  // the fault injector simulates "node dies after chunk k is backed up".
  std::function<Status(const char* op, uint32_t index, bool before)> fault_hook;
};

class BackupStore {
 public:
  explicit BackupStore(BackupStoreOptions options);
  ~BackupStore();

  BackupStore(const BackupStore&) = delete;
  BackupStore& operator=(const BackupStore&) = delete;

  // Persists the chunks of one SE instance under (node, epoch, name).
  // Chunk i goes to backup node (i + hash(name)) % m — the hash offset keeps
  // single-chunk blobs (TE output buffers) from all landing on backup 0 —
  // and writes proceed in parallel.
  Status WriteChunks(uint32_t node, uint64_t epoch, const std::string& name,
                     const std::vector<std::vector<uint8_t>>& chunks);

  // --- Streaming chunk writes (pipelined checkpoint path) -------------------
  // A chunk stream appends segments to one chunk file, in order, while the
  // serializer keeps producing — overlapping serialization with backup I/O.
  // Segments are drained by the I/O pool; AppendChunkStream blocks once the
  // total backlog across open streams exceeds max_stream_backlog_bytes.
  // Placement matches WriteChunks, so ReadChunks reads streamed chunks back
  // transparently. The fault hook sees "write_chunk" before at Begin and
  // after at Finish, bracketing the chunk exactly like the batch path.
  Result<uint64_t> BeginChunkStream(uint32_t node, uint64_t epoch,
                                    const std::string& name,
                                    uint32_t chunk_index);
  Status AppendChunkStream(uint64_t stream, std::vector<uint8_t> segment);
  // Drains the stream, closes the file and returns the first error seen on
  // the stream (the partial file is harmless: meta is written last).
  Status FinishChunkStream(uint64_t stream);

  // Reads back all chunks of (node, epoch, name), in chunk order. Chunks are
  // fetched from the m backup directories in parallel.
  Result<std::vector<std::vector<uint8_t>>> ReadChunks(uint32_t node,
                                                       uint64_t epoch,
                                                       const std::string& name,
                                                       uint32_t num_chunks);

  // Persists / retrieves checkpoint metadata for (node, epoch). WriteMeta
  // publishes crash-safely: it writes and fsyncs `<meta>.tmp`, renames it
  // over the final name and fsyncs the meta directory.
  Status WriteMeta(uint32_t node, uint64_t epoch, const CheckpointMeta& meta);
  Result<CheckpointMeta> ReadMeta(uint32_t node, uint64_t epoch);

  // Highest epoch for which a published meta record exists for `node`. A
  // damaged newest meta is not skipped for an older epoch: its epoch may
  // have been acked, and the senders have trimmed their logs up to its
  // watermarks, so replay cannot bring an older epoch up to date. Reading
  // it fails instead, and so does the recovery that needs it.
  Result<uint64_t> LatestEpoch(uint32_t node);

  // Removes every epoch of `node` older than `keep_epoch`, including meta
  // records a crash left unpublished (`.meta.tmp`).
  void PruneBefore(uint32_t node, uint64_t keep_epoch);

  // The one chain-restore loop: reads SE instance `sm`'s base+delta chain
  // link by link, base first, and hands each link's chunks to `apply`
  // before reading the next, so a delta never overtakes the epoch it
  // extends.
  using LinkFn =
      std::function<Status(std::vector<std::vector<uint8_t>> chunks)>;
  Status ReadChain(uint32_t node, const StateInstanceMeta& sm,
                   const LinkFn& apply);

  uint32_t num_backup_nodes() const { return options_.num_backup_nodes; }

 private:
  struct ChunkStreamState {
    std::FILE* file = nullptr;
    uint32_t backup = 0;
    uint32_t chunk_index = 0;
    std::filesystem::path path;
    std::deque<std::vector<uint8_t>> pending;
    bool writer_active = false;  // a pool task is draining this stream
    Status error;
    uint64_t bytes_written = 0;
  };

  // Backup directory for chunk `chunk_index` of SE instance `name`.
  uint32_t PlaceBackup(const std::string& name, uint32_t chunk_index) const;

  std::filesystem::path ChunkPath(uint32_t backup, uint32_t node,
                                  uint64_t epoch, const std::string& name,
                                  uint32_t chunk_index) const;
  std::filesystem::path MetaPath(uint32_t node, uint64_t epoch) const;

  // Writes queued segments of `st` until its queue drains (I/O pool).
  void DrainStream(ChunkStreamState* st);

  // Applies the per-backup-node bandwidth throttle for `bytes` of traffic.
  void Throttle(uint32_t backup, size_t bytes);

  // With `sync`, the data is flushed and fsynced before the file closes.
  Status WriteFile(const std::filesystem::path& path,
                   const std::vector<uint8_t>& bytes, bool sync = false);
  Result<std::vector<uint8_t>> ReadFile(const std::filesystem::path& path);

  BackupStoreOptions options_;
  ThreadPool pool_;
  // Token-bucket state per backup node.
  struct BucketState {
    std::mutex mutex;
    int64_t next_free_ns = 0;
  };
  std::vector<std::unique_ptr<BucketState>> buckets_;

  // Streaming state: all guarded by streams_mutex_ except ChunkStreamState
  // fields the draining task owns while writer_active.
  std::mutex streams_mutex_;
  std::condition_variable streams_cv_;
  uint64_t stream_backlog_bytes_ = 0;
  uint64_t next_stream_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<ChunkStreamState>> streams_;
};

}  // namespace sdg::checkpoint

#endif  // SDG_CHECKPOINT_BACKUP_STORE_H_
