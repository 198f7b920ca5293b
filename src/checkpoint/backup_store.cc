#include "src/checkpoint/backup_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>

#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/common/logging.h"

namespace sdg::checkpoint {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kMetaSuffix = ".meta";
constexpr std::string_view kMetaTmpSuffix = ".meta.tmp";

// A store file name `<node_prefix><epoch><rest>`, split; `rest` views the
// parsed name.
struct EpochName {
  uint64_t epoch = 0;
  std::string_view rest;
};

// Splits `fname` when it starts with `node_prefix` followed by a decimal
// epoch; nullopt for any other name.
std::optional<EpochName> ParseEpochName(std::string_view fname,
                                        std::string_view node_prefix) {
  if (!fname.starts_with(node_prefix)) {
    return std::nullopt;
  }
  fname.remove_prefix(node_prefix.size());
  EpochName out;
  auto [end, ec] =
      std::from_chars(fname.data(), fname.data() + fname.size(), out.epoch);
  if (ec != std::errc() || end == fname.data()) {
    return std::nullopt;
  }
  out.rest = fname.substr(static_cast<size_t>(end - fname.data()));
  return out;
}

// fsyncs the file or directory at `path`.
Status SyncPath(const fs::path& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return UnavailableError("cannot open " + path.string() + " to sync");
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return DataLossError("fsync failed for " + path.string());
  }
  return Status::Ok();
}

}  // namespace

BackupStore::BackupStore(BackupStoreOptions options)
    : options_(std::move(options)), pool_(options_.io_threads) {
  SDG_CHECK(options_.num_backup_nodes > 0) << "backup store needs m >= 1";
  for (uint32_t i = 0; i < options_.num_backup_nodes; ++i) {
    buckets_.push_back(std::make_unique<BucketState>());
    std::error_code ec;
    fs::create_directories(options_.root / ("backup" + std::to_string(i)), ec);
  }
  std::error_code ec;
  fs::create_directories(options_.root / "meta", ec);
}

BackupStore::~BackupStore() {
  pool_.Wait();
  for (auto& [id, st] : streams_) {
    if (st->file != nullptr) {
      std::fclose(st->file);  // leaked stream: partial file, meta never written
    }
  }
}

uint32_t BackupStore::PlaceBackup(const std::string& name,
                                  uint32_t chunk_index) const {
  // Offsetting the round-robin by a name hash spreads single-chunk blobs
  // (every TE output buffer) across the m backup nodes instead of piling
  // them all on backup 0.
  return static_cast<uint32_t>((chunk_index + Fnv1a64(name)) %
                               options_.num_backup_nodes);
}

fs::path BackupStore::ChunkPath(uint32_t backup, uint32_t node, uint64_t epoch,
                                const std::string& name,
                                uint32_t chunk_index) const {
  return options_.root / ("backup" + std::to_string(backup)) /
         ("node" + std::to_string(node) + "_epoch" + std::to_string(epoch) +
          "_" + name + "_chunk" + std::to_string(chunk_index) + ".bin");
}

fs::path BackupStore::MetaPath(uint32_t node, uint64_t epoch) const {
  return options_.root / "meta" /
         ("node" + std::to_string(node) + "_epoch" + std::to_string(epoch) +
          ".meta");
}

void BackupStore::Throttle(uint32_t backup, size_t bytes) {
  if (options_.throttle_bytes_per_sec == 0) {
    return;
  }
  auto& bucket = *buckets_[backup % buckets_.size()];
  int64_t cost_ns = static_cast<int64_t>(
      1e9 * static_cast<double>(bytes) /
      static_cast<double>(options_.throttle_bytes_per_sec));
  int64_t wait_until;
  {
    std::lock_guard<std::mutex> lock(bucket.mutex);
    int64_t now = Stopwatch::NowNanos();
    int64_t start = std::max(now, bucket.next_free_ns);
    bucket.next_free_ns = start + cost_ns;
    wait_until = bucket.next_free_ns;
  }
  int64_t now = Stopwatch::NowNanos();
  if (wait_until > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(wait_until - now));
  }
}

Status BackupStore::WriteFile(const fs::path& path,
                              const std::vector<uint8_t>& bytes, bool sync) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return UnavailableError("cannot open " + path.string() + " for writing");
  }
  size_t written = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool synced = !sync || (std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0);
  int rc = std::fclose(f);
  if (written != bytes.size() || !synced || rc != 0) {
    return DataLossError("short write to " + path.string());
  }
  return Status::Ok();
}

Result<std::vector<uint8_t>> BackupStore::ReadFile(const fs::path& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFoundError("cannot open " + path.string());
  }
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  size_t read = size == 0 ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (read != bytes.size()) {
    return DataLossError("short read from " + path.string());
  }
  return bytes;
}

Status BackupStore::WriteChunks(uint32_t node, uint64_t epoch,
                                const std::string& name,
                                const std::vector<std::vector<uint8_t>>& chunks) {
  std::mutex status_mutex;
  Status first_error;
  for (uint32_t i = 0; i < chunks.size(); ++i) {
    // The fault hook runs in this sequential issue loop (not in the pool) so
    // "crash after chunk k" is deterministic: chunks before the failure point
    // are flushed by the Wait below, chunks after it are never issued.
    if (options_.fault_hook) {
      Status s = options_.fault_hook("write_chunk", i, /*before=*/true);
      if (!s.ok()) {
        pool_.Wait();
        return s;
      }
    }
    // Hash-offset round-robin over the m backup nodes (step B3 of Fig. 4).
    uint32_t backup = PlaceBackup(name, i);
    const auto& chunk = chunks[i];
    fs::path path = ChunkPath(backup, node, epoch, name, i);
    pool_.Submit([this, backup, path, &chunk, &status_mutex, &first_error] {
      Throttle(backup, chunk.size());
      Status s = WriteFile(path, chunk);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(status_mutex);
        if (first_error.ok()) {
          first_error = s;
        }
      }
    });
    if (options_.fault_hook) {
      Status s = options_.fault_hook("write_chunk", i, /*before=*/false);
      if (!s.ok()) {
        pool_.Wait();
        return s;
      }
    }
  }
  pool_.Wait();
  return first_error;
}

Result<uint64_t> BackupStore::BeginChunkStream(uint32_t node, uint64_t epoch,
                                               const std::string& name,
                                               uint32_t chunk_index) {
  if (options_.fault_hook) {
    SDG_RETURN_IF_ERROR(
        options_.fault_hook("write_chunk", chunk_index, /*before=*/true));
  }
  auto st = std::make_unique<ChunkStreamState>();
  st->backup = PlaceBackup(name, chunk_index);
  st->chunk_index = chunk_index;
  st->path = ChunkPath(st->backup, node, epoch, name, chunk_index);
  st->file = std::fopen(st->path.c_str(), "wb");
  if (st->file == nullptr) {
    return UnavailableError("cannot open " + st->path.string() +
                            " for streaming");
  }
  std::lock_guard<std::mutex> lock(streams_mutex_);
  uint64_t id = next_stream_id_++;
  streams_[id] = std::move(st);
  return id;
}

Status BackupStore::AppendChunkStream(uint64_t stream,
                                      std::vector<uint8_t> segment) {
  if (segment.empty()) {
    return Status::Ok();
  }
  std::unique_lock<std::mutex> lock(streams_mutex_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return InvalidArgumentError("unknown chunk stream");
  }
  ChunkStreamState* st = it->second.get();
  if (!st->error.ok()) {
    return st->error;
  }
  // Backpressure: bound the serialised-but-unwritten bytes across all open
  // streams so a fast serializer cannot re-materialise the state in memory.
  streams_cv_.wait(lock, [this] {
    return stream_backlog_bytes_ < options_.max_stream_backlog_bytes;
  });
  stream_backlog_bytes_ += segment.size();
  st->pending.push_back(std::move(segment));
  if (!st->writer_active) {
    st->writer_active = true;
    pool_.Submit([this, st] { DrainStream(st); });
  }
  return Status::Ok();
}

void BackupStore::DrainStream(ChunkStreamState* st) {
  std::unique_lock<std::mutex> lock(streams_mutex_);
  while (!st->pending.empty()) {
    std::vector<uint8_t> segment = std::move(st->pending.front());
    st->pending.pop_front();
    lock.unlock();
    Throttle(st->backup, segment.size());
    size_t written =
        std::fwrite(segment.data(), 1, segment.size(), st->file);
    lock.lock();
    stream_backlog_bytes_ -= segment.size();
    if (written != segment.size() && st->error.ok()) {
      st->error = DataLossError("short write to " + st->path.string());
    }
    st->bytes_written += written;
    streams_cv_.notify_all();
  }
  st->writer_active = false;
  streams_cv_.notify_all();
}

Status BackupStore::FinishChunkStream(uint64_t stream) {
  std::unique_ptr<ChunkStreamState> st;
  {
    std::unique_lock<std::mutex> lock(streams_mutex_);
    auto it = streams_.find(stream);
    if (it == streams_.end()) {
      return InvalidArgumentError("unknown chunk stream");
    }
    ChunkStreamState* raw = it->second.get();
    streams_cv_.wait(lock, [raw] {
      return !raw->writer_active && raw->pending.empty();
    });
    st = std::move(it->second);
    streams_.erase(it);
  }
  int rc = std::fclose(st->file);
  st->file = nullptr;
  if (!st->error.ok()) {
    return st->error;
  }
  if (rc != 0) {
    return DataLossError("close failed for " + st->path.string());
  }
  if (options_.fault_hook) {
    SDG_RETURN_IF_ERROR(
        options_.fault_hook("write_chunk", st->chunk_index, /*before=*/false));
  }
  return Status::Ok();
}

Result<std::vector<std::vector<uint8_t>>> BackupStore::ReadChunks(
    uint32_t node, uint64_t epoch, const std::string& name,
    uint32_t num_chunks) {
  std::vector<std::vector<uint8_t>> chunks(num_chunks);
  std::mutex status_mutex;
  Status first_error;
  for (uint32_t i = 0; i < num_chunks; ++i) {
    if (options_.fault_hook) {
      Status s = options_.fault_hook("read_chunk", i, /*before=*/true);
      if (!s.ok()) {
        pool_.Wait();
        return s;
      }
    }
    uint32_t backup = PlaceBackup(name, i);
    fs::path path = ChunkPath(backup, node, epoch, name, i);
    pool_.Submit([this, backup, path, i, &chunks, &status_mutex, &first_error] {
      auto bytes = ReadFile(path);
      if (bytes.ok()) {
        Throttle(backup, bytes->size());
        chunks[i] = std::move(*bytes);
      } else {
        std::lock_guard<std::mutex> lock(status_mutex);
        if (first_error.ok()) {
          first_error = bytes.status();
        }
      }
    });
    if (options_.fault_hook) {
      Status s = options_.fault_hook("read_chunk", i, /*before=*/false);
      if (!s.ok()) {
        pool_.Wait();
        return s;
      }
    }
  }
  pool_.Wait();
  if (!first_error.ok()) {
    return first_error;
  }
  return chunks;
}

Status BackupStore::WriteMeta(uint32_t node, uint64_t epoch,
                              const CheckpointMeta& meta) {
  if (options_.fault_hook) {
    SDG_RETURN_IF_ERROR(options_.fault_hook("write_meta", 0, /*before=*/true));
  }
  // Publish atomically: a crash leaves either no meta (the previous epoch
  // stays authoritative) or the complete one, never a torn record under the
  // final name. The data is synced before the rename, the rename before
  // returning.
  const fs::path path = MetaPath(node, epoch);
  fs::path tmp = path;
  tmp += ".tmp";
  SDG_RETURN_IF_ERROR(WriteFile(tmp, meta.ToBytes(), /*sync=*/true));
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return DataLossError("cannot publish " + path.string() + ": " +
                         ec.message());
  }
  SDG_RETURN_IF_ERROR(SyncPath(path.parent_path()));
  // A failure here reports an error although the meta record is durable: the
  // checkpoint is complete but the checkpointing node never learns it.
  if (options_.fault_hook) {
    SDG_RETURN_IF_ERROR(options_.fault_hook("write_meta", 0, /*before=*/false));
  }
  return Status::Ok();
}

Result<CheckpointMeta> BackupStore::ReadMeta(uint32_t node, uint64_t epoch) {
  SDG_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                       ReadFile(MetaPath(node, epoch)));
  return CheckpointMeta::FromBytes(bytes);
}

Result<uint64_t> BackupStore::LatestEpoch(uint32_t node) {
  // The meta file is written last, so its presence marks a complete
  // checkpoint; scan for the highest epoch. Only exact meta names count: a
  // leftover `.meta.tmp` is an unpublished (possibly torn) record; a
  // published one counts even if it no longer decodes (see the header).
  uint64_t best = 0;
  bool found = false;
  const std::string prefix = "node" + std::to_string(node) + "_epoch";
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(options_.root / "meta", ec)) {
    const std::string fname = entry.path().filename().string();
    auto name = ParseEpochName(fname, prefix);
    if (!name || name->rest != kMetaSuffix) {
      continue;
    }
    if (!found || name->epoch > best) {
      best = name->epoch;
      found = true;
    }
  }
  if (!found) {
    return NotFoundError("no checkpoint for node " + std::to_string(node));
  }
  return best;
}

void BackupStore::PruneBefore(uint32_t node, uint64_t keep_epoch) {
  const std::string prefix = "node" + std::to_string(node) + "_epoch";
  // Chunk files are `<prefix><E>_<name>_chunk<i>.bin`; meta files are exact
  // `<prefix><E>.meta`, plus the `.meta.tmp` a crash mid-publish leaves.
  auto stale = [&](const fs::path& path, bool meta_dir) {
    const std::string fname = path.filename().string();
    auto name = ParseEpochName(fname, prefix);
    if (!name || name->epoch >= keep_epoch) {
      return false;
    }
    return meta_dir ? name->rest == kMetaSuffix || name->rest == kMetaTmpSuffix
                    : name->rest.starts_with('_');
  };
  std::error_code ec;
  for (uint32_t b = 0; b < options_.num_backup_nodes; ++b) {
    fs::path dir = options_.root / ("backup" + std::to_string(b));
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (stale(entry.path(), /*meta_dir=*/false)) {
        fs::remove(entry.path(), ec);
      }
    }
  }
  for (const auto& entry :
       fs::directory_iterator(options_.root / "meta", ec)) {
    if (stale(entry.path(), /*meta_dir=*/true)) {
      fs::remove(entry.path(), ec);
    }
  }
}

Status BackupStore::ReadChain(uint32_t node, const StateInstanceMeta& sm,
                              const LinkFn& apply) {
  const std::string name = StateChunkName(sm.state, sm.instance);
  for (const auto& link : sm.chain) {
    SDG_ASSIGN_OR_RETURN(auto chunks,
                         ReadChunks(node, link.epoch, name, link.num_chunks));
    SDG_RETURN_IF_ERROR(apply(std::move(chunks)));
  }
  return Status::Ok();
}

}  // namespace sdg::checkpoint
