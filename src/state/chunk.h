// Checkpoint chunks: the on-wire/on-disk unit of the m-to-n backup/restore
// protocol (§5, Fig. 4).
//
// A chunk is a byte blob holding (key_hash, payload) records emitted by a
// StateBackend. Because every record carries its partitioning hash in the
// frame, a backup node can split a chunk into n sub-chunks for parallel
// restore (step R1) *without* knowing the state's type or deserialising
// payloads.
//
// Layout: [magic u32][version=2 u32][se_name string][record_count u64]
//         [codec u8][flags u8]
//         then per record: [key_hash u64][record_flags u8]
//                          [varint payload_len][payload bytes]
//         With kChunkCodecPrefix the payload bytes are replaced by
//         [varint shared_prefix_len][suffix]: the longest common prefix with
//         the previous record's payload in the same chunk is elided.
//         record_flags bit0 marks a tombstone — a record erased since the
//         previous epoch, whose payload encodes only the key. A header
//         record_count of kStreamedRecordCount means the chunk was streamed
//         segment-by-segment and readers iterate to the end of the body
//         instead of counting (checkpoint completeness is guaranteed by the
//         epoch's meta record, which is written last).
//
// Readers reject any other version with kDataLoss.
#ifndef SDG_STATE_CHUNK_H_
#define SDG_STATE_CHUNK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/state/state_backend.h"

namespace sdg::state {

inline constexpr uint32_t kChunkMagic = 0x53444743;  // "SDGC"
inline constexpr uint32_t kChunkVersion = 2;

// Header record_count for streamed chunks (exact count unknown until the
// stream closes); readers walk the body to the end instead.
inline constexpr uint64_t kStreamedRecordCount = ~0ull;

// Header flags.
inline constexpr uint8_t kChunkFlagDelta = 1;  // delta epoch: apply over a base
// Per-record flags.
inline constexpr uint8_t kRecordFlagTombstone = 1;

// Frame parameters of one chunk.
struct ChunkOptions {
  uint8_t codec = 0;  // kChunkCodec*
  bool delta = false;
};

// One parsed record, including delta-only attributes. `payload` is valid only
// for the duration of the visiting call (it may point into decode scratch).
struct ChunkRecordView {
  uint64_t key_hash = 0;
  const uint8_t* payload = nullptr;
  size_t size = 0;
  bool tombstone = false;
};
using ChunkRecordFn = std::function<void(const ChunkRecordView&)>;

// Serialised header for `options`; record frames follow directly.
std::vector<uint8_t> BuildChunkHeader(const ChunkOptions& options,
                                      std::string_view se_name,
                                      uint64_t record_count);

// Appends one record frame to `out`. `prev_payload` is the running
// prefix-dedup context of the destination chunk (kChunkCodecPrefix); it is
// updated to this record's payload. Shared by ChunkBuilder and the streaming
// checkpoint writer, which frames straight into fixed-size segments.
void AppendRecordFrame(const ChunkOptions& options, uint64_t key_hash,
                       const uint8_t* payload, size_t size, bool tombstone,
                       std::vector<uint8_t>& out,
                       std::vector<uint8_t>& prev_payload);

// Accumulates records into one chunk blob.
class ChunkBuilder {
 public:
  explicit ChunkBuilder(std::string se_name, ChunkOptions options = {});

  void AddRecord(uint64_t key_hash, const uint8_t* payload, size_t size);
  // Records an erase (payload = encoded key) for a delta chunk.
  void AddTombstone(uint64_t key_hash, const uint8_t* payload, size_t size);

  // A RecordSink forwarding into this builder.
  RecordSink AsSink();

  uint64_t record_count() const { return record_count_; }
  size_t size_bytes() const;

  // Finalises the header and returns the blob; the builder is consumed.
  std::vector<uint8_t> Finish() &&;

 private:
  std::string se_name_;
  ChunkOptions options_;
  std::vector<uint8_t> body_;
  std::vector<uint8_t> prev_payload_;  // prefix-dedup context
  uint64_t record_count_ = 0;
};

// Parsed chunk metadata plus a cursor over its records.
class ChunkReader {
 public:
  static Result<ChunkReader> Open(const std::vector<uint8_t>& chunk);

  const std::string& se_name() const { return se_name_; }
  // Exact for built chunks; kStreamedRecordCount for streamed chunks.
  uint64_t record_count() const { return record_count_; }
  uint8_t codec() const { return options_.codec; }
  bool is_delta() const { return options_.delta; }
  // Frame parameters, for re-encoding records into equivalent chunks
  // (SplitChunk / FilterChunk).
  const ChunkOptions& options() const { return options_; }

  // Calls `fn` for every record, tombstones included. Compressed payloads are
  // materialised into internal scratch valid only during the call.
  Status ForEach(const ChunkRecordFn& fn) const;

 private:
  ChunkReader(std::string se_name, uint64_t record_count, ChunkOptions options,
              const uint8_t* body, size_t body_size)
      : se_name_(std::move(se_name)),
        record_count_(record_count),
        options_(options),
        body_(body),
        body_size_(body_size) {}

  std::string se_name_;
  uint64_t record_count_;
  ChunkOptions options_;
  const uint8_t* body_;  // points into the caller's chunk buffer
  size_t body_size_;
};

// Splits `chunk` into `n` chunks, assigning each record by key_hash % n.
// Codec and the delta flag are preserved, so a delta chunk splits into n
// delta chunks whose tombstones survive the split.
Result<std::vector<std::vector<uint8_t>>> SplitChunk(
    const std::vector<uint8_t>& chunk, uint32_t n);

// Splits `chunk`, keeping only the records for partition `part` of
// `num_parts` (what one recovering node receives).
Result<std::vector<uint8_t>> FilterChunk(const std::vector<uint8_t>& chunk,
                                         uint32_t part, uint32_t num_parts);

// Feeds every record of `chunk` into `backend`: RestoreRecord for live
// records, RestoreErase for tombstones (delta chunks).
Status RestoreChunk(StateBackend& backend, const std::vector<uint8_t>& chunk);

}  // namespace sdg::state

#endif  // SDG_STATE_CHUNK_H_
