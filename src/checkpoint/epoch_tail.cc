#include "src/checkpoint/epoch_tail.h"

#include <utility>

#include "src/checkpoint/chunk_stream.h"

namespace sdg::checkpoint {

Result<std::vector<std::vector<uint8_t>>> SerializeEpochBlobs(
    const state::StateBackend& backend, const std::string& name,
    uint32_t num_chunks, bool delta, uint8_t codec) {
  std::vector<std::vector<uint8_t>> blobs(num_chunks);
  ChunkStreamWriter::Options options;
  options.num_chunks = num_chunks;
  options.codec = codec;
  options.delta = delta;
  ChunkStreamWriter writer(
      [&blobs](uint32_t chunk_index, std::vector<uint8_t> segment) {
        // Segments of one chunk_index concatenate into a valid streamed
        // chunk blob (same contract the migration wire path relies on).
        auto& blob = blobs[chunk_index];
        blob.insert(blob.end(), segment.begin(), segment.end());
        return Status::Ok();
      },
      name, options);
  SDG_RETURN_IF_ERROR(WriteEpoch(writer, backend).status());
  return blobs;
}

}  // namespace sdg::checkpoint
