// Length-prefixed frame codec for the inter-node TCP transport.
//
// Every message on a node-to-node connection is one frame:
//
//   magic   u32  (kFrameMagic, rejects desynchronised/garbage streams)
//   type    u8   (FrameType)
//   length  u32  (payload bytes; bounded by kMaxFramePayload)
//   payload length bytes
//
// Frames reuse the BinaryWriter/BinaryReader encoding of src/common, so a
// DataItem crossing a real socket is byte-identical to one crossing the
// simulated node boundary. Encoding writes into a caller-owned BinaryWriter
// (the PR-1 thread-local scratch-reuse scheme); decoding is incremental —
// FrameDecoder::Feed accepts arbitrary read() slices and surfaces complete
// frames one at a time, returning Status (never crashing) on corrupt input.
#ifndef SDG_NET_FRAME_H_
#define SDG_NET_FRAME_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/common/serialize.h"
#include "src/common/status.h"
#include "src/runtime/data_item.h"

namespace sdg::net {

inline constexpr uint32_t kFrameMagic = 0x53444746;  // "SDGF"
// Wire generation, carried in every connection's first frame (kMuxHello,
// kJoin, kReplicaSubscribe); a mismatch rejects the connection. Bump it on
// any incompatible wire change.
inline constexpr uint32_t kProtocolVersion = 2;
// A frame carries at most one delivery batch; 64 MiB bounds decoder memory
// against corrupt or hostile length fields.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 4;
// Mux framing widens the header with a stream id between type and length:
//   magic u32 | type u8 | stream u32 | length u32
// A data connection switches to it after the kMuxHello/kMuxHelloAck
// exchange (which itself rides the plain header). Control, migration,
// client and replica-feed connections keep the plain header throughout.
inline constexpr size_t kMuxFrameHeaderBytes = 4 + 1 + 4 + 4;

// Values 1 and 2 are unassigned.
enum class FrameType : uint8_t {
  kData = 3,  // batch of DataItems for the stream's entry
  kAck = 4,   // receiver -> sender: durable watermark advanced
  // Membership (elastic scale-out): a fresh worker process registers with a
  // running deployment's head; the connection then stays open as the
  // member's control channel (kControl both ways).
  kJoin = 5,      // worker -> head, once per connection
  kJoinAck = 6,   // head -> worker
  // Live state-partition migration, its own connection to the target's
  // ChannelServer: Begin opens the session, Chunk streams base/delta chunk
  // segments, Commit is the cutover barrier carrying the watermark handoff,
  // Ack confirms each applied phase.
  kMigrateBegin = 7,
  kMigrateChunk = 8,
  kMigrateCommit = 9,
  kMigrateAck = 10,
  kControl = 11,  // head <-> member commands/replies on the join connection
  // Serve path (client-facing front door): a client's first frame is a
  // kRequest — no handshake — and the connection then carries pipelined
  // requests and (out-of-order) responses keyed by request id.
  kRequest = 12,   // client -> gateway
  kResponse = 13,  // gateway -> client
  // Replica feed: a worker's first frame on a second connection to the head
  // subscribes it as a partial-state publisher; kReplicaEpoch frames then
  // stream checkpoint-epoch base/delta chunk blobs to the gateway's read
  // replicas (§3.2 partial state as the read-scaling path).
  kReplicaSubscribe = 14,  // worker -> gateway, once per connection
  kReplicaEpoch = 15,      // worker -> gateway: epoch announce/base/delta
  // Data connections (one TCP socket per peer pair, many logical streams).
  // The hello pair checks the protocol version and grants the stream
  // window; every frame after it carries a stream id in the widened header.
  kMuxHello = 16,     // dialer -> server, first frame, plain header
  kMuxHelloAck = 17,  // server -> dialer, plain header; mux framing follows
  kMuxOpen = 18,      // dialer -> server: open one logical stream
  kMuxOpenAck = 19,   // server -> dialer: per-stream watermark + send window
  kMuxWindow = 20,    // server -> dialer: flow-control credit grant
  kMuxAckBatch = 21,  // server -> dialer: coalesced per-stream watermarks
};
// Type value range FrameDecoder accepts; bump the max when appending types.
inline constexpr uint8_t kMinFrameType = static_cast<uint8_t>(FrameType::kData);
inline constexpr uint8_t kMaxFrameType =
    static_cast<uint8_t>(FrameType::kMuxAckBatch);

struct Frame {
  FrameType type = FrameType::kData;
  // Logical stream the frame belongs to (mux framing only; 0 otherwise).
  uint32_t stream = 0;
  std::vector<uint8_t> payload;
};

// Appends one whole frame (header + payload) to `w`.
void EncodeFrame(BinaryWriter& w, FrameType type, const uint8_t* payload,
                 size_t size);

// Mux-framing variant: header carries the stream id.
void EncodeMuxFrame(BinaryWriter& w, FrameType type, uint32_t stream,
                    const uint8_t* payload, size_t size);

// Writes only the header into `out` (used by the scatter-gather send path,
// which stages header and payload as separate iovec segments). Returns the
// header length: kFrameHeaderBytes or kMuxFrameHeaderBytes.
size_t EncodeFrameHeader(uint8_t* out, FrameType type, uint32_t stream,
                         size_t payload_size, bool mux);

// Incremental decoder. Feed() buffers raw bytes; Next() pops the next
// complete frame. A magic/length violation poisons the decoder (the stream
// cannot be resynchronised) and every later call returns the same error.
class FrameDecoder {
 public:
  // Appends raw bytes read from the transport.
  void Feed(const uint8_t* data, size_t size);

  // True  -> *out holds the next frame.
  // False -> no complete frame buffered yet (read more).
  // Error -> kDataLoss: bad magic, oversized length, or unknown type.
  Result<bool> Next(Frame* out);

  // Switches to mux framing (13-byte headers with a stream id) for every
  // frame not yet parsed. Called right after the hello exchange; bytes
  // already buffered past the hello-ack are mux-framed and parse correctly.
  void EnableMux() { mux_ = true; }
  bool mux() const { return mux_; }

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  bool mux_ = false;
  Status poisoned_;
};

// --- Message payloads ---------------------------------------------------------
//
// Each message (de)serialises through BinaryWriter/BinaryReader; Decode
// rejects truncated or trailing bytes with a Status.

// The identity of one data stream as the receiver sees it (built from the
// stream's MuxOpenMsg; not a wire message itself): which deployment the
// sender belongs to, which TE instance is talking (the remote SourceId
// downstream dedup keys on), which entry TE of the receiving deployment the
// items are for, and the sender's emit-clock position (diagnostics: the
// receiver can bound the replay window).
struct Handshake {
  uint64_t deployment_id = 0;
  uint32_t source_task = 0;
  uint32_t source_instance = 0;
  std::string entry;
  uint64_t emit_clock = 0;
};

// Batch of data items, in sender FIFO order.
struct DataBatch {
  std::vector<runtime::DataItem> items;

  // Encodes straight into `w` (cleared first), so the per-batch hot path can
  // reuse a thread-local scratch writer.
  void EncodeTo(BinaryWriter& w) const;
  static Result<DataBatch> Decode(const std::vector<uint8_t>& payload);
};

// Advances the sender's trim watermark for this connection's source.
struct AckMsg {
  uint64_t acked_ts = 0;

  std::vector<uint8_t> Encode() const;
  static Result<AckMsg> Decode(const std::vector<uint8_t>& payload);
};

// --- Membership / migration messages ------------------------------------------

// Registers a worker process with a running deployment's head. `member_id`
// is stable across restarts (it names the worker's backup-store directory);
// a rejoin with a known id replaces the previous incarnation. `data_port` is
// the joiner's own ChannelServer, where data channels and migration sessions
// are dialled.
struct JoinMsg {
  uint32_t protocol = kProtocolVersion;
  uint64_t deployment_id = 0;
  uint32_t member_id = 0;
  std::string host;
  uint32_t data_port = 0;
  std::string name;  // diagnostics only

  std::vector<uint8_t> Encode() const;
  static Result<JoinMsg> Decode(const std::vector<uint8_t>& payload);
};

struct JoinAckMsg {
  bool accepted = false;
  uint32_t member_id = 0;
  std::string message;  // reject reason

  std::vector<uint8_t> Encode() const;
  static Result<JoinAckMsg> Decode(const std::vector<uint8_t>& payload);
};

// Opens a migration session for one partition of one SE. Over the membership
// channel (head -> source worker) the target fields say where to push; over
// the session connection itself (source -> target) they are empty.
struct MigrateBeginMsg {
  std::string state;
  uint32_t partition = 0;
  uint32_t num_partitions = 0;
  std::string target_host;
  uint32_t target_port = 0;

  std::vector<uint8_t> Encode() const;
  static Result<MigrateBeginMsg> Decode(const std::vector<uint8_t>& payload);
};

// One chunk-stream segment of the partition being migrated. Segments of one
// chunk_index concatenate into a v2 chunk blob; an apply-marker (empty
// payload) closes the phase: the target assembles and applies everything
// buffered, then acks.
inline constexpr uint8_t kMigrateChunkDelta = 1;  // segment of a delta chunk
inline constexpr uint8_t kMigrateChunkApply = 2;  // phase barrier, no payload
struct MigrateChunkMsg {
  uint32_t chunk_index = 0;
  uint8_t flags = 0;
  std::vector<uint8_t> bytes;

  std::vector<uint8_t> Encode() const;
  static Result<MigrateChunkMsg> Decode(const std::vector<uint8_t>& payload);
};

// Cutover barrier: the source has shipped its final delta and will never
// serve this partition again. `watermarks` carries, per remote source
// instance feeding this partition (one per head-side entry channel), the
// highest timestamp reflected in the migrated state — the receiving worker
// reports these on the next data stream opens so the head's output buffers
// replay exactly the entries past them (the watermark handoff).
struct SourceWatermark {
  uint32_t source_instance = 0;
  uint64_t watermark = 0;
};
struct MigrateCommitMsg {
  std::string state;
  uint32_t partition = 0;
  std::vector<SourceWatermark> watermarks;

  std::vector<uint8_t> Encode() const;
  static Result<MigrateCommitMsg> Decode(const std::vector<uint8_t>& payload);
};

struct MigrateAckMsg {
  bool ok = false;
  uint64_t watermark = 0;
  std::string message;

  std::vector<uint8_t> Encode() const;
  static Result<MigrateAckMsg> Decode(const std::vector<uint8_t>& payload);
};

// Commands/replies on the membership channel.
inline constexpr uint32_t kCtrlCheckpoint = 1;  // head->worker: persist + ack
inline constexpr uint32_t kCtrlDone = 2;        // worker->head: command done
inline constexpr uint32_t kCtrlRelease = 3;     // head->worker: drop partition
inline constexpr uint32_t kCtrlStraggler = 4;   // worker->head: local straggler
inline constexpr uint32_t kCtrlCutover = 5;     // head->worker: finish migration
inline constexpr uint32_t kCtrlPrepared = 6;    // worker->head: base+deltas sent
inline constexpr uint32_t kCtrlError = 7;       // worker->head: command failed
inline constexpr uint32_t kCtrlPing = 8;        // head->worker: liveness probe
// head->worker: the head abandoned migrating `partition` off this worker.
inline constexpr uint32_t kCtrlAbortMigration = 9;
struct ControlMsg {
  uint32_t op = 0;
  uint32_t partition = 0;
  uint64_t arg = 0;
  std::string text;

  std::vector<uint8_t> Encode() const;
  static Result<ControlMsg> Decode(const std::vector<uint8_t>& payload);
};

// --- Serve-path messages ------------------------------------------------------

// One KV operation. `request_id` is client-scoped (echoed back verbatim);
// responses may arrive out of order, so clients key pending ops on it.
// Reads default to the strong path (routed to the owning partition); setting
// kReadStale allows the gateway to answer from a partial-state replica as
// long as the replica lags the owner's announced checkpoint epoch by at most
// `max_epoch_lag` epochs (the staleness bound).
inline constexpr uint8_t kOpPut = 1;
inline constexpr uint8_t kOpGet = 2;
inline constexpr uint8_t kOpDel = 3;
inline constexpr uint8_t kOpPing = 4;  // connection probe, answered inline
inline constexpr uint8_t kReadStale = 1;  // RequestMsg.flags bit
struct RequestMsg {
  uint64_t request_id = 0;
  uint8_t op = kOpGet;
  uint8_t flags = 0;
  int64_t key = 0;
  std::string value;  // kOpPut payload
  uint32_t max_epoch_lag = 1;

  std::vector<uint8_t> Encode() const;
  static Result<RequestMsg> Decode(const std::vector<uint8_t>& payload);
};

inline constexpr uint8_t kRespOk = 1;
inline constexpr uint8_t kRespOverloaded = 2;  // shed by admission control
inline constexpr uint8_t kRespError = 3;
inline constexpr uint8_t kRespFromReplica = 1;  // ResponseMsg.flags bit
struct ResponseMsg {
  uint64_t request_id = 0;
  uint8_t code = kRespOk;
  uint8_t flags = 0;
  std::string value;    // get result ("" = absent) or error text
  uint64_t epoch = 0;   // replica reads: the epoch the value reflects

  std::vector<uint8_t> Encode() const;
  static Result<ResponseMsg> Decode(const std::vector<uint8_t>& payload);
};

// --- Replica feed messages ----------------------------------------------------

// Opens a worker's replica-feed connection to the gateway.
struct ReplicaSubscribeMsg {
  uint32_t protocol = kProtocolVersion;
  uint64_t deployment_id = 0;
  uint32_t member_id = 0;
  std::string state;

  std::vector<uint8_t> Encode() const;
  static Result<ReplicaSubscribeMsg> Decode(
      const std::vector<uint8_t>& payload);
};

// One replica-feed event for a partition. An announce (no chunks) advances
// the owner's epoch watermark the moment a checkpoint epoch is cut — the
// gateway's staleness bound is measured against it. Base/delta events carry
// the v2 chunk blobs of that epoch; a base replaces the replica's contents,
// a delta applies dirty records + tombstones on top. `queue_depth` piggybacks
// the worker's current mailbox depth for admission control.
inline constexpr uint8_t kEpochAnnounce = 1;
inline constexpr uint8_t kEpochBase = 2;
inline constexpr uint8_t kEpochDelta = 3;
struct ReplicaEpochMsg {
  uint32_t partition = 0;
  uint32_t member_id = 0;
  uint8_t kind = kEpochAnnounce;
  uint64_t epoch = 0;
  uint64_t queue_depth = 0;
  std::vector<std::vector<uint8_t>> chunks;

  std::vector<uint8_t> Encode() const;
  static Result<ReplicaEpochMsg> Decode(const std::vector<uint8_t>& payload);
};

// --- Mux messages -------------------------------------------------------------

// First frame of a data connection (plain header). The server rejects a
// protocol version other than its own.
struct MuxHelloMsg {
  uint32_t protocol = kProtocolVersion;
  uint64_t deployment_id = 0;

  std::vector<uint8_t> Encode() const;
  static Result<MuxHelloMsg> Decode(const std::vector<uint8_t>& payload);
};

// Reply, still plain-framed; both sides switch to mux framing after it.
// `window` is the initial per-stream send window (frames the dialer may have
// in flight on one stream before credits are granted back).
struct MuxHelloAckMsg {
  bool accepted = false;
  uint32_t window = 0;
  std::string message;  // reject reason

  std::vector<uint8_t> Encode() const;
  static Result<MuxHelloAckMsg> Decode(const std::vector<uint8_t>& payload);
};

// Logical stream kinds. A data stream is one (entry, partition) channel: its
// identity fields become the receiver's Handshake, and kData frames flow
// dialer -> server. A reply stream carries
// kResponse frames (strong-read results) worker -> head, off the membership
// control channel.
inline constexpr uint8_t kMuxStreamData = 1;
inline constexpr uint8_t kMuxStreamReply = 2;

// Opens one stream. Sent on the stream's own id so the server can reply on
// it; the dialer sends no data frames until the ack arrives.
struct MuxOpenMsg {
  uint8_t kind = kMuxStreamData;
  uint64_t deployment_id = 0;
  uint32_t member_id = 0;  // reply streams: who is answering
  // Data streams: the channel identity (see Handshake).
  uint32_t source_task = 0;
  uint32_t source_instance = 0;
  std::string entry;
  uint64_t emit_clock = 0;

  std::vector<uint8_t> Encode() const;
  static Result<MuxOpenMsg> Decode(const std::vector<uint8_t>& payload);
};

// Per-stream open reply: the receiver's durable watermark for the stream's
// source (the dialer replays every logged entry past it — §5 as the
// transport's reconnect path) and the stream's initial send window in
// frames.
struct MuxOpenAckMsg {
  bool accepted = false;
  uint64_t acked_ts = 0;
  uint32_t window = 0;
  std::string message;  // reject reason

  std::vector<uint8_t> Encode() const;
  static Result<MuxOpenAckMsg> Decode(const std::vector<uint8_t>& payload);
};

// Flow-control credit grant: the server consumed `credits` frames of the
// stream, so the dialer may have that many more in flight. Per-stream
// windows are what keep one hot partition from starving its siblings on the
// shared socket — a stream out of credits blocks only its own sender.
struct MuxWindowMsg {
  uint32_t credits = 0;

  std::vector<uint8_t> Encode() const;
  static Result<MuxWindowMsg> Decode(const std::vector<uint8_t>& payload);
};

// Coalesced cumulative acks: one frame carries the durable watermark of
// every stream a checkpoint covered, instead of one kAck frame per
// (entry, partition) channel.
struct MuxAckBatchMsg {
  struct Entry {
    uint32_t stream = 0;
    uint64_t acked_ts = 0;
  };
  std::vector<Entry> entries;

  std::vector<uint8_t> Encode() const;
  static Result<MuxAckBatchMsg> Decode(const std::vector<uint8_t>& payload);
};

}  // namespace sdg::net

#endif  // SDG_NET_FRAME_H_
