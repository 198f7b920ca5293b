// Client side of the data transport: one TCP socket per peer pair, many
// logical streams. This is the only way a data frame moves between
// processes.
//
// A MuxConnection is dialled once per (host, port) peer and carries every
// logical channel to that peer over a single Connection in mux framing
// (13-byte headers with a stream id — see frame.h). The kMuxHello /
// kMuxHelloAck preamble rides the plain header: the server checks the
// protocol version and grants the per-stream window, then both sides switch
// to mux framing.
//
// Streams are opened with kMuxOpen / kMuxOpenAck. A data stream carries the
// channel identity (the receiver's Handshake), and its open-ack returns the
// receiver's durable watermark — RemoteChannel replays its log past it (§5
// as the transport's reconnect path). A reply stream carries kResponse
// frames (strong-read results) worker -> head, off the membership control
// channel.
//
// Flow control is per-stream credit windows: the open-ack grants an initial
// window in frames, each data-bearing frame spends one credit, and the
// receiver returns credits (kMuxWindow) as its executor consumes frames. A
// hot stream out of credits blocks only its own sender — the shared socket
// keeps moving for its siblings. Cumulative acks arrive coalesced
// (kMuxAckBatch, one frame for many streams) and are synthesized back into
// per-stream kAck frames here, so stream consumers see one kAck per stream.
//
// All stream callbacks run on the event-loop thread (the Connection
// contract). MuxConnection never repairs itself: when the shared socket
// breaks, every stream fails, and the owner redials via MuxPool::Get, which
// drops the dead connection first.
#ifndef SDG_NET_MUX_H_
#define SDG_NET_MUX_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/connection.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace sdg::net {

class MuxStream;

class MuxConnection : public std::enable_shared_from_this<MuxConnection> {
 public:
  struct Options {
    uint64_t deployment_id = 0;
    // Staged-frame capacity of the shared socket. Larger than Connection's
    // default because many streams share the buffer; per-stream fairness
    // comes from the credit windows, not this bound.
    size_t send_queue_frames = 256;
    // Blocking-read timeout for the hello exchange.
    int hello_timeout_ms = 5000;
    // Bound on the wait for a stream's open-ack.
    int open_timeout_ms = 10000;
  };

  // Dials the peer and runs the hello exchange. Any failure (peer down,
  // version mismatch) surfaces as a non-ok Result; the caller retries.
  static Result<std::shared_ptr<MuxConnection>> Dial(const std::string& host,
                                                     uint16_t port,
                                                     Options options);

  ~MuxConnection();
  MuxConnection(const MuxConnection&) = delete;
  MuxConnection& operator=(const MuxConnection&) = delete;

  // Opens one logical stream, blocking until the server's open-ack (bounded
  // by open_timeout_ms). `on_frame` sees every server->client frame for the
  // stream — kAck synthesized from kMuxAckBatch — on the loop thread.
  // `on_error` fires once if the shared connection breaks. A rejected open
  // returns kFailedPrecondition with the server's reason.
  Result<std::shared_ptr<MuxStream>> OpenStream(const MuxOpenMsg& open,
                                                Connection::FrameFn on_frame,
                                                Connection::ErrorFn on_error);

  bool broken() const { return broken_.load(std::memory_order_acquire); }

  // Closes the shared socket; every stream fails. Idempotent.
  void Close();

 private:
  friend class MuxStream;

  MuxConnection(Options options, uint32_t default_window)
      : options_(options),
        default_window_(default_window == 0 ? 64 : default_window) {}

  void OnFrame(Frame frame);
  void OnError(const Status& status);
  // Routes one frame to its stream (dropping frames for abandoned streams).
  void Deliver(uint32_t stream_id, Frame frame);
  std::shared_ptr<MuxStream> FindStream(uint32_t stream_id);

  const Options options_;
  const uint32_t default_window_;
  std::unique_ptr<Connection> conn_;
  std::atomic<bool> broken_{false};

  std::mutex mu_;
  uint32_t next_stream_ = 1;
  // weak: an abandoned stream handle expires here and its frames are
  // dropped, instead of a shared_ptr cycle pinning the connection.
  std::map<uint32_t, std::weak_ptr<MuxStream>> streams_;
};

// Handle for one logical stream. Senders on a single stream must serialize
// themselves (frames interleave whole-frame across streams, FIFO within
// one).
class MuxStream {
 public:
  // Sends one data-bearing frame, blocking while the stream is out of
  // flow-control credits or the shared socket's staging buffer is full.
  // False when the connection broke — the caller's log keeps the frame
  // replayable, exactly the Connection::SendFrame contract.
  bool Send(FrameType type, std::vector<uint8_t> payload);

  // Best-effort variant: never waits for credits or buffer space.
  bool TrySend(FrameType type, const std::vector<uint8_t>& payload);

  // Stops the stream's callbacks: once Detach returns, on_frame/on_error
  // never run again (one already in flight has finished). Call it before
  // the callbacks' owner goes away; never from inside one of them.
  void Detach();

  uint32_t id() const { return id_; }
  // The receiver's durable watermark from the open-ack (data streams).
  uint64_t acked_ts() const { return acked_ts_; }
  bool broken() const;

 private:
  friend class MuxConnection;

  MuxStream(std::shared_ptr<MuxConnection> conn, uint32_t id,
            Connection::FrameFn on_frame, Connection::ErrorFn on_error)
      : conn_(std::move(conn)),
        id_(id),
        on_frame_(std::move(on_frame)),
        on_error_(std::move(on_error)) {}

  // Loop-thread entry points, called by MuxConnection::Deliver.
  void CompleteOpen(const MuxOpenAckMsg& ack);
  void GrantCredits(uint32_t credits);
  void OnFrame(Frame frame);
  void FailStream(const Status& status);
  // OpenStream's blocking wait; returns false on timeout/breakage.
  bool AwaitOpen(int timeout_ms, MuxOpenAckMsg* out);

  const std::shared_ptr<MuxConnection> conn_;
  const uint32_t id_;
  const Connection::FrameFn on_frame_;
  const Connection::ErrorFn on_error_;
  uint64_t acked_ts_ = 0;  // written once by CompleteOpen before OpenStream returns

  std::mutex mu_;
  std::condition_variable cv_;
  bool open_done_ = false;
  MuxOpenAckMsg open_ack_;
  uint64_t credits_ = 0;
  std::atomic<bool> broken_{false};  // also read lock-free by broken()
  bool error_fired_ = false;

  // Held while a callback runs, so Detach can wait one out. The connection
  // may still hold a strong ref to a stream whose owner has dropped it.
  std::mutex callback_mu_;
  bool detached_ = false;
};

// One shared MuxConnection per peer, keyed by host:port. Broken entries are
// dropped and redialled on the next Get, so every channel to a restarted
// peer lands back on one fresh socket. Thread-safe; Get holds the pool lock
// across a dial (peer dials are rare — flips and reconnects).
class MuxPool {
 public:
  explicit MuxPool(MuxConnection::Options base) : base_(base) {}
  ~MuxPool() { CloseAll(); }

  Result<std::shared_ptr<MuxConnection>> Get(const std::string& host,
                                             uint16_t port);

  void CloseAll();

 private:
  const MuxConnection::Options base_;
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<MuxConnection>> conns_;
};

}  // namespace sdg::net

#endif  // SDG_NET_MUX_H_
