// Connection: one framed, full-duplex TCP connection between nodes.
//
// The socket is nonblocking and registered on an epoll loop (the shared one
// unless Options::loop names another). Reads feed the FrameDecoder and
// dispatch complete frames from the loop thread; writes stage as {inline
// header, payload} entries in a bounded deque and flush as scatter-gather
// writev batches, so SendFrame never copies the payload into a contiguous
// frame. The sender's own thread flushes inline when the kernel buffer has
// room (no epoll round-trip on an idle socket); EPOLLOUT is armed only for
// the residual. No threads are owned: a process with hundreds of
// connections pays for one IO thread in total.
//
// Backpressure: SendFrame blocks while the send buffer holds
// `send_queue_frames` frames, the same discipline as BoundedQueue mailbox
// pushes, extended across the wire.
//
// On any socket or codec error the connection turns `broken`: buffered
// frames are dropped (the sender's OutputBuffer log retains every unacked
// item, so the reconnect-replay path re-sends them; see remote_channel.h),
// and on_error fires exactly once. A Connection never repairs itself; its
// owner dials a fresh one.
//
// Close() drains first: frames already accepted into the send buffer are
// flushed (bounded by a few seconds) before the socket is cut, so
// send-then-immediately-stop loses nothing on a healthy link. A broken
// connection closes immediately.
#ifndef SDG_NET_CONNECTION_H_
#define SDG_NET_CONNECTION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace sdg::net {

class Connection : private EventLoop::Handler {
 public:
  struct Options {
    // Frames the connection may buffer before Send blocks. Each data frame is
    // one delivery batch, so this bounds in-flight bytes the same way a
    // mailbox capacity bounds queued items.
    size_t send_queue_frames = 64;
    // Read chunk size.
    size_t read_buffer_bytes = 64 * 1024;
    // Event loop driving the socket; nullptr = EventLoop::Shared().
    EventLoop* loop = nullptr;
    // Multiplexed framing: 13-byte headers carrying a stream id. Both ends
    // switch to it after the kMuxHello exchange, before the Connection is
    // constructed (see mux.h).
    bool mux_frames = false;
  };

  // Called one complete frame at a time on the loop thread. Must not block
  // for long (it stalls every connection on the loop): hand heavy work to
  // the executor.
  using FrameFn = std::function<void(Frame frame)>;
  // Called once, from whichever thread hits the failure first.
  using ErrorFn = std::function<void(const Status& status)>;

  // Takes ownership of a connected socket and any bytes `carry` already read
  // past the synchronous first-frame exchange.
  Connection(Socket socket, Options options, FrameFn on_frame,
             ErrorFn on_error, FrameDecoder carry = {});
  ~Connection() override;

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Zero-copy framed send: encodes the (9- or 13-byte, per Options::
  // mux_frames) header inline in the queue entry and stages the payload by
  // move — the flush path gathers header+payload straight into writev, so
  // the payload bytes are never copied again. Blocks while the send buffer
  // is full (backpressure). Returns false if the connection is broken or
  // closed: the frame is NOT sent and the caller's log keeps it replayable.
  // `stream` is ignored unless mux_frames.
  bool SendFrame(FrameType type, uint32_t stream,
                 std::vector<uint8_t> payload);

  // Non-blocking variant for best-effort traffic (acks, responses): false
  // when the buffer is full, broken, or closed. Never waits.
  bool TrySendFrame(FrameType type, uint32_t stream,
                    const std::vector<uint8_t>& payload);

  // Pauses/resumes read-side dispatch. While paused the kernel receive
  // buffer fills and TCP flow control pushes back on the sender —
  // wire-level backpressure for a receiver whose executor entity is behind.
  void SetReadInterest(bool want_read);

  // Flushes frames already accepted (unless broken; bounded wait), then cuts
  // the socket and deregisters from the loop. Idempotent.
  void Close();

  // Marks the connection broken and cuts the socket immediately — no drain,
  // no deregistration — so the peer observes a closed link and can redial.
  // Unlike Close(), safe to call from inside on_frame. Close() must still
  // run later for teardown.
  void Abort(const Status& status) { Fail(status); }

  bool broken() const { return broken_.load(std::memory_order_acquire); }

 private:
  // Loop-thread callbacks.
  void OnReadable() override;
  void OnWritable() override;
  void OnError() override;

  void Fail(const Status& status);
  void DispatchDecoded();  // drains decoder_ into on_frame_; Fails on codec error

  Socket socket_;
  int fd_ = -1;  // cached: Deregister needs it while socket_ is being torn down
  const Options options_;
  EventLoop* const loop_;
  FrameFn on_frame_;
  ErrorFn on_error_;
  FrameDecoder decoder_;
  std::vector<uint8_t> read_buf_;

  std::atomic<bool> broken_{false};
  std::atomic<bool> error_fired_{false};
  std::atomic<bool> closed_{false};

  // One staged frame: a small inline header (encoded at enqueue time) plus
  // the payload by reference. The flush path gathers both into an iovec
  // batch, so payload bytes are written straight from here — no recopy.
  struct SendEntry {
    uint8_t header[16] = {};
    uint8_t header_len = 0;
    std::vector<uint8_t> payload;
    size_t size() const { return header_len + payload.size(); }
  };
  // Stages one frame; false when broken, closed, or (may_block == false)
  // full.
  bool Enqueue(FrameType type, uint32_t stream, std::vector<uint8_t> payload,
               bool may_block);
  bool EnqueueLocked(std::unique_lock<std::mutex>& lock, SendEntry entry,
                     bool may_block);
  // Drains as much of send_q_ as the kernel accepts via writev, then
  // arms/disarms EPOLLOUT to match the residual. On socket error releases
  // `lock`, runs Fail(), and returns false.
  bool FlushLocked(std::unique_lock<std::mutex>& lock);

  std::mutex send_mu_;
  std::condition_variable send_cv_;
  std::deque<SendEntry> send_q_;
  size_t send_offset_ = 0;     // bytes of send_q_.front() already written
  bool write_armed_ = false;   // EPOLLOUT currently requested
  bool want_read_ = true;      // EPOLLIN currently requested
};

// Blocking helper for the synchronous first-frame exchange (mux hello, join,
// migration sessions) that precedes the event-loop regime: reads whole
// frames through `decoder` until one is complete. Bytes read past the frame
// stay buffered in `decoder` — hand it to the Connection afterwards.
Result<Frame> ReadFrameBlocking(Socket& socket, FrameDecoder& decoder);

// Encodes and writes one frame synchronously (first-frame exchanges and
// blocking control sockets; the data path goes through a Connection).
Status WriteFrameBlocking(Socket& socket, FrameType type,
                          const std::vector<uint8_t>& payload);

}  // namespace sdg::net

#endif  // SDG_NET_CONNECTION_H_
