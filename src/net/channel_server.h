// ChannelServer: the receiver half of inter-node dataflow edges over TCP.
//
// Listens on one port per node process. The first frame of an accepted
// connection selects its role:
//
//  - kMuxHello: a data connection from one peer process. The server checks
//    the protocol version and grants the per-stream window; after that every
//    frame carries a stream id. Each kMuxOpen names one channel's identity
//    (the Handshake): the on_handshake callback validates it and returns
//    this node's durable watermark for that source, which the open-ack
//    carries back. kData frames of the stream are decoded in wire order and
//    handed to on_batch — typically straight into Deployment::InjectRemote,
//    which routes them through the same batched dispatch as local traffic.
//  - kJoin: a member's control channel (elastic membership).
//  - kMigrateBegin: an inbound partition migration session.
//  - kRequest / kReplicaSubscribe: a serve-path client or replica feed.
//
// Threading model: the listening fd and every peer socket live on the
// shared epoll loop; first-frame exchanges run on short-lived setup threads
// (they block on the client, and the client side may be an executor task —
// on a small pool, a setup-as-task would be a circular wait); and each
// stream, client and feed owns a Schedulable dispatch entity — the loop
// thread only enqueues raw frames, the executor decodes and delivers. A
// data stream's backlog is bounded by its credit window. A client or feed
// peer whose frame backlog crosses a high watermark drops read interest on
// its socket; the kernel receive buffer fills and TCP flow control
// backpressures the sender — the wire-level equivalent of a full mailbox.
//
// Ack(watermark) sends every data stream its watermark after the node has
// made it durable (checkpoint persisted), coalesced into one kMuxAckBatch
// per peer; senders trim their upstream-backup logs on it. Acks are
// at-least-once: a lost ack is repaired by the watermark carried in the
// next open-ack.
#ifndef SDG_NET_CHANNEL_SERVER_H_
#define SDG_NET_CHANNEL_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/net/connection.h"
#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/runtime/data_item.h"
#include "src/runtime/executor.h"

namespace sdg::net {

struct ChannelServerOptions {
  uint16_t port = 0;  // 0 = ephemeral; see port()
  size_t send_queue_frames = 16;
  // Initial flow-control window (frames in flight) granted to each logical
  // stream of a multiplexed peer. Bounds per-stream backlog on this side —
  // mux streams never pause the shared socket's read interest, so the
  // window is the only thing keeping a hot stream's frames from piling up.
  uint32_t mux_stream_window = 64;
};

class ChannelServer : private EventLoop::Handler {
 public:
  // Returns the durable watermark for the opening stream's source (0 if
  // never seen); an error Status rejects the open with its message.
  using HandshakeFn = std::function<Result<uint64_t>(const Handshake& hs)>;
  // One decoded batch, in wire order, from the stream identified by the
  // handshake. Runs on the stream's executor entity; per-source FIFO order
  // is preserved, and a slow on_batch backpressures that stream (through its
  // credit window) without stalling its siblings.
  using BatchFn =
      std::function<void(const Handshake& hs,
                         std::vector<runtime::DataItem> items)>;
  // Membership: validates a kJoin and returns the member id the joiner is
  // registered under (an error rejects the join with its message). The
  // connection then stays open as that member's control channel.
  using JoinFn = std::function<Result<uint32_t>(const JoinMsg& join)>;
  // A control/reply frame arriving on a member's channel (on the loop
  // thread) or on a worker's reply stream (on that stream's executor
  // entity). It must not block — record and notify.
  using MemberFrameFn = std::function<void(uint32_t member_id, Frame frame)>;
  // An inbound migration session (first frame kMigrateBegin). Takes ownership
  // of the socket plus the decoder carrying any bytes already read, and runs
  // the whole session synchronously on the setup thread; sessions are
  // expected to be bounded (the source closes after commit/abort).
  using MigrationFn = std::function<void(Socket socket, FrameDecoder carry,
                                         const MigrateBeginMsg& begin)>;
  // Serve path. A connection whose first frame is a kRequest becomes a client
  // peer: every request (including the first) is decoded off the IO thread on
  // the peer's dispatch entity and handed to on_request, tagged with a
  // server-assigned client id for the response route back. A connection whose
  // first frame is kReplicaSubscribe becomes a replica-feed peer: subsequent
  // kReplicaEpoch frames are decoded the same way and handed to on_feed.
  // Client/feed peers share the wire-backpressure dispatch with data peers.
  using RequestFn = std::function<void(uint64_t client_id, RequestMsg req)>;
  using FeedFn = std::function<void(const ReplicaSubscribeMsg& sub,
                                    ReplicaEpochMsg msg)>;

  explicit ChannelServer(ChannelServerOptions options);
  ~ChannelServer() override;

  ChannelServer(const ChannelServer&) = delete;
  ChannelServer& operator=(const ChannelServer&) = delete;

  // The membership/migration callbacks are optional; without them kJoin and
  // kMigrateBegin connections are dropped (pre-elastic behaviour).
  Status Start(HandshakeFn on_handshake, BatchFn on_batch,
               JoinFn on_join = nullptr, MemberFrameFn on_member = nullptr,
               MigrationFn on_migration = nullptr);

  // Broadcasts the durable watermark to every live sender.
  void Ack(uint64_t watermark);

  // Acks only the streams whose handshake matches (source_task,
  // source_instance) — per-partition watermark spaces stay independent
  // because each partition rides its own stream.
  void AckSource(uint32_t source_task, uint32_t source_instance,
                 uint64_t watermark);

  // Batch variant: one call per checkpoint instead of one per source. Every
  // matching stream's watermark is coalesced into a single kMuxAckBatch
  // frame per peer.
  struct SourceAck {
    uint32_t source_task = 0;
    uint32_t source_instance = 0;
    uint64_t watermark = 0;
  };
  void AckSources(const std::vector<SourceAck>& acks);

  // Sends one control frame on a joined member's channel; false when the
  // member is unknown or its channel is broken/backed up.
  bool SendToMember(uint32_t member_id, FrameType type,
                    const std::vector<uint8_t>& payload);

  size_t MemberCount();

  // Installs the serve-path handlers. May be called after Start (the gateway
  // layers on top of an already-listening head); until it is called, client
  // and feed connections are accepted but any frame they deliver aborts the
  // connection — a silently-eaten feed base would leave every later delta
  // inapplicable, so the peer must redial (and replay) a live gateway.
  void SetServeHandlers(RequestFn on_request, FeedFn on_feed);

  // Sends one kResponse frame back to a connected client. Non-blocking:
  // false when the client is gone or its send queue is full (a slow reader
  // sheds its own responses; the client-side timeout retries).
  bool SendToClient(uint64_t client_id, const std::vector<uint8_t>& payload);

  // Stops accepting, closes every connection, waits out in-flight setups,
  // stream opens and dispatch slices.
  void Stop();

  uint16_t port() const { return port_; }
  uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct Peer;

  // Per-peer frame dispatch: the loop thread pushes raw frames, the executor
  // decodes and delivers. Crossing kPauseFrames frames pauses the socket's
  // read interest; draining below kResumeFrames resumes it.
  class PeerDispatch : public runtime::Schedulable {
   public:
    // `wire_pause`: whether a deep backlog drops the socket's read interest
    // (client and feed peers). Off for mux streams — many streams share one
    // socket, so one slow stream must not stop its siblings' reads; the
    // per-stream credit window bounds the backlog instead. `on_consumed` (may be null) runs
    // after each slice with the number of frames it dispatched — the mux
    // credit-grant hook.
    PeerDispatch(ChannelServer* server, Peer* peer,
                 runtime::Executor* executor, bool wire_pause = true,
                 std::function<void(size_t)> on_consumed = nullptr);
    // Published after the Connection exists (frames can already be arriving
    // by then — pause/resume is just skipped until the pointer lands).
    void SetConnection(Connection* conn) {
      conn_.store(conn, std::memory_order_release);
    }
    void PushFrame(Frame frame);  // loop thread
    // Hold/Release bracket peer installation: while held, PushFrame queues
    // frames but never schedules a slice, so no handler can run (and try to
    // respond through peers_) before the peer is actually in peers_.
    void Hold();
    void Release();
    void Drain();  // close frames source, then AwaitIdle

   protected:
    bool RunSlice() override;

   private:
    static constexpr size_t kPauseFrames = 32;
    static constexpr size_t kResumeFrames = 8;
    static constexpr size_t kFramesPerSlice = 8;

    ChannelServer* const server_;
    Peer* const peer_;
    const bool wire_pause_;
    const std::function<void(size_t)> on_consumed_;
    std::atomic<Connection*> conn_{nullptr};
    std::mutex mu_;
    std::deque<Frame> frames_;
    bool paused_ = false;
    bool closed_ = false;
    bool held_ = false;
  };

  struct Peer {
    Handshake handshake;  // data streams
    std::unique_ptr<PeerDispatch> dispatch;  // streams, clients, feeds
    std::unique_ptr<Connection> conn;        // every peer but a stream
    // Membership channel (kJoin) peers route their frames to on_member_.
    // Also set on a reply stream (kind kMuxStreamReply) so its kResponse
    // frames take the same route — off the member control connection, same
    // handler.
    bool is_member = false;
    uint32_t member_id = 0;
    // Serve-path roles (first frame kRequest / kReplicaSubscribe).
    bool is_client = false;
    uint64_t client_id = 0;
    bool is_feed = false;
    ReplicaSubscribeMsg subscribe;
    // Data connection (first frame kMuxHello): one shared socket carrying
    // many logical streams. Each stream is a child Peer (conn == nullptr,
    // framed through the parent) with its own dispatch entity and credit
    // window. kMuxOpen is handled on a short-lived dedicated thread — never
    // the shared executor, whose workers may be the very tasks blocking on
    // the open-ack; ClosePeer waits out in-flight handlers via the counter.
    bool is_mux = false;
    std::mutex mux_mu;  // guards streams/retired_streams/opens_inflight
    // The Connection constructor registers with the loop, so frames (and the
    // open threads they spawn) can race the `conn` member assignment in
    // SetupMuxPeer; open threads wait for this flag before touching conn.
    bool mux_conn_ready = false;
    uint32_t mux_opens_inflight = 0;
    std::condition_variable mux_open_cv;
    std::map<uint32_t, std::shared_ptr<Peer>> streams;
    // Superseded streams (a reopened channel identity): no longer routed to,
    // but kept alive until ClosePeer so in-flight dispatch slices stay safe.
    std::vector<std::shared_ptr<Peer>> retired_streams;
    // Child-stream fields.
    uint32_t mux_stream = 0;
    uint32_t mux_consumed = 0;  // frames consumed since the last credit grant
  };

  // Listener readiness (loop thread): accept until EAGAIN.
  void OnReadable() override;

  // Reads the first frame of a fresh socket and installs the peer its type
  // selects; runs on a short-lived setup thread so a slow client cannot
  // stall the loop.
  void SetupPeer(Socket socket);
  // Closes the connection, then drains the dispatch entity. Safe with or
  // without peers_mutex_ held (touches only the peer).
  void ClosePeer(Peer& peer);
  void ReapBrokenPeersLocked();
  // Sends each data stream the watermark `watermark_of` returns for its
  // handshake (none: skip the stream), one kMuxAckBatch per peer.
  void AckStreams(const std::function<std::optional<uint64_t>(
                      const Handshake&)>& watermark_of);

  // Installs a freshly joined member peer; runs on the setup thread.
  void SetupMember(Socket socket, FrameDecoder carry, const Frame& first);
  // Runs the hello exchange and installs a mux parent peer (setup thread).
  void SetupMuxPeer(Socket socket, FrameDecoder carry, const Frame& first);
  // Loop thread: routes one frame of a mux connection to its stream's
  // dispatch entity (kMuxOpen goes to the parent's control entity).
  void RouteMuxFrame(Peer& peer, Frame frame);
  // Control entity (executor): validates a stream open, installs the child
  // stream Peer, replies with the open-ack carrying watermark + window.
  void HandleMuxOpen(Peer& peer, const Frame& frame);
  // Installs a client or replica-feed peer; runs on the setup thread. The
  // first frame is re-dispatched through the peer's normal frame path so it
  // keeps wire order with whatever the carry decoder already buffered.
  void SetupServePeer(Socket socket, FrameDecoder carry, Frame first);
  // Decodes and routes one frame for any dispatched peer kind (runs on the
  // peer's dispatch entity).
  void DispatchPeerFrame(Peer& peer, Frame frame);

  const ChannelServerOptions options_;
  HandshakeFn on_handshake_;
  BatchFn on_batch_;
  JoinFn on_join_;
  MemberFrameFn on_member_;
  MigrationFn on_migration_;
  runtime::Executor* executor_ = nullptr;
  EventLoop* loop_ = nullptr;

  Listener listener_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> accepted_{0};

  std::mutex peers_mutex_;
  std::list<std::shared_ptr<Peer>> peers_;
  std::vector<std::thread> setup_threads_;

  // Serve-path handlers are installed after Start, while connections may
  // already be arriving; reads snapshot the shared_ptr under serve_mutex_.
  struct ServeHandlers {
    RequestFn on_request;
    FeedFn on_feed;
  };
  std::mutex serve_mutex_;
  std::shared_ptr<const ServeHandlers> serve_;
  std::atomic<uint64_t> next_client_id_{1};
};

}  // namespace sdg::net

#endif  // SDG_NET_CHANNEL_SERVER_H_
