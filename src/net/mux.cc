#include "src/net/mux.h"

#include <chrono>
#include <utility>

namespace sdg::net {

Result<std::shared_ptr<MuxConnection>> MuxConnection::Dial(
    const std::string& host, uint16_t port, Options options) {
  SDG_ASSIGN_OR_RETURN(Socket sock, Socket::Connect(host, port));
  sock.SetRecvTimeout(options.hello_timeout_ms);
  MuxHelloMsg hello;
  hello.deployment_id = options.deployment_id;
  SDG_RETURN_IF_ERROR(
      WriteFrameBlocking(sock, FrameType::kMuxHello, hello.Encode()));
  FrameDecoder carry;
  SDG_ASSIGN_OR_RETURN(Frame reply, ReadFrameBlocking(sock, carry));
  if (reply.type != FrameType::kMuxHelloAck) {
    return UnavailableError("mux hello: unexpected reply frame");
  }
  SDG_ASSIGN_OR_RETURN(MuxHelloAckMsg ack, MuxHelloAckMsg::Decode(reply.payload));
  if (!ack.accepted) {
    return UnavailableError("mux hello rejected: " + ack.message);
  }
  sock.SetRecvTimeout(0);

  auto mux = std::shared_ptr<MuxConnection>(
      new MuxConnection(options, ack.window));
  Connection::Options copts;
  copts.mux_frames = true;
  copts.send_queue_frames = options.send_queue_frames;
  std::weak_ptr<MuxConnection> weak = mux;
  mux->conn_ = std::make_unique<Connection>(
      std::move(sock), copts,
      [weak](Frame frame) {
        if (auto self = weak.lock()) {
          self->OnFrame(std::move(frame));
        }
      },
      [weak](const Status& status) {
        if (auto self = weak.lock()) {
          self->OnError(status);
        }
      },
      std::move(carry));
  if (mux->conn_->broken()) {
    return UnavailableError("mux connection failed during setup");
  }
  return mux;
}

MuxConnection::~MuxConnection() { Close(); }

void MuxConnection::Close() {
  broken_.store(true, std::memory_order_release);
  if (conn_) {
    conn_->Close();
  }
  OnError(UnavailableError("mux connection closed"));
}

Result<std::shared_ptr<MuxStream>> MuxConnection::OpenStream(
    const MuxOpenMsg& open, Connection::FrameFn on_frame,
    Connection::ErrorFn on_error) {
  if (broken_.load(std::memory_order_acquire)) {
    return UnavailableError("mux connection is broken");
  }
  std::shared_ptr<MuxStream> stream;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t id = next_stream_++;
    stream = std::shared_ptr<MuxStream>(new MuxStream(
        shared_from_this(), id, std::move(on_frame), std::move(on_error)));
    streams_[id] = stream;
  }
  if (!conn_->SendFrame(FrameType::kMuxOpen, stream->id(), open.Encode())) {
    std::lock_guard<std::mutex> lock(mu_);
    streams_.erase(stream->id());
    return UnavailableError("mux open: connection broke before send");
  }
  MuxOpenAckMsg ack;
  if (!stream->AwaitOpen(options_.open_timeout_ms, &ack)) {
    std::lock_guard<std::mutex> lock(mu_);
    streams_.erase(stream->id());
    return UnavailableError("mux open: no ack (timeout or broken link)");
  }
  if (!ack.accepted) {
    std::lock_guard<std::mutex> lock(mu_);
    streams_.erase(stream->id());
    return FailedPreconditionError("mux open rejected: " + ack.message);
  }
  stream->acked_ts_ = ack.acked_ts;
  stream->GrantCredits(ack.window == 0 ? default_window_ : ack.window);
  return stream;
}

std::shared_ptr<MuxStream> MuxConnection::FindStream(uint32_t stream_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    return nullptr;
  }
  auto stream = it->second.lock();
  if (!stream) {
    streams_.erase(it);  // abandoned handle — stop routing to it
  }
  return stream;
}

void MuxConnection::OnFrame(Frame frame) {
  if (frame.type == FrameType::kMuxAckBatch) {
    auto batch = MuxAckBatchMsg::Decode(frame.payload);
    if (!batch.ok()) {
      conn_->Abort(batch.status());
      return;
    }
    // Synthesize the per-stream kAck each consumer already understands.
    for (const auto& entry : batch->entries) {
      AckMsg ack;
      ack.acked_ts = entry.acked_ts;
      Frame synth;
      synth.type = FrameType::kAck;
      synth.stream = entry.stream;
      synth.payload = ack.Encode();
      Deliver(entry.stream, std::move(synth));
    }
    return;
  }
  Deliver(frame.stream, std::move(frame));
}

void MuxConnection::Deliver(uint32_t stream_id, Frame frame) {
  auto stream = FindStream(stream_id);
  if (!stream) {
    return;  // stream abandoned or never opened; drop
  }
  switch (frame.type) {
    case FrameType::kMuxOpenAck: {
      auto ack = MuxOpenAckMsg::Decode(frame.payload);
      if (!ack.ok()) {
        conn_->Abort(ack.status());
        return;
      }
      stream->CompleteOpen(*ack);
      return;
    }
    case FrameType::kMuxWindow: {
      auto grant = MuxWindowMsg::Decode(frame.payload);
      if (!grant.ok()) {
        conn_->Abort(grant.status());
        return;
      }
      stream->GrantCredits(grant->credits);
      return;
    }
    default:
      stream->OnFrame(std::move(frame));
      return;
  }
}

void MuxConnection::OnError(const Status& status) {
  broken_.store(true, std::memory_order_release);
  std::vector<std::shared_ptr<MuxStream>> streams;
  {
    std::lock_guard<std::mutex> lock(mu_);
    streams.reserve(streams_.size());
    for (auto& [id, weak] : streams_) {
      if (auto stream = weak.lock()) {
        streams.push_back(std::move(stream));
      }
    }
  }
  for (auto& stream : streams) {
    stream->FailStream(status);
  }
}

// --- MuxStream ---------------------------------------------------------------

bool MuxStream::Send(FrameType type, std::vector<uint8_t> payload) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return credits_ > 0 || broken_.load(std::memory_order_acquire);
    });
    if (broken_.load(std::memory_order_acquire)) {
      return false;
    }
    --credits_;
  }
  // Send outside the stream lock: the loop thread takes it to grant credits,
  // and must never be blocked behind a sender waiting on socket capacity.
  return conn_->conn_->SendFrame(type, id_, std::move(payload));
}

bool MuxStream::TrySend(FrameType type, const std::vector<uint8_t>& payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_.load(std::memory_order_acquire) || credits_ == 0) {
      return false;
    }
    --credits_;
  }
  return conn_->conn_->TrySendFrame(type, id_, payload);
}

bool MuxStream::broken() const {
  return broken_.load(std::memory_order_acquire) || conn_->broken();
}

void MuxStream::CompleteOpen(const MuxOpenAckMsg& ack) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_ack_ = ack;
    open_done_ = true;
  }
  cv_.notify_all();
}

void MuxStream::GrantCredits(uint32_t credits) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    credits_ += credits;
  }
  cv_.notify_all();
}

void MuxStream::Detach() {
  std::lock_guard<std::mutex> lock(callback_mu_);
  detached_ = true;
}

void MuxStream::OnFrame(Frame frame) {
  std::lock_guard<std::mutex> lock(callback_mu_);
  if (!detached_ && on_frame_) {
    on_frame_(std::move(frame));
  }
}

void MuxStream::FailStream(const Status& status) {
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    broken_.store(true, std::memory_order_release);
    fire = !error_fired_;
    error_fired_ = true;
  }
  cv_.notify_all();
  if (!fire) {
    return;
  }
  std::lock_guard<std::mutex> lock(callback_mu_);
  if (!detached_ && on_error_) {
    on_error_(status);
  }
}

bool MuxStream::AwaitOpen(int timeout_ms, MuxOpenAckMsg* out) {
  std::unique_lock<std::mutex> lock(mu_);
  bool done = cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return open_done_ || broken_.load(std::memory_order_acquire);
  });
  if (!done || !open_done_) {
    return false;
  }
  *out = open_ack_;
  return true;
}

// --- MuxPool -----------------------------------------------------------------

Result<std::shared_ptr<MuxConnection>> MuxPool::Get(const std::string& host,
                                                    uint16_t port) {
  const std::string key = host + ":" + std::to_string(port);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = conns_.find(key);
  if (it != conns_.end()) {
    if (!it->second->broken()) {
      return it->second;
    }
    conns_.erase(it);
  }
  SDG_ASSIGN_OR_RETURN(auto conn, MuxConnection::Dial(host, port, base_));
  conns_[key] = conn;
  return conn;
}

void MuxPool::CloseAll() {
  std::unordered_map<std::string, std::shared_ptr<MuxConnection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (auto& [key, conn] : conns) {
    conn->Close();
  }
}

}  // namespace sdg::net
