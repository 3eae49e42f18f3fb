#include "net/client.h"


#include "net/socket.h"

namespace anc::net {

// --- Client -----------------------------------------------------------------

Client::Client(int fd, Options options) : options_(options), fd_(fd) {}

Client::~Client() {
  util::MutexLock lock(mutex_);
  CloseFd(fd_);
  fd_ = -1;
}

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                Options options) {
  auto fd = ConnectTcp(host, port);
  ANC_RETURN_NOT_OK(fd.status());
  if (options.recv_timeout_ms > 0) {
    Status status = SetRecvTimeout(*fd, options.recv_timeout_ms);
    if (!status.ok()) {
      CloseFd(*fd);
      return status;
    }
  }
  return std::unique_ptr<Client>(new Client(*fd, options));
}

Result<std::string> Client::Call(Op op, const std::string& body) {
  util::MutexLock lock(mutex_);
  if (broken_) {
    return Status::Unavailable("connection is broken (earlier transport "
                               "error); reconnect");
  }
  RequestHeader header;
  header.request_id = next_request_id_++;
  header.tenant_id = options_.tenant_id;
  header.op = op;

  std::string frame;
  frame.reserve(kFrameHeaderBytes + kRequestHeaderBytes + body.size());
  const size_t begin = BeginFrame(&frame, kRpcFrame);
  AppendRequestHeader(&frame, header);
  frame.append(body);
  EndFrame(&frame, kRpcFrame, begin);

  Status status = SendAll(fd_, frame.data(), frame.size());
  if (!status.ok()) {
    broken_ = true;
    return status;
  }

  // Response: read the fixed header to learn the length, then the payload,
  // then validate the assembled frame (magic / bound / CRC) with the same
  // decoder the server and fuzzer use.
  std::string buffer(kFrameHeaderBytes, '\0');
  status = RecvAll(fd_, buffer.data(), buffer.size());
  size_t frame_bytes = 0;
  if (status.ok()) {
    status = FrameSize(kRpcFrame, buffer, &frame_bytes);
  }
  if (status.ok()) {
    buffer.resize(frame_bytes);
    status = RecvAll(fd_, buffer.data() + kFrameHeaderBytes,
                     frame_bytes - kFrameHeaderBytes);
  }
  std::string_view payload_view;
  if (status.ok()) {
    status = anc::DecodeFrame(kRpcFrame, buffer, &payload_view);
  }
  if (!status.ok()) {
    broken_ = true;
    return status;
  }

  ByteReader in(payload_view);
  ResponseHeader response;
  status = DecodeResponseHeader(&in, &response);
  if (!status.ok()) {
    broken_ = true;
    return status;
  }
  if (response.request_id != header.request_id || response.op != op) {
    broken_ = true;
    return Status::Internal("response does not match the request in flight");
  }
  last_flags_.store(response.flags, std::memory_order_relaxed);
  std::string_view rest;
  ANC_RETURN_NOT_OK(in.ReadBytes(in.remaining(), &rest));
  if (response.code != StatusCode::kOk) {
    // The connection is fine — the server answered; the *call* failed.
    return Status(response.code, std::string(rest));
  }
  return std::string(rest);
}

namespace {

/// Decodes a response body, requiring the whole payload to be consumed.
template <typename BodyT, typename DecodeFn>
Result<BodyT> DecodeBody(const std::string& payload, const DecodeFn& decode) {
  ByteReader in(payload);
  BodyT body;
  ANC_RETURN_NOT_OK(decode(&in, &body));
  if (!in.empty()) {
    return Status::InvalidArgument("trailing bytes after response body");
  }
  return body;
}

}  // namespace

Result<WatermarkBody> Client::Ping() {
  auto payload = Call(Op::kPing, "");
  ANC_RETURN_NOT_OK(payload.status());
  return DecodeBody<WatermarkBody>(*payload, DecodeWatermarkBody);
}

Result<SubmitAck> Client::Submit(const Activation& activation) {
  SubmitBody body;
  body.activations.push_back(activation);
  std::string bytes;
  AppendSubmitBody(&bytes, body);
  auto payload = Call(Op::kSubmit, bytes);
  ANC_RETURN_NOT_OK(payload.status());
  return DecodeBody<SubmitAck>(*payload, DecodeSubmitAck);
}

Result<SubmitAck> Client::SubmitBatch(
    const std::vector<Activation>& activations) {
  SubmitBody body;
  body.activations = activations;
  std::string bytes;
  AppendSubmitBody(&bytes, body);
  auto payload = Call(Op::kSubmitBatch, bytes);
  ANC_RETURN_NOT_OK(payload.status());
  return DecodeBody<SubmitAck>(*payload, DecodeSubmitAck);
}

Result<WatermarkBody> Client::Flush() {
  auto payload = Call(Op::kFlush, "");
  ANC_RETURN_NOT_OK(payload.status());
  return DecodeBody<WatermarkBody>(*payload, DecodeWatermarkBody);
}

Result<WatermarkBody> Client::AwaitSeq(uint64_t seq, uint32_t timeout_ms) {
  AwaitBody body;
  body.seq = seq;
  body.timeout_ms = timeout_ms;
  std::string bytes;
  AppendAwaitBody(&bytes, body);
  auto payload = Call(Op::kAwaitSeq, bytes);
  ANC_RETURN_NOT_OK(payload.status());
  return DecodeBody<WatermarkBody>(*payload, DecodeWatermarkBody);
}

Result<WatermarkBody> Client::FlushDurable() {
  auto payload = Call(Op::kFlushDurable, "");
  ANC_RETURN_NOT_OK(payload.status());
  return DecodeBody<WatermarkBody>(*payload, DecodeWatermarkBody);
}

Result<WatermarkBody> Client::Watermark() {
  auto payload = Call(Op::kWatermark, "");
  ANC_RETURN_NOT_OK(payload.status());
  return DecodeBody<WatermarkBody>(*payload, DecodeWatermarkBody);
}

Result<ClustersBody> Client::Clusters(uint32_t level, uint64_t min_seq) {
  QueryBody query;
  query.level = level;
  query.min_seq = min_seq;
  std::string bytes;
  AppendQueryBody(&bytes, query);
  auto payload = Call(Op::kClusters, bytes);
  ANC_RETURN_NOT_OK(payload.status());
  return DecodeBody<ClustersBody>(*payload, DecodeClustersBody);
}

Result<MembersBody> Client::LocalCluster(uint32_t node, uint32_t level,
                                         uint64_t min_seq) {
  QueryBody query;
  query.node = node;
  query.level = level;
  query.min_seq = min_seq;
  std::string bytes;
  AppendQueryBody(&bytes, query);
  auto payload = Call(Op::kLocalCluster, bytes);
  ANC_RETURN_NOT_OK(payload.status());
  return DecodeBody<MembersBody>(*payload, DecodeMembersBody);
}

Result<MembersBody> Client::SmallestCluster(uint32_t node, uint32_t min_size,
                                            uint64_t min_seq) {
  QueryBody query;
  query.node = node;
  query.min_size = min_size;
  query.min_seq = min_seq;
  std::string bytes;
  AppendQueryBody(&bytes, query);
  auto payload = Call(Op::kSmallestCluster, bytes);
  ANC_RETURN_NOT_OK(payload.status());
  return DecodeBody<MembersBody>(*payload, DecodeMembersBody);
}

Result<ZoomBody> Client::Zoom(uint32_t node, uint64_t min_seq) {
  QueryBody query;
  query.node = node;
  query.min_seq = min_seq;
  std::string bytes;
  AppendQueryBody(&bytes, query);
  auto payload = Call(Op::kZoom, bytes);
  ANC_RETURN_NOT_OK(payload.status());
  return DecodeBody<ZoomBody>(*payload, DecodeZoomBody);
}

Result<std::string> Client::StatsJson() {
  auto payload = Call(Op::kStats, "");
  ANC_RETURN_NOT_OK(payload.status());
  auto body = DecodeBody<TextBody>(*payload, DecodeTextBody);
  ANC_RETURN_NOT_OK(body.status());
  return std::move(body->text);
}

Result<std::string> Client::HealthJson() {
  auto payload = Call(Op::kHealth, "");
  ANC_RETURN_NOT_OK(payload.status());
  auto body = DecodeBody<TextBody>(*payload, DecodeTextBody);
  ANC_RETURN_NOT_OK(body.status());
  return std::move(body->text);
}

Result<std::string> Client::Metrics() {
  auto payload = Call(Op::kMetrics, "");
  ANC_RETURN_NOT_OK(payload.status());
  auto body = DecodeBody<TextBody>(*payload, DecodeTextBody);
  ANC_RETURN_NOT_OK(body.status());
  return std::move(body->text);
}

Result<LogChunkBody> Client::PullLog(uint64_t after_seq, uint32_t max_records,
                                     uint64_t follower_id) {
  PullLogBody body;
  body.after_seq = after_seq;
  body.max_records = max_records;
  body.follower_id = follower_id;
  std::string bytes;
  AppendPullLogBody(&bytes, body);
  auto payload = Call(Op::kPullLog, bytes);
  ANC_RETURN_NOT_OK(payload.status());
  return DecodeBody<LogChunkBody>(*payload, DecodeLogChunkBody);
}

// --- ReplicaSetClient -------------------------------------------------------

Result<std::unique_ptr<ReplicaSetClient>> ReplicaSetClient::Connect(
    const std::string& leader_host, uint16_t leader_port,
    const std::vector<std::pair<std::string, uint16_t>>& followers,
    Client::Options options) {
  auto client = std::unique_ptr<ReplicaSetClient>(new ReplicaSetClient());
  auto leader = Client::Connect(leader_host, leader_port, options);
  ANC_RETURN_NOT_OK(leader.status());
  client->leader_ = std::move(*leader);
  for (const auto& [host, port] : followers) {
    auto follower = Client::Connect(host, port, options);
    ANC_RETURN_NOT_OK(follower.status());
    client->followers_.push_back(std::move(*follower));
  }
  return client;
}

void ReplicaSetClient::RaiseMinSeq(uint64_t seq) {
  uint64_t current = min_seq_.load(std::memory_order_relaxed);
  while (seq > current &&
         !min_seq_.compare_exchange_weak(current, seq,
                                         std::memory_order_relaxed)) {
  }
}

void ReplicaSetClient::NoteWrite(const SubmitAck& ack) {
  if (ack.accepted > 0) RaiseMinSeq(ack.last_seq);
}

Result<SubmitAck> ReplicaSetClient::Submit(const Activation& activation) {
  auto ack = leader_->Submit(activation);
  if (ack.ok()) NoteWrite(*ack);
  return ack;
}

Result<SubmitAck> ReplicaSetClient::SubmitBatch(
    const std::vector<Activation>& activations) {
  auto ack = leader_->SubmitBatch(activations);
  if (ack.ok()) NoteWrite(*ack);
  return ack;
}

Result<WatermarkBody> ReplicaSetClient::Flush() { return leader_->Flush(); }

Result<WatermarkBody> ReplicaSetClient::FlushDurable() {
  return leader_->FlushDurable();
}

template <typename BodyT, typename Fn>
Result<BodyT> ReplicaSetClient::ReadWithFallback(const Fn& read) {
  const uint64_t barrier = min_seq();
  if (!followers_.empty()) {
    const size_t pick =
        next_follower_.fetch_add(1, std::memory_order_relaxed) %
        followers_.size();
    Result<BodyT> result = read(*followers_[pick], barrier);
    if (result.ok()) {
      follower_reads_.fetch_add(1, std::memory_order_relaxed);
      return result;
    }
    // Fall back only where the leader can do better: barrier refused /
    // follower overloaded (Unavailable), transport died (IoError), or the
    // reply was unusable (Internal). Deterministic failures — a bad node
    // or level is InvalidArgument on every replica — fail identically on
    // the leader, so forwarding them only doubles its load.
    const StatusCode code = result.status().code();
    if (code != StatusCode::kUnavailable && code != StatusCode::kIoError &&
        code != StatusCode::kInternal) {
      return result;
    }
    leader_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  return read(*leader_, barrier);
}

Result<ClustersBody> ReplicaSetClient::Clusters(uint32_t level) {
  return ReadWithFallback<ClustersBody>(
      [&](Client& c, uint64_t barrier) { return c.Clusters(level, barrier); });
}

Result<MembersBody> ReplicaSetClient::LocalCluster(uint32_t node,
                                                   uint32_t level) {
  return ReadWithFallback<MembersBody>([&](Client& c, uint64_t barrier) {
    return c.LocalCluster(node, level, barrier);
  });
}

Result<MembersBody> ReplicaSetClient::SmallestCluster(uint32_t node,
                                                      uint32_t min_size) {
  return ReadWithFallback<MembersBody>([&](Client& c, uint64_t barrier) {
    return c.SmallestCluster(node, min_size, barrier);
  });
}

Result<ZoomBody> ReplicaSetClient::Zoom(uint32_t node) {
  return ReadWithFallback<ZoomBody>(
      [&](Client& c, uint64_t barrier) { return c.Zoom(node, barrier); });
}

}  // namespace anc::net
