#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "net/socket.h"
#include "obs/exporter.h"

namespace anc::net {
namespace {

/// Every cacheable response body leads with [u64 epoch][u64 watermark_seq]
/// (ClustersBody / MembersBody / ZoomBody share the prefix), so the server
/// can enforce a read barrier against a cached payload without decoding
/// the whole body.
bool CachedCoversBarrier(const std::string& payload, uint64_t min_seq) {
  if (min_seq == 0) return true;
  if (payload.size() < 16) return false;
  uint64_t watermark_seq = 0;
  std::memcpy(&watermark_seq, payload.data() + 8, sizeof(watermark_seq));
  return watermark_seq >= min_seq;
}

constexpr std::chrono::milliseconds kWriteTimeout{60000};

}  // namespace

NetServer::NetServer(Backend* backend, NetServerOptions options)
    : backend_(backend),
      options_(options),
      cache_(options.cache, &registry_),
      admission_(options.admission, &registry_),
      pool_(static_cast<unsigned>(
          std::max<size_t>(1, options.num_workers))) {
  requests_id_ = registry_.Counter("anc.net.requests");
  bad_frames_id_ = registry_.Counter("anc.net.bad_frames");
  conns_id_ = registry_.Counter("anc.net.connections");
  conns_shed_id_ = registry_.Counter("anc.net.connections_shed");
  request_us_ = registry_.Histogram("anc.net.request_us");
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  auto listen_fd = ListenTcp(options_.host, options_.port);
  ANC_RETURN_NOT_OK(listen_fd.status());
  auto port = LocalPort(*listen_fd);
  if (!port.ok()) {
    CloseFd(*listen_fd);
    return port.status();
  }
  listen_fd_ = *listen_fd;
  port_ = *port;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  const size_t num_workers = std::max<size_t>(1, options_.num_workers);
  // ThreadPool only has a blocking ParallelFor, so a dedicated runner
  // thread parks inside it for the server's lifetime; each iteration is
  // one worker loop.
  runner_ = std::thread([this, num_workers] {
    pool_.ParallelFor(num_workers, [this](size_t i) { WorkerLoop(i); });
  });
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void NetServer::Stop() {
  if (!running_.exchange(false)) return;
  stop_.store(true, std::memory_order_release);
  // Wake the acceptor out of accept().
  ShutdownFd(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  // Wake idle workers; workers blocked on a connection are woken by
  // shutting the connection down.
  queue_cv_.NotifyAll();
  {
    util::MutexLock lock(conns_mutex_);
    for (int fd : active_conns_) ShutdownFd(fd);
  }
  if (runner_.joinable()) runner_.join();
  // Connections accepted but never claimed by a worker.
  {
    util::MutexLock lock(queue_mutex_);
    for (int fd : conn_queue_) CloseFd(fd);
    conn_queue_.clear();
  }
}

void NetServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    auto fd = AcceptConn(listen_fd_);
    if (!fd.ok()) {
      if (stop_.load(std::memory_order_acquire)) break;
      // AcceptConn already retries EINTR, so this is a real failure —
      // possibly a persistent one like EMFILE. Back off briefly instead of
      // spinning the acceptor at 100% CPU until the condition clears.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    if (options_.conn_recv_timeout_ms > 0) {
      // Best-effort: a connection without the idle bound still serves
      // correctly, it just cannot be reclaimed from a silent peer.
      (void)SetRecvTimeout(*fd, options_.conn_recv_timeout_ms);
    }
    bool shed = false;
    {
      util::MutexLock lock(queue_mutex_);
      if (conn_queue_.size() >= options_.accept_backlog) {
        shed = true;
      } else {
        conn_queue_.push_back(*fd);
      }
    }
    if (shed) {
      // Every worker is busy and the hand-off queue is full: refusing at
      // the door beats stringing the client along.
      CloseFd(*fd);
      registry_.Add(conns_shed_id_);
      continue;
    }
    registry_.Add(conns_id_);
    queue_cv_.NotifyOne();
  }
}

void NetServer::WorkerLoop(size_t worker) {
  (void)worker;
  for (;;) {
    int fd = -1;
    {
      util::MutexLock lock(queue_mutex_);
      queue_cv_.Wait(queue_mutex_, [&] {
        queue_mutex_.AssertHeld();
        return stop_.load(std::memory_order_acquire) || !conn_queue_.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      fd = conn_queue_.front();
      conn_queue_.erase(conn_queue_.begin());
    }
    ServeConn(fd);
  }
}

void NetServer::ServeConn(int fd) {
  {
    util::MutexLock lock(conns_mutex_);
    active_conns_.push_back(fd);
  }
  std::string buffer;
  while (!stop_.load(std::memory_order_acquire)) {
    buffer.resize(kFrameHeaderBytes);
    Status status = RecvAll(fd, buffer.data(), buffer.size());
    if (!status.ok()) break;  // EOF, timeout or shutdown
    size_t frame_bytes = 0;
    if (!FrameSize(kRpcFrame, buffer, &frame_bytes).ok()) {
      registry_.Add(bad_frames_id_);
      break;  // bad magic or length: the stream is desynchronized
    }
    buffer.resize(frame_bytes);
    status = RecvAll(fd, buffer.data() + kFrameHeaderBytes,
                     frame_bytes - kFrameHeaderBytes);
    if (!status.ok()) break;
    std::string_view payload;
    status = anc::DecodeFrame(kRpcFrame, buffer, &payload);
    if (!status.ok()) {
      registry_.Add(bad_frames_id_);
      break;  // CRC mismatch: bytes on the wire cannot be trusted
    }
    std::string response;
    if (!HandleRequest(payload, &response)) {
      registry_.Add(bad_frames_id_);
      break;
    }
    if (!SendAll(fd, response.data(), response.size()).ok()) break;
  }
  {
    util::MutexLock lock(conns_mutex_);
    active_conns_.erase(
        std::remove(active_conns_.begin(), active_conns_.end(), fd),
        active_conns_.end());
  }
  CloseFd(fd);
}

bool NetServer::HandleRequest(std::string_view payload, std::string* out) {
  obs::ScopedTimer timer(&registry_, request_us_);
  ByteReader in(payload);
  RequestHeader header;
  if (!DecodeRequestHeader(&in, &header).ok()) {
    // Without a request id there is nothing to address a response to.
    return false;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  registry_.Add(requests_id_);

  ResponseHeader response;
  response.request_id = header.request_id;
  response.op = header.op;
  if (backend_->follower()) response.flags |= kFlagFollower;

  std::string body;
  Status status = admission_.AdmitTenant(header.tenant_id);
  if (status.ok()) {
    bool cacheable = false;
    std::string cache_args;
    uint64_t answer_epoch = 0;
    uint64_t min_seq = 0;
    // Peek the barrier for the cache path (QueryBody ends with min_seq).
    if (header.op == Op::kClusters || header.op == Op::kLocalCluster ||
        header.op == Op::kSmallestCluster || header.op == Op::kZoom) {
      ByteReader peek(payload);
      RequestHeader ignored;
      QueryBody query;
      if (DecodeRequestHeader(&peek, &ignored).ok() &&
          DecodeQueryBody(&peek, &query).ok() && peek.empty()) {
        min_seq = query.min_seq;
        cache_args = CanonicalQueryArgs(header.op, query);
        // Publish = invalidation: drop entries from superseded epochs the
        // moment a newer backend epoch is observed.
        const uint64_t epoch = backend_->Epoch();
        ObserveEpoch(epoch);
        if (cache_.Get(epoch, header.op, cache_args, &body) &&
            CachedCoversBarrier(body, min_seq)) {
          response.flags |= kFlagCacheHit;
          const size_t begin = BeginFrame(out, kRpcFrame);
          AppendResponseHeader(out, response);
          out->append(body);
          EndFrame(out, kRpcFrame, begin);
          return true;
        }
        body.clear();
      }
    }
    status = Dispatch(header.op, &in, &body, &cacheable, &cache_args,
                      &answer_epoch);
    if (status.ok() && cacheable && !cache_args.empty()) {
      cache_.Put(answer_epoch, header.op, cache_args, body);
    }
  }

  if (!status.ok()) {
    response.code = status.code();
    body = status.message();
  }
  out->reserve(kFrameHeaderBytes + kResponseHeaderBytes + body.size());
  const size_t begin = BeginFrame(out, kRpcFrame);
  AppendResponseHeader(out, response);
  out->append(body);
  EndFrame(out, kRpcFrame, begin);
  return true;
}

Status NetServer::Dispatch(Op op, ByteReader* in, std::string* body,
                           bool* cacheable, std::string* cache_args,
                           uint64_t* answer_epoch) {
  switch (op) {
    case Op::kPing:
    case Op::kWatermark: {
      AppendWatermarkBody(body, backend_->Watermark());
      return Status::OK();
    }
    case Op::kSubmit:
    case Op::kSubmitBatch: {
      SubmitBody submit;
      ANC_RETURN_NOT_OK(DecodeSubmitBody(in, &submit));
      if (op == Op::kSubmit && submit.activations.size() != 1) {
        return Status::InvalidArgument(
            "submit carries exactly one activation; use submit_batch");
      }
      auto ack = backend_->Submit(submit.activations.data(),
                                  submit.activations.size());
      ANC_RETURN_NOT_OK(ack.status());
      AppendSubmitAck(body, *ack);
      return Status::OK();
    }
    case Op::kFlush: {
      ANC_RETURN_NOT_OK(backend_->Flush(kWriteTimeout));
      AppendWatermarkBody(body, backend_->Watermark());
      return Status::OK();
    }
    case Op::kAwaitSeq: {
      AwaitBody await;
      ANC_RETURN_NOT_OK(DecodeAwaitBody(in, &await));
      // Clamp the client-supplied timeout: the wait holds a worker thread,
      // so an unbounded u32 (~49 days) would let a handful of requests for
      // an unreachable seq occupy the whole pool and stall Stop().
      const auto timeout = std::min<std::chrono::milliseconds::rep>(
          await.timeout_ms, kWriteTimeout.count());
      ANC_RETURN_NOT_OK(backend_->AwaitSeq(
          await.seq, std::chrono::milliseconds(timeout)));
      AppendWatermarkBody(body, backend_->Watermark());
      return Status::OK();
    }
    case Op::kFlushDurable: {
      ANC_RETURN_NOT_OK(backend_->FlushDurable(kWriteTimeout));
      AppendWatermarkBody(body, backend_->Watermark());
      return Status::OK();
    }
    case Op::kClusters:
    case Op::kLocalCluster:
    case Op::kSmallestCluster:
    case Op::kZoom: {
      QueryBody query;
      ANC_RETURN_NOT_OK(DecodeQueryBody(in, &query));
      *cache_args = CanonicalQueryArgs(op, query);
      Status status;
      if (op == Op::kClusters) {
        auto result = backend_->Clusters(query);
        ANC_RETURN_NOT_OK(result.status());
        *answer_epoch = result->epoch;
        AppendClustersBody(body, *result);
      } else if (op == Op::kZoom) {
        auto result = backend_->Zoom(query);
        ANC_RETURN_NOT_OK(result.status());
        *answer_epoch = result->epoch;
        AppendZoomBody(body, *result);
      } else {
        auto result = op == Op::kLocalCluster
                          ? backend_->LocalCluster(query)
                          : backend_->SmallestCluster(query);
        ANC_RETURN_NOT_OK(result.status());
        *answer_epoch = result->epoch;
        AppendMembersBody(body, *result);
      }
      *cacheable = true;
      return Status::OK();
    }
    case Op::kStats: {
      TextBody text;
      text.text = backend_->StatsJson();
      AppendTextBody(body, text);
      return Status::OK();
    }
    case Op::kHealth: {
      TextBody text;
      text.text = backend_->HealthJson();
      AppendTextBody(body, text);
      return Status::OK();
    }
    case Op::kMetrics: {
      // The backend's metrics plus the front-end's own (anc.net.*), one
      // Prometheus text exposition (docs/observability.md).
      TextBody text;
      text.text = obs::RenderPrometheus(backend_->Stats());
      text.text.append(obs::RenderPrometheus(registry_.Snapshot()));
      AppendTextBody(body, text);
      return Status::OK();
    }
    case Op::kPullLog: {
      PullLogBody pull;
      ANC_RETURN_NOT_OK(DecodePullLogBody(in, &pull));
      auto chunk = backend_->PullLog(pull);
      ANC_RETURN_NOT_OK(chunk.status());
      AppendLogChunkBody(body, *chunk);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown op");
}

void NetServer::ObserveEpoch(uint64_t epoch) {
  uint64_t seen = highest_epoch_.load(std::memory_order_relaxed);
  while (epoch > seen) {
    if (highest_epoch_.compare_exchange_weak(seen, epoch,
                                             std::memory_order_relaxed)) {
      cache_.InvalidateBelowEpoch(epoch);
      return;
    }
  }
}

}  // namespace anc::net
