#include "store/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "store/test_hooks.h"
#include "util/atomic_file.h"
#include "util/framed_record.h"

namespace anc::store {

namespace {

/// A WAL record frame: no prefix (the segment header carries the magic).
constexpr FrameFormat kWalFrame{std::string_view(), 4, kMaxWalPayloadBytes};

Status CrashStatus(CrashPoint point) {
  return Status::Unavailable(std::string("simulated crash at ") +
                             CrashPointName(point));
}

}  // namespace

void AppendWalFrame(std::string* out, const Activation* data, size_t count,
                    uint64_t first_seq) {
  const size_t begin = BeginFrame(out, kWalFrame);
  PutU64(out, first_seq);
  PutU32(out, static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    PutU32(out, static_cast<uint32_t>(data[i].edge));
    PutF64(out, data[i].time);
  }
  EndFrame(out, kWalFrame, begin);
}

Status DecodeWalFrame(std::string_view data, WalRecord* record,
                      size_t* consumed) {
  std::string_view payload;
  size_t frame_bytes = 0;
  Status status = DecodeFrame(kWalFrame, data, &payload, &frame_bytes);
  if (!status.ok()) {
    // A partial frame is as untrustworthy as a corrupt one here.
    return Status::InvalidArgument("WAL frame: " + status.message());
  }
  ByteReader in(payload);
  uint32_t count = 0;
  if (!in.Read(&record->first_seq, &count).ok() || count == 0 ||
      in.remaining() != static_cast<uint64_t>(count) * kWalEntryBytes) {
    return Status::InvalidArgument("WAL frame: inconsistent count");
  }
  record->activations.resize(count);
  for (Activation& activation : record->activations) {
    uint32_t edge = 0;
    // In bounds: the count check above sized the payload exactly.
    (void)in.Read(&edge, &activation.time);
    activation.edge = edge;
  }
  if (consumed != nullptr) *consumed = frame_bytes;
  return Status::OK();
}

Result<WalRecord> DecodeWalFrame(const uint8_t* data, size_t size,
                                 size_t* consumed) {
  WalRecord record;
  ANC_RETURN_NOT_OK(DecodeWalFrame(
      std::string_view(reinterpret_cast<const char*>(data), size), &record,
      consumed));
  return record;
}

Result<WalSegmentInfo> ReadWalSegment(
    const std::string& path, const std::function<Status(const WalRecord&)>& fn,
    bool truncate_torn_tail) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open WAL segment " + path);
  }

  WalSegmentInfo info;
  char header[kWalSegmentHeaderBytes];
  if (std::fread(header, 1, sizeof(header), file) != sizeof(header) ||
      std::memcmp(header, kWalMagic, sizeof(kWalMagic)) != 0) {
    std::fclose(file);
    return Status::InvalidArgument(path + ": not a WAL segment");
  }
  std::memcpy(&info.base_seq, header + sizeof(kWalMagic), sizeof(uint64_t));
  info.valid_bytes = kWalSegmentHeaderBytes;

  // Streamed one frame at a time into a reused buffer: the header says how
  // many bytes to fetch, then DecodeWalFrame validates the whole frame.
  std::string frame;
  WalRecord record;
  while (true) {
    frame.resize(kWalFrameHeaderBytes);
    const size_t got = std::fread(frame.data(), 1, frame.size(), file);
    if (got == 0) break;  // clean end of log
    size_t frame_bytes = 0;
    if (got != frame.size() ||
        !FrameSize(kWalFrame, frame, &frame_bytes).ok()) {
      info.torn_tail = true;
      break;
    }
    frame.resize(frame_bytes);
    const size_t rest = frame_bytes - kWalFrameHeaderBytes;
    if (std::fread(frame.data() + kWalFrameHeaderBytes, 1, rest, file) !=
            rest ||
        !DecodeWalFrame(frame, &record, nullptr).ok()) {
      info.torn_tail = true;
      break;
    }
    for (const Activation& activation : record.activations) {
      info.last_time = std::max(info.last_time, activation.time);
    }
    info.valid_bytes += frame_bytes;
    ++info.records;
    info.activations += record.activations.size();
    info.last_seq = std::max(info.last_seq, record.last_seq());
    if (fn != nullptr) {
      const Status status = fn(record);
      if (!status.ok()) {
        std::fclose(file);
        return status;
      }
    }
  }
  if (std::fseek(file, 0, SEEK_END) == 0) {
    info.file_bytes = static_cast<uint64_t>(std::ftell(file));
  }
  std::fclose(file);

  if (info.torn_tail && truncate_torn_tail) {
    if (::truncate(path.c_str(),
                   static_cast<off_t>(info.valid_bytes)) != 0) {
      return Status::IoError("cannot truncate torn tail of " + path + ": " +
                             std::strerror(errno));
    }
  }
  return info;
}

Result<std::unique_ptr<WalAppender>> WalAppender::Create(
    const std::string& path, uint64_t base_seq) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create WAL segment " + path + ": " +
                           std::strerror(errno));
  }
  std::string header(kWalMagic, sizeof(kWalMagic));
  PutU64(&header, base_seq);
  const Status written = WriteAll(fd, header.data(), header.size(), path);
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::IoError("fsync failed on new segment " + path);
  }
  return std::unique_ptr<WalAppender>(new WalAppender(path, fd, base_seq));
}

WalAppender::WalAppender(std::string path, int fd, uint64_t base_seq)
    : path_(std::move(path)), fd_(fd), base_seq_(base_seq) {
  appended_.seq = flushed_.seq = durable_.seq =
      base_seq_ > 0 ? base_seq_ - 1 : 0;
}

// Destructors cannot report; callers needing the final sync's status call
// Close() themselves first (Close is idempotent).
WalAppender::~WalAppender() { (void)Close(); }

Status WalAppender::Append(const Activation* data, size_t count,
                           uint64_t first_seq) {
  if (crashed_) return Status::Unavailable("WAL crashed (simulated)");
  if (closed_) return Status::FailedPrecondition("WAL segment closed");
  if (count == 0) return Status::InvalidArgument("empty WAL record");

  const size_t before = buffer_.size();
  AppendWalFrame(&buffer_, data, count, first_seq);
  frame_sizes_.push_back(buffer_.size() - before);
  double max_time = appended_.time;
  for (size_t i = 0; i < count; ++i) {
    max_time = std::max(max_time, data[i].time);
  }

  appended_.seq = std::max(appended_.seq, first_seq + count - 1);
  appended_.time = max_time;

  if (TestHooks::ShouldCrash(CrashPoint::kPostAppendPreFsync)) {
    // The record was accepted (buffered) but the process dies before any
    // write or fsync: it is gone. On-disk state is untouched.
    crashed_ = true;
    return CrashStatus(CrashPoint::kPostAppendPreFsync);
  }
  return Status::OK();
}

Status WalAppender::Flush() {
  if (crashed_) return Status::Unavailable("WAL crashed (simulated)");
  if (closed_) return Status::FailedPrecondition("WAL segment closed");
  if (buffer_.empty()) return Status::OK();

  if (TestHooks::ShouldCrash(CrashPoint::kMidRecord)) {
    // Tear the first pending frame: its header plus part of its payload
    // reach the file, the rest never does. flushed/durable marks do not
    // advance, so the durable contract is preserved.
    const size_t frame = frame_sizes_.front();
    const size_t torn = std::max<size_t>(kWalFrameHeaderBytes + 1, frame / 2);
    // Best-effort by design: the simulated death happens mid-write anyway.
    (void)WriteAll(fd_, buffer_.data(), std::min(torn, frame - 1), path_);
    crashed_ = true;
    return CrashStatus(CrashPoint::kMidRecord);
  }

  const Status written = WriteAll(fd_, buffer_.data(), buffer_.size(), path_);
  if (!written.ok()) return written;
  flushed_bytes_ += buffer_.size();
  flushed_ = appended_;
  buffer_.clear();
  frame_sizes_.clear();
  return Status::OK();
}

Status WalAppender::Sync() {
  ANC_RETURN_NOT_OK(Flush());
  if (flushed_.seq == durable_.seq && flushed_.time == durable_.time) {
    return Status::OK();  // nothing new reached the file since last fsync
  }
  if (::fsync(fd_) != 0) {
    return Status::IoError("fsync failed on " + path_ + ": " +
                           std::strerror(errno));
  }
  durable_ = flushed_;
  return Status::OK();
}

Status WalAppender::Close() {
  if (closed_) return Status::OK();
  Status status = Status::OK();
  if (!crashed_) status = Sync();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  closed_ = true;
  return status;
}

}  // namespace anc::store
