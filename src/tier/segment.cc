#include "tier/segment.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "store/test_hooks.h"
#include "util/atomic_file.h"
#include "util/crc32c.h"
#include "util/framed_record.h"

namespace anc::tier {

namespace {

uint64_t PageKey(uint16_t column_id, uint32_t page_index) {
  return (uint64_t{column_id} << 32) | page_index;
}

}  // namespace

// --- SegmentWriter ---------------------------------------------------------

SegmentWriter::SegmentWriter(std::string path, int fd)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp"), fd_(fd) {}

Result<std::unique_ptr<SegmentWriter>> SegmentWriter::Create(
    const std::string& path) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    return Status::IoError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  auto writer = std::unique_ptr<SegmentWriter>(new SegmentWriter(path, fd));
  std::string header(kSegmentMagic, sizeof(kSegmentMagic));
  PutU32(&header, kSegmentVersion);
  PutU32(&header, 0);  // reserved
  ANC_RETURN_NOT_OK(WriteAll(fd, header.data(), header.size(), tmp));
  writer->offset_ = header.size();
  return writer;
}

SegmentWriter::~SegmentWriter() {
  if (fd_ >= 0) ::close(fd_);
  if (!finished_) ::unlink(tmp_path_.c_str());
}

Status SegmentWriter::AddPage(uint16_t column_id, uint16_t elem_size,
                              uint32_t page_index, const void* data,
                              uint32_t bytes) {
  ANC_CHECK(!finished_, "AddPage after Finish");
  // Keep every payload 8-byte aligned in the file so mmap'd doubles read
  // directly.
  const uint64_t aligned = (offset_ + 7) & ~uint64_t{7};
  if (aligned != offset_) {
    static const char kZeros[8] = {};
    ANC_RETURN_NOT_OK(WriteAll(fd_, kZeros, aligned - offset_, tmp_path_));
    offset_ = aligned;
  }
  ANC_RETURN_NOT_OK(WriteAll(fd_, data, bytes, tmp_path_));
  SegmentPage page;
  page.column_id = column_id;
  page.elem_size = elem_size;
  page.page_index = page_index;
  page.offset = offset_;
  page.bytes = bytes;
  page.crc = Crc32c(data, bytes);
  dir_.push_back(page);
  offset_ += bytes;
  return Status::OK();
}

void SegmentWriter::AbandonForCrash() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  finished_ = true;  // keep the dtor from tidying the "crash" away
}

Status SegmentWriter::Finish() {
  ANC_CHECK(!finished_, "Finish called twice");
  if (store::TestHooks::ShouldCrash(store::CrashPoint::kMidSegmentWrite)) {
    // Simulated process death mid-spill: close the descriptor but leave the
    // truncated temp file on disk exactly as a crash would.
    AbandonForCrash();
    return Status::Unavailable("simulated crash: mid-segment-write");
  }
  // Directory + tail, then the shared temp → fsync → rename → dir fsync.
  std::string tail;
  tail.reserve(dir_.size() * kSegmentDirEntryBytes + kSegmentTailBytes);
  for (const SegmentPage& page : dir_) {
    PutU16(&tail, page.column_id);
    PutU16(&tail, page.elem_size);
    PutU32(&tail, page.page_index);
    PutU64(&tail, page.offset);
    PutU32(&tail, page.bytes);
    PutU32(&tail, page.crc);
  }
  const uint32_t dir_crc = Crc32c(tail.data(), tail.size());
  PutU64(&tail, offset_);
  PutU32(&tail, static_cast<uint32_t>(dir_.size()));
  PutU32(&tail, dir_crc);
  tail.append(kSegmentFooterMagic, sizeof(kSegmentFooterMagic));
  const Status status =
      AtomicReplace(path_, tmp_path_, [this, &tail](const std::string& tmp) {
        const Status written = WriteAll(fd_, tail.data(), tail.size(), tmp);
        ::close(fd_);
        fd_ = -1;
        return written;
      });
  if (status.ok()) finished_ = true;
  return status;
}

// --- Decoding --------------------------------------------------------------

bool PageCrcMatches(const void* data, uint32_t bytes, uint32_t crc) {
  return Crc32c(data, bytes) == crc;
}

Status DecodeSegment(const char* data, size_t size,
                     std::vector<SegmentPage>* pages, bool verify_pages) {
  pages->clear();
  if (size < kSegmentHeaderBytes + kSegmentTailBytes) {
    return Status::IoError("segment too small");
  }
  if (std::memcmp(data, kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return Status::IoError("bad segment magic");
  }
  uint32_t version = 0;
  std::memcpy(&version, data + sizeof(kSegmentMagic), sizeof(version));
  if (version != kSegmentVersion) {
    return Status::IoError("unsupported segment version " +
                           std::to_string(version));
  }
  const char* tail = data + size - kSegmentTailBytes;
  if (std::memcmp(tail + 16, kSegmentFooterMagic,
                  sizeof(kSegmentFooterMagic)) != 0) {
    return Status::IoError("bad segment footer magic (torn segment)");
  }
  uint64_t dir_offset = 0;
  uint32_t dir_count = 0;
  uint32_t dir_crc = 0;
  // In bounds: the size check above covers the whole tail.
  (void)ByteReader(tail, kSegmentTailBytes)
      .Read(&dir_offset, &dir_count, &dir_crc);
  if (dir_count > kMaxSegmentPages) {
    return Status::IoError("segment directory count out of range");
  }
  const uint64_t dir_bytes = uint64_t{dir_count} * kSegmentDirEntryBytes;
  if (dir_offset < kSegmentHeaderBytes ||
      dir_offset > size - kSegmentTailBytes ||
      dir_bytes != size - kSegmentTailBytes - dir_offset) {
    return Status::IoError("segment directory out of bounds");
  }
  const char* dir = data + dir_offset;
  if (Crc32c(dir, dir_bytes) != dir_crc) {
    return Status::IoError("segment directory CRC mismatch");
  }
  pages->reserve(dir_count);
  ByteReader entries(dir, dir_bytes);
  for (uint32_t i = 0; i < dir_count; ++i) {
    SegmentPage page;
    // In bounds: dir_bytes is exactly dir_count entries.
    (void)entries.Read(&page.column_id, &page.elem_size, &page.page_index,
                       &page.offset, &page.bytes, &page.crc);
    if (page.bytes > kMaxSegmentPageBytes ||
        page.offset < kSegmentHeaderBytes || page.offset > dir_offset ||
        page.bytes > dir_offset - page.offset) {
      return Status::IoError("segment page " + std::to_string(i) +
                             " out of bounds");
    }
    if (page.elem_size == 0 || page.bytes % page.elem_size != 0) {
      return Status::IoError("segment page " + std::to_string(i) +
                             " has a malformed element size");
    }
    page.data = data + page.offset;
    if (verify_pages && !PageCrcMatches(page.data, page.bytes, page.crc)) {
      return Status::IoError("segment page " + std::to_string(i) +
                             " CRC mismatch");
    }
    pages->push_back(page);
  }
  return Status::OK();
}

// --- SegmentReader ---------------------------------------------------------

Result<std::unique_ptr<SegmentReader>> SegmentReader::Open(
    const std::string& path, bool verify_pages) {
  auto file = MappedFile::Open(path);
  if (!file.ok()) return file.status();
  auto reader =
      std::unique_ptr<SegmentReader>(new SegmentReader(std::move(*file)));
  Status decoded =
      DecodeSegment(reader->file_->data(), reader->file_->size(),
                    &reader->pages_, verify_pages);
  if (!decoded.ok()) {
    return Status(decoded.code(), path + ": " + decoded.message());
  }
  for (size_t i = 0; i < reader->pages_.size(); ++i) {
    const SegmentPage& page = reader->pages_[i];
    if (!reader->by_key_.emplace(PageKey(page.column_id, page.page_index), i)
             .second) {
      return Status::IoError(path + ": duplicate page (column " +
                             std::to_string(page.column_id) + ", page " +
                             std::to_string(page.page_index) + ")");
    }
  }
  return reader;
}

const SegmentPage* SegmentReader::Find(uint16_t column_id,
                                       uint32_t page_index) const {
  const auto it = by_key_.find(PageKey(column_id, page_index));
  if (it == by_key_.end()) return nullptr;
  return &pages_[it->second];
}

Status SegmentReader::VerifyAll() const {
  for (size_t i = 0; i < pages_.size(); ++i) {
    const SegmentPage& page = pages_[i];
    if (!PageCrcMatches(page.data, page.bytes, page.crc)) {
      return Status::IoError(path() + ": page " + std::to_string(i) +
                             " CRC mismatch");
    }
  }
  return Status::OK();
}

}  // namespace anc::tier
