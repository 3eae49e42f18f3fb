#include "util/framed_record.h"

#include <cctype>

#include "util/crc32c.h"

namespace anc {

Status ByteReader::Truncated() {
  return Status::InvalidArgument("payload truncated");
}

Status ByteReader::ReadBytes(size_t count, std::string_view* out) {
  if (remaining() < count) return Truncated();
  *out = std::string_view(data_ + pos_, count);
  pos_ += count;
  return Status::OK();
}

Status ByteReader::ReadString32(std::string* out) {
  uint32_t length = 0;
  std::string_view bytes;
  ANC_RETURN_NOT_OK(Read(&length));
  ANC_RETURN_NOT_OK(ReadBytes(length, &bytes));
  out->assign(bytes);
  return Status::OK();
}

size_t BeginFrame(std::string* out, const FrameFormat& format) {
  const size_t begin = out->size();
  out->append(format.prefix);
  out->append(format.length_bytes + sizeof(uint32_t), '\0');
  return begin;
}

void EndFrame(std::string* out, const FrameFormat& format, size_t begin) {
  char* header = out->data() + begin + format.prefix.size();
  const char* payload = header + format.length_bytes + sizeof(uint32_t);
  const uint64_t length = static_cast<uint64_t>(out->data() + out->size() -
                                                payload);
  const uint32_t crc = Crc32c(payload, length);
  std::memcpy(header, &length, format.length_bytes);  // little-endian
  std::memcpy(header + format.length_bytes, &crc, sizeof(crc));
}

void AppendFrame(std::string* out, const FrameFormat& format,
                 std::string_view payload) {
  const size_t begin = BeginFrame(out, format);
  out->append(payload);
  EndFrame(out, format, begin);
}

Status FrameSize(const FrameFormat& format, std::string_view data,
                 size_t* frame_bytes) {
  if (data.size() < format.header_bytes()) {
    return Status::OutOfRange("truncated frame header");
  }
  if (data.substr(0, format.prefix.size()) != format.prefix) {
    // Name the magic this build reads: its printable leading bytes.
    size_t magic = 0;
    while (magic < format.prefix.size() &&
           std::isprint(static_cast<unsigned char>(format.prefix[magic]))) {
      ++magic;
    }
    return Status::InvalidArgument(
        "unrecognized magic or version (this build reads " +
        std::string(format.prefix.substr(0, magic)) + ")");
  }
  uint64_t length = 0;
  std::memcpy(&length, data.data() + format.prefix.size(),
              format.length_bytes);
  if (length > format.max_payload) {
    return Status::InvalidArgument("frame payload of " +
                                   std::to_string(length) +
                                   " bytes exceeds the format's maximum");
  }
  *frame_bytes = format.header_bytes() + static_cast<size_t>(length);
  return Status::OK();
}

Status DecodeFrame(const FrameFormat& format, std::string_view data,
                   std::string_view* payload, size_t* consumed) {
  size_t frame_bytes = 0;
  ANC_RETURN_NOT_OK(FrameSize(format, data, &frame_bytes));
  if (data.size() < frame_bytes) {
    return Status::OutOfRange("truncated frame payload");
  }
  uint32_t crc = 0;
  std::memcpy(&crc, data.data() + format.header_bytes() - sizeof(crc),
              sizeof(crc));
  const std::string_view body =
      data.substr(format.header_bytes(), frame_bytes - format.header_bytes());
  if (Crc32c(body.data(), body.size()) != crc) {
    return Status::InvalidArgument("frame CRC mismatch");
  }
  *payload = body;
  if (consumed != nullptr) *consumed = frame_bytes;
  return Status::OK();
}

}  // namespace anc
