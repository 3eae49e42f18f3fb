#ifndef ANC_UTIL_FRAMED_RECORD_H_
#define ANC_UTIL_FRAMED_RECORD_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace anc {

/// The one byte codec behind every on-disk and wire format
/// (docs/durability.md "Framed records"): little-endian append helpers, a
/// bounds-checked reader, and the CRC frame
///
///   [prefix][u32 | u64 payload length][u32 crc32c(payload)][payload]
///
/// that the RPC protocol, WAL records, manifests, migration journals,
/// index snapshots and tiered heads all share.

// --- Writing ----------------------------------------------------------------

template <typename T>
void PutPod(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

inline void PutU8(std::string* out, uint8_t v) { PutPod(out, v); }
inline void PutU16(std::string* out, uint16_t v) { PutPod(out, v); }
inline void PutU32(std::string* out, uint32_t v) { PutPod(out, v); }
inline void PutU64(std::string* out, uint64_t v) { PutPod(out, v); }
inline void PutI32(std::string* out, int32_t v) { PutPod(out, v); }
inline void PutF64(std::string* out, double v) { PutPod(out, v); }

/// [u64 count][count raw elements], one run per vector.
template <typename... Ts>
void PutVec(std::string* out, const std::vector<Ts>&... values) {
  static_assert((std::is_trivially_copyable_v<Ts> && ...));
  ((PutPod<uint64_t>(out, values.size()),
    out->append(reinterpret_cast<const char*>(values.data()),
                values.size() * sizeof(Ts))),
   ...);
}

/// [u32 length][bytes].
inline void PutString32(std::string* out, std::string_view value) {
  PutU32(out, static_cast<uint32_t>(value.size()));
  out->append(value);
}

// --- Reading ----------------------------------------------------------------

/// Sequential reader over untrusted bytes: every read validates the
/// remaining length first and fails with InvalidArgument instead of reading
/// past the end, and no count read from the bytes can drive an allocation
/// larger than the bytes themselves. The buffer must outlive the views
/// ReadBytes hands out.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  size_t remaining() const { return size_ - pos_; }
  bool empty() const { return pos_ == size_; }

  /// Reads each argument in order.
  template <typename... Ts>
  Status Read(Ts*... out) {
    if ((ReadOne(out) && ...)) return Status::OK();
    return Truncated();
  }
  Status ReadU16(uint16_t* out) { return Read(out); }
  Status ReadU32(uint32_t* out) { return Read(out); }
  Status ReadU64(uint64_t* out) { return Read(out); }
  Status ReadI32(int32_t* out) { return Read(out); }
  Status ReadF64(double* out) { return Read(out); }

  /// A view of the next `count` bytes.
  Status ReadBytes(size_t count, std::string_view* out);

  /// The inverse of PutVec, one vector per argument.
  template <typename... Ts>
  Status ReadVec(std::vector<Ts>*... out) {
    if ((ReadOneVec(out) && ...)) return Status::OK();
    return Truncated();
  }

  /// The inverse of PutString32.
  Status ReadString32(std::string* out);

 private:
  template <typename T>
  bool ReadOne(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  template <typename T>
  bool ReadOneVec(std::vector<T>* out) {
    uint64_t count = 0;
    if (!ReadOne(&count) || count > remaining() / sizeof(T)) return false;
    out->resize(count);
    if (count > 0) std::memcpy(out->data(), data_ + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return true;
  }
  static Status Truncated();

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --- Frames -----------------------------------------------------------------

/// One frame layout. The prefix holds the format's fixed leading bytes —
/// its magic, and for versioned files the u32 version too — and may be
/// empty (WAL records, whose segment carries the magic once).
struct FrameFormat {
  std::string_view prefix;
  uint8_t length_bytes;  ///< 4 or 8
  uint64_t max_payload;  ///< longer lengths are corrupt, never allocated

  size_t header_bytes() const { return prefix.size() + length_bytes + 4; }
};

/// Builds a frame in place at the end of *out: BeginFrame appends the
/// prefix and room for the length and CRC and returns where the frame
/// starts; the caller appends the payload; EndFrame fills in the length
/// and CRC.
size_t BeginFrame(std::string* out, const FrameFormat& format);
void EndFrame(std::string* out, const FrameFormat& format, size_t begin);

/// Appends `payload` framed.
void AppendFrame(std::string* out, const FrameFormat& format,
                 std::string_view payload);

/// Validates the frame header at the front of `data` and gives the whole
/// frame's size (header + payload), so a stream reader knows how many
/// bytes to fetch. OutOfRange: the header is incomplete. InvalidArgument:
/// wrong prefix, or a length above the format's maximum.
Status FrameSize(const FrameFormat& format, std::string_view data,
                 size_t* frame_bytes);

/// Decodes one frame from the front of `data`: on OK, *payload views into
/// `data` (zero-copy) and *consumed (when non-null) is the frame's size.
/// OutOfRange means incomplete — `data` holds only a prefix of a frame;
/// read more and retry. InvalidArgument means corrupt: wrong prefix,
/// oversized length or CRC mismatch.
Status DecodeFrame(const FrameFormat& format, std::string_view data,
                   std::string_view* payload, size_t* consumed = nullptr);

}  // namespace anc

#endif  // ANC_UTIL_FRAMED_RECORD_H_
