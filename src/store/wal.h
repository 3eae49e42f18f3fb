#ifndef ANC_STORE_WAL_H_
#define ANC_STORE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "activation/activeness.h"
#include "util/status.h"

namespace anc::store {

/// A durability position in the ticket stream: every ticket <= seq is
/// covered, and `time` is the highest activation timestamp among covered
/// records. The store's analogue of serve::Watermark (the store layer must
/// not depend on serve; the server converts at the boundary).
struct Mark {
  uint64_t seq = 0;
  double time = 0.0;
};

/// WAL segment layout (docs/durability.md):
///
///   [8B magic "ANCWAL01"][u64 base_seq]          segment header
///   repeat: [u32 payload_len][u32 crc32c(payload)][payload]
///   payload: [u64 first_seq][u32 count][count x (u32 edge, f64 time)]
///
/// Records are contiguous ticket runs [first_seq, first_seq + count).
/// Everything is little-endian host byte order (matching core/serialization).
inline constexpr char kWalMagic[8] = {'A', 'N', 'C', 'W', 'A', 'L', '0', '1'};
inline constexpr size_t kWalSegmentHeaderBytes = 16;
inline constexpr size_t kWalFrameHeaderBytes = 8;
inline constexpr size_t kWalEntryBytes = 12;  // u32 edge + f64 time
/// Corruption guard: a frame length beyond this is treated as an invalid
/// tail, never allocated.
inline constexpr uint32_t kMaxWalPayloadBytes = 64u << 20;

/// One decoded WAL record: a contiguous run of tickets and their
/// activations (the batch the serve writer drained in one wakeup).
struct WalRecord {
  uint64_t first_seq = 0;
  std::vector<Activation> activations;
  uint64_t last_seq() const { return first_seq + activations.size() - 1; }
};

/// What a segment scan saw.
struct WalSegmentInfo {
  uint64_t base_seq = 0;     ///< header: first ticket this segment may hold
  uint64_t records = 0;      ///< valid records decoded
  uint64_t activations = 0;  ///< entries across valid records
  uint64_t last_seq = 0;     ///< highest ticket decoded (0 if none)
  double last_time = 0.0;    ///< highest timestamp decoded
  uint64_t valid_bytes = 0;  ///< prefix ending at the last valid frame
  uint64_t file_bytes = 0;   ///< on-disk size at scan time
  bool torn_tail = false;    ///< trailing torn/corrupt bytes were present
};

/// Encodes one record as a standalone WAL frame — the exact
/// [u32 payload_len][u32 crc32c(payload)][payload] bytes WalAppender puts
/// into a segment. Shared by the appender and the replication log stream
/// (net::, docs/networking.md), so followers apply byte-identical frames.
void AppendWalFrame(std::string* out, const Activation* data, size_t count,
                    uint64_t first_seq);

/// Decodes one frame from an in-memory buffer — the inverse of
/// AppendWalFrame and the one frame check ReadWalSegment also runs (short
/// header, oversized length, short payload, CRC mismatch and inconsistent
/// count all fail with InvalidArgument; nothing past a bad frame can be
/// trusted). On success *consumed (when non-null) is the frame's size.
Status DecodeWalFrame(std::string_view data, WalRecord* record,
                      size_t* consumed);
Result<WalRecord> DecodeWalFrame(const uint8_t* data, size_t size,
                                 size_t* consumed);

/// Scans a segment front to back, invoking `fn` for every valid record in
/// order; decoding stops at the first invalid frame (short header, zero or
/// oversized length, short payload, CRC mismatch, inconsistent count) —
/// nothing past a bad frame can be trusted. With `truncate_torn_tail` the
/// file is truncated to the valid prefix, the recovery-time cleanup for a
/// write torn by a crash. A non-OK status from `fn` aborts the scan and is
/// returned.
Result<WalSegmentInfo> ReadWalSegment(
    const std::string& path, const std::function<Status(const WalRecord&)>& fn,
    bool truncate_torn_tail = false);

/// Append side of one WAL segment. Appends buffer in user space (the group
/// commit buffer); Flush() writes buffered frames to the file, Sync()
/// additionally fsyncs — only then are records durable. Not thread-safe:
/// DurableStore serializes access under its own mutex.
///
/// Crash seams (store::TestHooks): kPostAppendPreFsync fires in Append
/// (records accepted then lost un-flushed), kMidRecord fires in Flush (a
/// torn partial frame reaches the file). A fired crash is terminal: every
/// later call fails Unavailable and the file is left untouched.
class WalAppender {
 public:
  /// Creates a new segment at `path` (truncating any existing file) and
  /// writes its header. `base_seq` is the first ticket the segment will
  /// hold, also encoded in the segment's file name by the store.
  static Result<std::unique_ptr<WalAppender>> Create(const std::string& path,
                                                     uint64_t base_seq);
  ~WalAppender();

  WalAppender(const WalAppender&) = delete;
  WalAppender& operator=(const WalAppender&) = delete;

  /// Buffers one record: `count` activations covering tickets
  /// [first_seq, first_seq + count). Ticket runs must be non-decreasing
  /// across appends (gaps are fine — dropped tickets carry no data).
  Status Append(const Activation* data, size_t count, uint64_t first_seq);

  /// Writes all buffered frames to the file (no fsync).
  Status Flush();

  /// Flush + fsync: everything appended so far becomes durable.
  Status Sync();

  /// Flushes, syncs and closes the fd. Idempotent; called by the dtor.
  Status Close();

  /// Simulated-death hatch: marks the appender crashed so Close() drops
  /// the buffer and skips the final sync, freezing on-disk state exactly
  /// as a process death would (DurableStore's dtor uses this after a
  /// store-level crash seam fired).
  void Abandon() { crashed_ = true; }

  /// Highest ticket accepted into the buffer / made durable.
  Mark appended() const { return appended_; }
  Mark durable() const { return durable_; }
  size_t buffered_records() const { return frame_sizes_.size(); }
  uint64_t buffered_bytes() const { return buffer_.size(); }
  /// Bytes durably part of the segment (header + flushed frames; torn
  /// bytes from a simulated crash are excluded).
  uint64_t flushed_bytes() const { return flushed_bytes_; }
  bool crashed() const { return crashed_; }
  const std::string& path() const { return path_; }

 private:
  WalAppender(std::string path, int fd, uint64_t base_seq);

  std::string path_;
  int fd_;
  uint64_t base_seq_;
  std::string buffer_;               // pending frames, not yet written
  std::vector<size_t> frame_sizes_;  // per-frame byte counts within buffer_
  Mark appended_;
  Mark flushed_;  // written to the fd, not necessarily fsynced
  Mark durable_;
  uint64_t flushed_bytes_ = kWalSegmentHeaderBytes;
  bool crashed_ = false;
  bool closed_ = false;
};

}  // namespace anc::store

#endif  // ANC_STORE_WAL_H_
