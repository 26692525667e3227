// Checksummed message frames and a tiny binary wire format — the
// transport vocabulary of the multi-process engine's depth barrier.
//
// A frame on the wire is [u32 magic][u32 payload length][u32 tag]
// [u32 crc32(tag ‖ payload)][payload bytes], in host byte order (both
// ends of a pipe are forks of one process, so no byte-order negotiation
// is needed). The magic lets a reader that lost frame alignment — a
// writer died or was interrupted mid-frame — resynchronize by scanning
// the stream for the next plausible header instead of misparsing payload
// bytes as lengths; the CRC turns a corrupted frame into a kCorrupt
// status the supervisor answers with a retransmit request rather than
// merging garbage. The read side is poll()-driven with a per-frame
// deadline so a dead or wedged peer yields a status, never a hang; EOF
// on the pipe — the immediate kernel-level signal that a rank died, long
// before any timeout — is its own status so supervisors can report "rank
// exited" instead of "timed out".
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fastbns {

/// Append-only payload builder. All integers are written in host byte
/// order (frames never cross a machine boundary; ranks are forks).
class WireWriter {
 public:
  void put_u32(std::uint32_t value) { put_raw(&value, sizeof(value)); }
  void put_i32(std::int32_t value) { put_raw(&value, sizeof(value)); }
  void put_u64(std::uint64_t value) { put_raw(&value, sizeof(value)); }
  void put_i64(std::int64_t value) { put_raw(&value, sizeof(value)); }

  /// u32 length followed by the raw bytes.
  void put_string(std::string_view text);

  [[nodiscard]] std::span<const std::uint8_t> payload() const noexcept {
    return bytes_;
  }
  void clear() noexcept { bytes_.clear(); }

 private:
  void put_raw(const void* data, std::size_t size);

  std::vector<std::uint8_t> bytes_;
};

/// Cursor over a received payload. Every getter throws std::runtime_error
/// on truncation — a short frame from a confused peer must surface as a
/// protocol error, not as out-of-bounds reads.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::int32_t get_i32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64();
  [[nodiscard]] std::string get_string();

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - offset_;
  }

 private:
  void get_raw(void* out, std::size_t size);

  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

struct Frame {
  std::uint32_t tag = 0;
  std::vector<std::uint8_t> payload;
};

enum class FrameReadStatus : std::uint8_t {
  kOk,       ///< a complete frame landed in `out`
  kEof,      ///< the peer closed its end (a forked rank exited)
  kTimeout,  ///< the deadline expired with the frame incomplete
  kCorrupt,  ///< a whole frame arrived but its CRC does not match
  kBadTag,   ///< CRC-valid frame whose tag is not in the allowed set
};

[[nodiscard]] std::string_view to_string(FrameReadStatus status) noexcept;

/// CRC-32 (the reflected 0xEDB88320 polynomial) over `bytes`, seeded so
/// crc32(a ‖ b) can be built incrementally via the `seed` parameter.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                                  std::uint32_t seed = 0) noexcept;

/// Sentinel starting every frame header; the resync scan looks for it.
inline constexpr std::uint32_t kFrameMagic = 0xFA57B475u;
/// Header bytes on the wire: magic, length, tag, crc.
inline constexpr std::size_t kFrameHeaderBytes = 4 * sizeof(std::uint32_t);

/// One frame, fully encoded (header + payload) — the byte string
/// write_frame puts on the wire. Exposed so the fault-injection layer
/// can corrupt, truncate or stall an otherwise well-formed frame.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    std::uint32_t tag, std::span<const std::uint8_t> payload);

/// Writes raw bytes, looping over short writes and EINTR. Returns false
/// when the pipe is broken (the reader died — EPIPE, which requires
/// SIGPIPE to be ignored; ProcessGroup::spawn arranges that) or any
/// other write error occurs.
bool write_frame_bytes(int fd, std::span<const std::uint8_t> bytes) noexcept;

/// Writes one complete frame to `fd` (encode_frame + write_frame_bytes).
bool write_frame(int fd, std::uint32_t tag,
                 std::span<const std::uint8_t> payload) noexcept;

/// Reads one complete frame from `fd` into `out`, waiting at most
/// `timeout_ms` (negative = forever) per frame. Partial frames followed
/// by EOF report kEof (the writer died mid-frame). A stream that is not
/// frame-aligned — garbage where the magic should be, or a length beyond
/// kMaxFramePayload — is scanned forward for the next plausible header
/// (the resync that lets one truncated frame cost one retransmission
/// instead of the whole connection). A frame whose CRC fails reports
/// kCorrupt with the stream left aligned on the next frame. When
/// `allowed_tags` is non-empty, a CRC-valid frame with a tag outside it
/// reports kBadTag (the offending tag is left in out.tag) — an unknown
/// tag must never flow into a merge path.
[[nodiscard]] FrameReadStatus read_frame(
    int fd, Frame& out, int timeout_ms,
    std::span<const std::uint32_t> allowed_tags = {});

/// Caps a frame's payload at 1 GiB: a corrupt length prefix must fail the
/// protocol, not attempt a 4 GiB allocation.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

}  // namespace fastbns
