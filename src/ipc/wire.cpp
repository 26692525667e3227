#include "ipc/wire.hpp"

#include <poll.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace fastbns {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// Milliseconds left until `deadline`, clamped at 0; -1 for "no deadline".
int remaining_ms(bool has_deadline, SteadyClock::time_point deadline) {
  if (!has_deadline) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - SteadyClock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(left.count());
}

/// Reads exactly `size` bytes, polling with the shared deadline. kEof
/// with `*got_any = true` means the writer died mid-record.
FrameReadStatus read_exact(int fd, void* out, std::size_t size,
                           bool has_deadline, SteadyClock::time_point deadline) {
  auto* cursor = static_cast<std::uint8_t*>(out);
  std::size_t done = 0;
  while (done < size) {
    struct pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int wait = remaining_ms(has_deadline, deadline);
    const int ready = ::poll(&pfd, 1, wait);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return FrameReadStatus::kEof;
    }
    if (ready == 0) return FrameReadStatus::kTimeout;
    // POLLHUP with readable bytes still buffered reports POLLIN too; a
    // bare hangup (or error) with nothing to read is EOF.
    if ((pfd.revents & POLLIN) == 0) return FrameReadStatus::kEof;
    const ssize_t n = ::read(fd, cursor + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A non-blocking fd with nothing to read reports EAGAIN or
      // EWOULDBLOCK — a deadline, not a dead peer.
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return FrameReadStatus::kTimeout;
      }
      return FrameReadStatus::kEof;
    }
    if (n == 0) return FrameReadStatus::kEof;
    done += static_cast<std::size_t>(n);
  }
  return FrameReadStatus::kOk;
}

}  // namespace

void WireWriter::put_raw(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), bytes, bytes + size);
}

void WireWriter::put_string(std::string_view text) {
  put_u32(static_cast<std::uint32_t>(text.size()));
  if (!text.empty()) put_raw(text.data(), text.size());
}

void WireReader::get_raw(void* out, std::size_t size) {
  if (size > bytes_.size() - offset_) {
    throw std::runtime_error(
        "ipc: truncated frame payload (peer spoke a different protocol?)");
  }
  std::memcpy(out, bytes_.data() + offset_, size);
  offset_ += size;
}

std::uint32_t WireReader::get_u32() {
  std::uint32_t value = 0;
  get_raw(&value, sizeof(value));
  return value;
}

std::int32_t WireReader::get_i32() {
  std::int32_t value = 0;
  get_raw(&value, sizeof(value));
  return value;
}

std::uint64_t WireReader::get_u64() {
  std::uint64_t value = 0;
  get_raw(&value, sizeof(value));
  return value;
}

std::int64_t WireReader::get_i64() {
  std::int64_t value = 0;
  get_raw(&value, sizeof(value));
  return value;
}

std::string WireReader::get_string() {
  const std::uint32_t length = get_u32();
  if (length > bytes_.size() - offset_) {
    throw std::runtime_error("ipc: truncated string in frame");
  }
  std::string text(length, '\0');
  if (length > 0) get_raw(text.data(), length);
  return text;
}

std::string_view to_string(FrameReadStatus status) noexcept {
  switch (status) {
    case FrameReadStatus::kOk:
      return "ok";
    case FrameReadStatus::kEof:
      return "eof";
    case FrameReadStatus::kTimeout:
      return "timeout";
    case FrameReadStatus::kCorrupt:
      return "corrupt";
    case FrameReadStatus::kBadTag:
      return "bad-tag";
  }
  return "unknown";
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t seed) noexcept {
  // Reflected CRC-32 (0xEDB88320), table built on first use — fast
  // enough for frames that also cross a pipe, with zero link-time deps.
  static const auto table = [] {
    std::array<std::uint32_t, 256> entries{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t value = i;
      for (int bit = 0; bit < 8; ++bit) {
        value = (value >> 1) ^ ((value & 1u) ? 0xEDB88320u : 0u);
      }
      entries[i] = value;
    }
    return entries;
  }();
  std::uint32_t crc = ~seed;
  for (const std::uint8_t byte : bytes) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFFu];
  }
  return ~crc;
}

std::vector<std::uint8_t> encode_frame(std::uint32_t tag,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> bytes(kFrameHeaderBytes + payload.size());
  std::uint8_t tag_bytes[sizeof(std::uint32_t)];
  std::memcpy(tag_bytes, &tag, sizeof(tag));
  const std::uint32_t crc = crc32(payload, crc32(tag_bytes));
  const std::uint32_t header[4] = {kFrameMagic,
                                   static_cast<std::uint32_t>(payload.size()),
                                   tag, crc};
  std::memcpy(bytes.data(), header, sizeof(header));
  if (!payload.empty()) {
    std::memcpy(bytes.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  return bytes;
}

bool write_frame_bytes(int fd, std::span<const std::uint8_t> bytes) noexcept {
  // One write loop over the whole encoding; pipes deliver byte streams,
  // so the reader reassembles regardless of how the kernel slices them
  // (payloads routinely exceed PIPE_BUF).
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE: the reading rank is gone
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_frame(int fd, std::uint32_t tag,
                 std::span<const std::uint8_t> payload) noexcept {
  if (payload.size() > kMaxFramePayload) return false;
  try {
    return write_frame_bytes(fd, encode_frame(tag, payload));
  } catch (...) {
    return false;  // encode allocation failure; the caller sees a broken pipe
  }
}

FrameReadStatus read_frame(int fd, Frame& out, int timeout_ms,
                           std::span<const std::uint32_t> allowed_tags) {
  const bool has_deadline = timeout_ms >= 0;
  const auto deadline =
      SteadyClock::now() +
      std::chrono::milliseconds(has_deadline ? timeout_ms : 0);
  // Header acquisition with resync: read a full header's worth of bytes,
  // then — if the magic is absent or the length implausible — slide one
  // byte at a time until a plausible header lines up. A reader only ever
  // scans after a fault (truncated frame, corrupted length), and the
  // per-frame deadline bounds the scan.
  std::uint8_t header[kFrameHeaderBytes];
  FrameReadStatus status =
      read_exact(fd, header, sizeof(header), has_deadline, deadline);
  if (status != FrameReadStatus::kOk) return status;
  std::uint32_t fields[4];
  for (;;) {
    std::memcpy(fields, header, sizeof(fields));
    if (fields[0] == kFrameMagic && fields[1] <= kMaxFramePayload) break;
    std::memmove(header, header + 1, sizeof(header) - 1);
    status = read_exact(fd, header + sizeof(header) - 1, 1, has_deadline,
                        deadline);
    if (status != FrameReadStatus::kOk) return status;
  }
  out.tag = fields[2];
  out.payload.resize(fields[1]);
  if (fields[1] != 0) {
    status = read_exact(fd, out.payload.data(), out.payload.size(),
                        has_deadline, deadline);
    if (status != FrameReadStatus::kOk) return status;
  }
  std::uint8_t tag_bytes[sizeof(std::uint32_t)];
  std::memcpy(tag_bytes, &fields[2], sizeof(tag_bytes));
  if (crc32(out.payload, crc32(tag_bytes)) != fields[3]) {
    // The stream stays aligned (the declared length was consumed); the
    // caller can request a retransmission without tearing anything down.
    return FrameReadStatus::kCorrupt;
  }
  if (!allowed_tags.empty()) {
    bool known = false;
    for (const std::uint32_t tag : allowed_tags) known |= (tag == out.tag);
    if (!known) return FrameReadStatus::kBadTag;
  }
  return FrameReadStatus::kOk;
}

}  // namespace fastbns
