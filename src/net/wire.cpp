#include "net/wire.hpp"

#include <algorithm>

#include "net/socket.hpp"

namespace bellamy::net {

bool is_known_type(std::uint16_t type) {
  return []<typename... Msg>(std::uint16_t t, std::tuple<Msg...>*) {
    return ((t == static_cast<std::uint16_t>(Msg::kType)) || ...);
  }(type, static_cast<Catalog*>(nullptr));
}

const char* to_string(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kTruncated: return "truncated frame";
    case WireStatus::kVersionMismatch: return "wire version mismatch";
    case WireStatus::kUnknownType: return "unknown message type";
    case WireStatus::kWrongType: return "unexpected message type";
    case WireStatus::kOversizedFrame: return "oversized frame";
    case WireStatus::kTrailingBytes: return "trailing bytes after payload";
    case WireStatus::kMalformed: return "malformed field";
    case WireStatus::kChecksumMismatch: return "frame checksum mismatch";
  }
  return "unknown wire status";
}

// ---------------------------------------------------------------------------
// Frame parsing
// ---------------------------------------------------------------------------

WireStatus parse_body(const std::uint8_t* data, std::size_t size, FrameView& out) {
  WireReader r(data, size);
  if (!r.u16(out.version) || !r.u16(out.type)) return WireStatus::kTruncated;
  // Version first: an old-version peer must hear the honest kVersionMismatch,
  // not a checksum complaint about a trailer it never wrote.
  if (out.version != kWireVersion) return WireStatus::kVersionMismatch;
  if (size < 4 + kFrameChecksumBytes) return WireStatus::kTruncated;
  // Checksum before the type: a corrupted type byte is CORRUPTION, not an
  // unknown message — only checksum-clean bytes reach any further decoding.
  const std::size_t body_size = size - kFrameChecksumBytes;
  std::uint64_t stored = 0;
  std::memcpy(&stored, data + body_size, sizeof stored);
  if (util::fnv1a64_bytes(data, body_size) != stored) return WireStatus::kChecksumMismatch;
  if (!is_known_type(out.type)) return WireStatus::kUnknownType;
  out.payload = data + 4;
  out.payload_size = body_size - 4;
  return WireStatus::kOk;
}

WireStatus parse_frame(const std::uint8_t* data, std::size_t size, FrameView& out) {
  WireReader r(data, size);
  std::uint32_t len = 0;
  if (!r.u32(len)) return WireStatus::kTruncated;
  if (len > kMaxFrameBytes) return WireStatus::kOversizedFrame;
  // Cannot even hold version + type + checksum.
  if (len < 4 + kFrameChecksumBytes) return WireStatus::kOversizedFrame;
  if (size - 4 < len) return WireStatus::kTruncated;
  if (size - 4 > len) return WireStatus::kTrailingBytes;
  return parse_body(data + 4, len, out);
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

FrameRead read_frame(const Socket& sock, std::vector<std::uint8_t>& body) {
  const auto failed = [](IoStatus io) {
    return io == IoStatus::kTimeout ? FrameRead::kTimeout : FrameRead::kClosed;
  };
  std::uint8_t prefix[4];
  IoStatus io = sock.read_exact(prefix, sizeof prefix);
  if (io != IoStatus::kOk) return failed(io);
  std::uint32_t len = 0;
  WireReader(prefix, sizeof prefix).u32(len);
  if (len < 4 || len > kMaxFrameBytes) return FrameRead::kBadLength;
  // Grow with the bytes that actually arrive: the prefix is outside the
  // checksum, so `len` is unverified until the whole body is in.
  body.clear();
  while (body.size() < len) {
    const std::size_t at = body.size();
    body.resize(at + std::min<std::size_t>(len - at, kFrameReadStep));
    io = sock.read_exact(body.data() + at, body.size() - at);
    if (io != IoStatus::kOk) return failed(io);
  }
  return FrameRead::kOk;
}

}  // namespace bellamy::net
