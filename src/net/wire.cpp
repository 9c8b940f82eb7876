#include "net/wire.hpp"

#include <cstring>
#include <stdexcept>
#include <typeinfo>

#include "rsm/rsm.hpp"

namespace indulgence {
namespace {

// Payloads go through the registry in rsm/part.hpp.  A leaf is its tag and
// its fields; At2Underlying is a tag byte in front of the payload it wraps;
// RsmBundle is `u32 count | count x (i32 slot | payload)`, and a bundle
// part is never itself a bundle.  Real traffic wraps once; the nesting cap
// (kMaxWraps layers at the top, one fewer inside a bundle) only bounds what
// a corrupt frame can make the decoder do.

// The bundle's slot count is length-checked against the remaining bytes
// before any allocation: each part needs at least a slot id and a tag.
constexpr std::size_t kMinBundlePartBytes = 5;

constexpr std::uint8_t tag_byte(PayloadTag tag) {
  return static_cast<std::uint8_t>(tag);
}

void encode_part(const RsmPart& part, int max_wraps, WireWriter& out) {
  if (part.wraps > max_wraps) {
    throw std::invalid_argument("wire: message nesting exceeds codec cap");
  }
  for (int i = 0; i < part.wraps; ++i) {
    out.u8(tag_byte(PayloadTag::At2Underlying));
  }
  out.u8(tag_byte(part.tag));
  const std::int32_t* narrow = part.narrow;
  const std::int64_t* wide = part.wide;
  for (const char* kind = leaf_fields(tag_byte(part.tag)); *kind; ++kind) {
    switch (*kind) {
      case 'n': out.i32(*narrow++); break;
      case 'b': out.u8(static_cast<std::uint8_t>(*narrow++)); break;
      default: out.i64(*wide++); break;
    }
  }
}

/// Reads wrapper tags and one leaf into `part` (its slot untouched).  A
/// bundle tag sets part.tag and stops, so the caller decides whether a
/// bundle may stand there.
bool decode_part(WireReader& in, int max_wraps, RsmPart& part) {
  for (;;) {
    const auto tag = in.u8();
    if (!tag) return false;
    if (*tag == tag_byte(PayloadTag::At2Underlying)) {
      if (part.wraps == max_wraps) return false;
      ++part.wraps;
      continue;
    }
    if (*tag == tag_byte(PayloadTag::RsmBundle)) {
      part.tag = PayloadTag::RsmBundle;
      return true;
    }
    const char* kind = leaf_fields(*tag);
    if (kind == nullptr) return false;
    part.tag = static_cast<PayloadTag>(*tag);
    std::int32_t* narrow = part.narrow;
    std::int64_t* wide = part.wide;
    for (; *kind; ++kind) {
      switch (*kind) {
        case 'n': {
          const auto v = in.i32();
          if (!v) return false;
          *narrow++ = *v;
          break;
        }
        case 'b': {
          const auto v = in.u8();
          if (!v || *v > 1) return false;
          *narrow++ = *v;
          break;
        }
        default: {
          const auto v = in.i64();
          if (!v) return false;
          *wide++ = *v;
          break;
        }
      }
    }
    return true;
  }
}

/// A bundle's body, after its tag: one pass into one exactly sized vector.
MessagePtr decode_bundle(WireReader& in) {
  const auto count = in.u32();
  if (!count || *count > in.remaining() / kMinBundlePartBytes) return nullptr;
  std::vector<RsmPart> parts;
  parts.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto slot = in.i32();
    // Our encoder emits slots strictly ascending; anything else is not a
    // bundle we sent.
    if (!slot || (i > 0 && *slot <= parts.back().slot)) return nullptr;
    RsmPart& part = parts.emplace_back();
    part.slot = *slot;
    if (!decode_part(in, kMaxWraps - 1, part) ||
        part.tag == PayloadTag::RsmBundle) {
      return nullptr;
    }
  }
  return std::make_shared<RsmBundleMessage>(std::move(parts));
}

/// Appends `u32 body-len | u8 type | body` to `out` in place: the length
/// prefix is written as a placeholder and patched once the body's size is
/// known, so a frame costs zero intermediate buffers.
template <typename BodyFn>
std::size_t append_frame(FrameType type, WireWriter& out, BodyFn&& body) {
  const std::size_t mark = out.size();
  out.u32(0);  // length placeholder, patched below
  out.u8(static_cast<std::uint8_t>(type));
  body(out);
  out.patch_u32(mark, static_cast<std::uint32_t>(out.size() - mark - 5));
  return out.size() - mark;
}

}  // namespace

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes_.push_back((v >> (8 * i)) & 0xff);
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes_.push_back((v >> (8 * i)) & 0xff);
}

void WireWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_[offset + static_cast<std::size_t>(i)] = (v >> (8 * i)) & 0xff;
  }
}

std::optional<std::uint8_t> WireReader::u8() {
  if (remaining() < 1) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::uint32_t> WireReader::u32() {
  if (remaining() < 4) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
  pos_ += 4;
  return v;
}

std::optional<std::uint64_t> WireReader::u64() {
  if (remaining() < 8) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
  pos_ += 8;
  return v;
}

std::optional<std::int32_t> WireReader::i32() {
  auto v = u32();
  if (!v) return std::nullopt;
  return static_cast<std::int32_t>(*v);
}

std::optional<std::int64_t> WireReader::i64() {
  auto v = u64();
  if (!v) return std::nullopt;
  return static_cast<std::int64_t>(*v);
}

void encode_message(const Message& message, WireWriter& out) {
  if (typeid(message) == typeid(RsmBundleMessage)) {
    const auto& bundle = static_cast<const RsmBundleMessage&>(message);
    out.u8(tag_byte(PayloadTag::RsmBundle));
    out.u32(static_cast<std::uint32_t>(bundle.parts().size()));
    for (const RsmPart& part : bundle.parts()) {
      out.i32(part.slot);
      encode_part(part, kMaxWraps - 1, out);
    }
    return;
  }
  encode_part(to_part(0, message), kMaxWraps, out);
}

MessagePtr decode_message(WireReader& in) {
  RsmPart part;
  if (!decode_part(in, kMaxWraps, part)) return nullptr;
  if (part.tag != PayloadTag::RsmBundle) return to_message(part);
  return part.wraps == 0 ? decode_bundle(in) : nullptr;
}

std::size_t encode_hello2_into(ProcessId sender,
                               const std::vector<GroupId>& groups,
                               WireWriter& out) {
  return append_frame(FrameType::Hello2, out, [&](WireWriter& body) {
    body.u32(kWireVersion);
    body.i32(sender);
    body.u32(static_cast<std::uint32_t>(groups.size()));
    for (GroupId group : groups) body.i32(group);
  });
}

std::size_t encode_envelope_frame2_into(std::uint64_t seq,
                                        const NetEnvelope& envelope,
                                        WireWriter& out) {
  return append_frame(FrameType::Envelope2, out, [&](WireWriter& body) {
    body.u64(seq);
    body.i32(envelope.group);
    body.i32(envelope.sender);
    body.i32(envelope.send_round);
    body.i32(envelope.target_round);
    body.i32(envelope.origin);
    encode_message(*envelope.payload, body);
  });
}

std::size_t encode_ack_into(std::uint64_t cumulative_seq, WireWriter& out) {
  return append_frame(FrameType::Ack, out,
                      [&](WireWriter& body) { body.u64(cumulative_seq); });
}

std::size_t encode_heartbeat_into(WireWriter& out) {
  return append_frame(FrameType::Heartbeat, out, [](WireWriter&) {});
}

std::size_t encode_fin_into(std::uint64_t seq, WireWriter& out) {
  return append_frame(FrameType::Fin, out,
                      [&](WireWriter& body) { body.u64(seq); });
}

void patch_envelope_seq(std::vector<std::uint8_t>& frame, std::uint64_t seq) {
  if (frame.size() < kEnvelopeSeqOffset + 8) {
    throw std::invalid_argument("wire: frame too short for a seq patch");
  }
  for (int i = 0; i < 8; ++i) {
    frame[kEnvelopeSeqOffset + static_cast<std::size_t>(i)] =
        (seq >> (8 * i)) & 0xff;
  }
}

std::vector<std::uint8_t> FrameBufferPool::acquire() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_.empty()) {
    ++misses_;
    return {};
  }
  ++reuses_;
  std::vector<std::uint8_t> buffer = std::move(free_.back());
  free_.pop_back();
  buffer.clear();  // keeps capacity
  return buffer;
}

void FrameBufferPool::release(std::vector<std::uint8_t>&& buffer) {
  if (buffer.capacity() == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_.size() >= max_pooled_) return;  // drop: the bound wins
  free_.push_back(std::move(buffer));
}

std::size_t FrameBufferPool::pooled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_.size();
}

long FrameBufferPool::reuses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reuses_;
}

long FrameBufferPool::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

void FrameParser::feed(const std::uint8_t* data, std::size_t size) {
  if (poisoned_) return;
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameParser::next() {
  while (!poisoned_) {
    if (buffer_.size() < 5) return std::nullopt;
    std::uint32_t body_len = 0;
    for (int i = 0; i < 4; ++i) {
      body_len |= std::uint32_t{buffer_[i]} << (8 * i);
    }
    if (body_len > max_frame_bytes_) {
      poisoned_ = true;
      return std::nullopt;
    }
    if (buffer_.size() < 5 + std::size_t{body_len}) return std::nullopt;

    const std::uint8_t raw_type = buffer_[4];
    WireReader body(buffer_.data() + 5, body_len);
    std::optional<Frame> frame;
    switch (static_cast<FrameType>(raw_type)) {
      case FrameType::Hello2: {
        auto version = body.u32();
        auto sender = body.i32();
        auto count = body.u32();
        // Length-check the advertised group count (4 bytes each) before
        // trusting it with an allocation.  Another wire version is skipped
        // like any malformed frame.
        if (version && *version == kWireVersion && sender && count &&
            *count <= body.remaining() / 4) {
          Frame f;
          f.type = FrameType::Hello2;
          f.hello_sender = *sender;
          f.hello_groups.reserve(*count);
          bool ok = true;
          for (std::uint32_t i = 0; ok && i < *count; ++i) {
            auto group = body.i32();
            if (group) {
              f.hello_groups.push_back(*group);
            } else {
              ok = false;
            }
          }
          if (ok && body.done()) frame = std::move(f);
        }
        break;
      }
      case FrameType::Envelope2: {
        auto seq = body.u64();
        auto group = body.i32();
        auto sender = body.i32();
        auto send_round = body.i32();
        auto target_round = body.i32();
        auto origin = body.i32();
        if (seq && group && sender && send_round && target_round && origin) {
          MessagePtr payload = decode_message(body);
          if (payload != nullptr && body.done()) {
            Frame f;
            f.type = FrameType::Envelope2;
            f.seq = *seq;
            f.envelope.group = *group;
            f.envelope.sender = *sender;
            f.envelope.send_round = *send_round;
            f.envelope.target_round = *target_round;
            f.envelope.origin = *origin;
            f.envelope.payload = std::move(payload);
            frame = std::move(f);
          }
        }
        break;
      }
      case FrameType::Ack:
      case FrameType::Fin: {
        auto seq = body.u64();
        if (seq && body.done()) {
          Frame f;
          f.type = static_cast<FrameType>(raw_type);
          f.seq = *seq;
          frame = std::move(f);
        }
        break;
      }
      case FrameType::Heartbeat: {
        if (body.done()) frame = Frame{};  // default Frame IS a heartbeat
        break;
      }
      default:
        break;
    }

    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + 5 + static_cast<std::ptrdiff_t>(body_len));
    if (frame) return frame;
    // Malformed body: skip the frame and keep parsing (the peer's
    // supervisor will redeliver anything that mattered).
  }
  return std::nullopt;
}

}  // namespace indulgence
