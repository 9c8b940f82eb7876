// The closed payload registry, and the flat value form of one payload.
//
// Every concrete Message subclass in the repository has a registry tag.
// Each is either structural (At2Underlying wraps one payload; RsmBundle
// maps slots to payloads) or a leaf of at most seven integer fields.  An
// RsmPart holds one leaf payload by value: its tag, how many At2Underlying
// layers wrap it, and its fields, with no pointer and no heap block.  The
// RSM ships its per-slot messages as a vector of parts, and the wire codec
// encodes every payload through the same registry, so the list of types
// lives here and nowhere else.
//
// Tags are wire tags: append-only, because shipped per-process logs and
// peers read them.  Field kinds ('n' i32, 'w' 64-bit, 'b' one boolean
// byte) are listed in wire order; `narrow` holds the 'n' and 'b' fields and
// `wide` the 'w' fields, each in that order, and every unused field stays
// zero, so two parts are equal exactly when their payloads are.

#pragma once

#include <cstdint>

#include "sim/message.hpp"

namespace indulgence {

enum class PayloadTag : std::uint8_t {
  Halted = 1,
  Decide = 2,
  Filler = 3,
  FloodEstimate = 4,
  HrCoord = 5,
  HrVote = 6,
  CtEstimate = 7,
  CtPropose = 8,
  CtAck = 9,
  AmrEstimate = 10,
  AmrVote = 11,
  WsEstimate = 12,
  Af2Estimate = 13,
  At2Estimate = 14,
  At2NewEstimate = 15,
  At2Underlying = 16,
  RsmBundle = 17,
  AuthPropose = 18,
  AuthPrepare = 19,
  AuthCommit = 20,
  AuthDecide = 21,
};

/// One leaf payload as a value, keyed by the RSM slot it rides for.
struct RsmPart {
  std::int32_t slot = 0;
  PayloadTag tag = PayloadTag::Filler;
  std::uint8_t wraps = 0;          ///< At2Underlying layers around the leaf
  std::int32_t narrow[4] = {};     ///< 'n' and 'b' fields, in wire order
  std::int64_t wide[3] = {};       ///< 'w' fields, in wire order

  friend bool operator==(const RsmPart&, const RsmPart&) = default;
};
static_assert(sizeof(RsmPart) <= 48, "a part is a small value");

/// The deepest At2Underlying wrapping a part may carry.  Real traffic wraps
/// once; the cap bounds what a corrupt frame can make a decoder do.
inline constexpr int kMaxWraps = 16;

/// The field kinds of a leaf tag in wire order; nullptr for the two
/// structural tags and for any byte that is not a registry tag.
const char* leaf_fields(std::uint8_t tag);

/// `message` as a part for `slot`, its At2Underlying layers peeled into
/// `wraps`.  Throws std::invalid_argument for a type outside the registry,
/// for a bundle (never a part), and for more than kMaxWraps layers.
RsmPart to_part(int slot, const Message& message);

/// The Message a part stands for (wrapped `wraps` times).
MessagePtr to_message(const RsmPart& part);

}  // namespace indulgence
