#include "rsm/part.hpp"

#include <iterator>
#include <stdexcept>
#include <typeinfo>

#include "consensus/amr_leader.hpp"
#include "consensus/chandra_toueg.hpp"
#include "consensus/consensus.hpp"
#include "consensus/floodset.hpp"
#include "consensus/floodset_ws.hpp"
#include "consensus/hurfin_raynal.hpp"
#include "core/af2.hpp"
#include "core/at2.hpp"
#include "core/at2_auth.hpp"

namespace indulgence {
namespace {

/// Field kinds per tag (index = tag byte); nullptr marks the structural
/// tags and tag 0.
constexpr const char* kLeafFields[] = {
    nullptr,    // 0: never a tag
    "w",        // Halted: decision
    "w",        // Decide: value
    "",         // Filler
    "w",        // FloodEstimate: est
    "w",        // HrCoord: est
    "w",        // HrVote: aux
    "wn",       // CtEstimate: est, ts
    "w",        // CtPropose: value
    "b",        // CtAck: positive
    "w",        // AmrEstimate: est
    "w",        // AmrVote: est
    "ww",       // WsEstimate: est, halt mask
    "w",        // Af2Estimate: est
    "ww",       // At2Estimate: est, halt mask
    "w",        // At2NewEstimate: new estimate
    nullptr,    // At2Underlying: structural
    nullptr,    // RsmBundle: structural
    "nnnwnww",  // AuthPropose: signer, stamp, view, value, lock view,
                //   lock value, cert mask
    "nnnw",     // AuthPrepare: signer, stamp, view, value
    "nnnwnww",  // AuthCommit: as AuthPropose, lock cert for cert
    "nnw",      // AuthDecide: signer, stamp, value
};

struct Kind {
  const std::type_info* type;
  PayloadTag tag;
};

/// Every non-bundle registry type, the RSM's per-round types first.
const Kind kKinds[] = {
    {&typeid(At2EstimateMessage), PayloadTag::At2Estimate},
    {&typeid(At2NewEstimateMessage), PayloadTag::At2NewEstimate},
    {&typeid(At2UnderlyingMessage), PayloadTag::At2Underlying},
    {&typeid(HrCoordMessage), PayloadTag::HrCoord},
    {&typeid(HrVoteMessage), PayloadTag::HrVote},
    {&typeid(FillerMessage), PayloadTag::Filler},
    {&typeid(DecideMessage), PayloadTag::Decide},
    {&typeid(HaltedMessage), PayloadTag::Halted},
    {&typeid(FloodEstimateMessage), PayloadTag::FloodEstimate},
    {&typeid(CtEstimateMessage), PayloadTag::CtEstimate},
    {&typeid(CtProposeMessage), PayloadTag::CtPropose},
    {&typeid(CtAckMessage), PayloadTag::CtAck},
    {&typeid(AmrEstimateMessage), PayloadTag::AmrEstimate},
    {&typeid(AmrVoteMessage), PayloadTag::AmrVote},
    {&typeid(WsEstimateMessage), PayloadTag::WsEstimate},
    {&typeid(Af2EstimateMessage), PayloadTag::Af2Estimate},
    {&typeid(AuthProposeMessage), PayloadTag::AuthPropose},
    {&typeid(AuthPrepareMessage), PayloadTag::AuthPrepare},
    {&typeid(AuthCommitMessage), PayloadTag::AuthCommit},
    {&typeid(AuthDecideMessage), PayloadTag::AuthDecide},
};

/// The registry tag of `message`'s dynamic type.  Every class here is
/// final, so a type_info match is exact.  One type has one type_info
/// object in a static link, so an address scan settles the common case;
/// the full comparison covers a second copy.
const Kind* kind_of(const Message& message) {
  const std::type_info& type = typeid(message);
  for (const Kind& k : kKinds) {
    if (k.type == &type) return &k;
  }
  for (const Kind& k : kKinds) {
    if (*k.type == type) return &k;
  }
  return nullptr;
}

template <typename T>
const T& as(const Message& message) {
  return static_cast<const T&>(message);
}

std::int64_t mask_of(const ProcessSet& set) {
  return static_cast<std::int64_t>(set.mask());
}

ProcessSet set_of(std::int64_t mask) {
  return ProcessSet::from_mask(static_cast<std::uint64_t>(mask));
}

/// Fills the fields of a leaf whose tag is already set.
void flatten_leaf(const Message& m, RsmPart& p) {
  switch (p.tag) {
    case PayloadTag::Halted:
      p.wide[0] = as<HaltedMessage>(m).decision();
      break;
    case PayloadTag::Decide:
      p.wide[0] = as<DecideMessage>(m).value();
      break;
    case PayloadTag::Filler:
      break;
    case PayloadTag::FloodEstimate:
      p.wide[0] = as<FloodEstimateMessage>(m).est();
      break;
    case PayloadTag::HrCoord:
      p.wide[0] = as<HrCoordMessage>(m).est();
      break;
    case PayloadTag::HrVote:
      p.wide[0] = as<HrVoteMessage>(m).aux();
      break;
    case PayloadTag::CtEstimate:
      p.wide[0] = as<CtEstimateMessage>(m).est();
      p.narrow[0] = as<CtEstimateMessage>(m).ts();
      break;
    case PayloadTag::CtPropose:
      p.wide[0] = as<CtProposeMessage>(m).value();
      break;
    case PayloadTag::CtAck:
      p.narrow[0] = as<CtAckMessage>(m).positive() ? 1 : 0;
      break;
    case PayloadTag::AmrEstimate:
      p.wide[0] = as<AmrEstimateMessage>(m).est();
      break;
    case PayloadTag::AmrVote:
      p.wide[0] = as<AmrVoteMessage>(m).est();
      break;
    case PayloadTag::WsEstimate:
      p.wide[0] = as<WsEstimateMessage>(m).est();
      p.wide[1] = mask_of(as<WsEstimateMessage>(m).halt());
      break;
    case PayloadTag::Af2Estimate:
      p.wide[0] = as<Af2EstimateMessage>(m).est();
      break;
    case PayloadTag::At2Estimate:
      p.wide[0] = as<At2EstimateMessage>(m).est();
      p.wide[1] = mask_of(as<At2EstimateMessage>(m).halt());
      break;
    case PayloadTag::At2NewEstimate:
      p.wide[0] = as<At2NewEstimateMessage>(m).new_estimate();
      break;
    case PayloadTag::AuthPropose: {
      const auto& a = as<AuthProposeMessage>(m);
      p.narrow[0] = a.signer();
      p.narrow[1] = a.stamp();
      p.narrow[2] = a.view();
      p.wide[0] = a.value();
      p.narrow[3] = a.lock_view();
      p.wide[1] = a.lock_value();
      p.wide[2] = mask_of(a.cert());
      break;
    }
    case PayloadTag::AuthPrepare: {
      const auto& a = as<AuthPrepareMessage>(m);
      p.narrow[0] = a.signer();
      p.narrow[1] = a.stamp();
      p.narrow[2] = a.view();
      p.wide[0] = a.value();
      break;
    }
    case PayloadTag::AuthCommit: {
      const auto& a = as<AuthCommitMessage>(m);
      p.narrow[0] = a.signer();
      p.narrow[1] = a.stamp();
      p.narrow[2] = a.view();
      p.wide[0] = a.value();
      p.narrow[3] = a.lock_view();
      p.wide[1] = a.lock_value();
      p.wide[2] = mask_of(a.lock_cert());
      break;
    }
    case PayloadTag::AuthDecide: {
      const auto& a = as<AuthDecideMessage>(m);
      p.narrow[0] = a.signer();
      p.narrow[1] = a.stamp();
      p.wide[0] = a.value();
      break;
    }
    case PayloadTag::At2Underlying:
    case PayloadTag::RsmBundle:
      break;  // structural: never a leaf
  }
}

MessagePtr leaf_message(const RsmPart& p) {
  switch (p.tag) {
    case PayloadTag::Halted:
      return std::make_shared<HaltedMessage>(p.wide[0]);
    case PayloadTag::Decide:
      return std::make_shared<DecideMessage>(p.wide[0]);
    case PayloadTag::Filler:
      return std::make_shared<FillerMessage>();
    case PayloadTag::FloodEstimate:
      return std::make_shared<FloodEstimateMessage>(p.wide[0]);
    case PayloadTag::HrCoord:
      return std::make_shared<HrCoordMessage>(p.wide[0]);
    case PayloadTag::HrVote:
      return std::make_shared<HrVoteMessage>(p.wide[0]);
    case PayloadTag::CtEstimate:
      return std::make_shared<CtEstimateMessage>(p.wide[0], p.narrow[0]);
    case PayloadTag::CtPropose:
      return std::make_shared<CtProposeMessage>(p.wide[0]);
    case PayloadTag::CtAck:
      return std::make_shared<CtAckMessage>(p.narrow[0] == 1);
    case PayloadTag::AmrEstimate:
      return std::make_shared<AmrEstimateMessage>(p.wide[0]);
    case PayloadTag::AmrVote:
      return std::make_shared<AmrVoteMessage>(p.wide[0]);
    case PayloadTag::WsEstimate:
      return std::make_shared<WsEstimateMessage>(p.wide[0], set_of(p.wide[1]));
    case PayloadTag::Af2Estimate:
      return std::make_shared<Af2EstimateMessage>(p.wide[0]);
    case PayloadTag::At2Estimate:
      return std::make_shared<At2EstimateMessage>(p.wide[0],
                                                  set_of(p.wide[1]));
    case PayloadTag::At2NewEstimate:
      return std::make_shared<At2NewEstimateMessage>(p.wide[0]);
    case PayloadTag::AuthPropose:
      return std::make_shared<AuthProposeMessage>(
          p.narrow[0], p.narrow[1], p.narrow[2], p.wide[0], p.narrow[3],
          p.wide[1], set_of(p.wide[2]));
    case PayloadTag::AuthPrepare:
      return std::make_shared<AuthPrepareMessage>(p.narrow[0], p.narrow[1],
                                                  p.narrow[2], p.wide[0]);
    case PayloadTag::AuthCommit:
      return std::make_shared<AuthCommitMessage>(
          p.narrow[0], p.narrow[1], p.narrow[2], p.wide[0], p.narrow[3],
          p.wide[1], set_of(p.wide[2]));
    case PayloadTag::AuthDecide:
      return std::make_shared<AuthDecideMessage>(p.narrow[0], p.narrow[1],
                                                 p.wide[0]);
    case PayloadTag::At2Underlying:
    case PayloadTag::RsmBundle:
      break;
  }
  throw std::invalid_argument("RsmPart: not a leaf tag");
}

}  // namespace

const char* leaf_fields(std::uint8_t tag) {
  return tag < std::size(kLeafFields) ? kLeafFields[tag] : nullptr;
}

RsmPart to_part(int slot, const Message& message) {
  RsmPart part;
  part.slot = slot;
  const Message* leaf = &message;
  for (;;) {
    const Kind* kind = kind_of(*leaf);
    if (kind == nullptr) {
      throw std::invalid_argument("payload registry: unregistered type: " +
                                  message.describe());
    }
    if (kind->tag != PayloadTag::At2Underlying) {
      part.tag = kind->tag;
      break;
    }
    if (part.wraps == kMaxWraps) {
      throw std::invalid_argument("payload registry: nesting exceeds cap");
    }
    ++part.wraps;
    leaf = as<At2UnderlyingMessage>(*leaf).inner().get();
  }
  flatten_leaf(*leaf, part);
  return part;
}

MessagePtr to_message(const RsmPart& part) {
  MessagePtr message = leaf_message(part);
  for (int i = 0; i < part.wraps; ++i) {
    message = std::make_shared<At2UnderlyingMessage>(std::move(message));
  }
  return message;
}

}  // namespace indulgence
