// The plain reference classifier dns::record_from_packet is tested
// against: decode the whole packet into a dns::Message, then read the one
// question off it and parse its name with dns::address_from_reverse.
// Slow by design (it builds every label string and section vector) and
// kept out of src/: it exists to be obviously right, not fast.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "dns/capture.hpp"
#include "dns/reverse.hpp"
#include "dns/wire.hpp"

namespace dnsbs::dns::reference {

/// The six CaptureStats outcome buckets, in counter order.
enum class Bucket { kMalformed, kResponse, kRejectedQuery, kNonPtr, kNonReverseName, kAccepted };

struct Verdict {
  Bucket bucket = Bucket::kMalformed;
  std::optional<net::IPv4Addr> originator;  ///< set iff accepted
};

inline Verdict classify(std::span<const std::uint8_t> payload) {
  const auto message = decode(payload.data(), payload.size());
  if (!message) return {Bucket::kMalformed, std::nullopt};
  if (message->is_response) return {Bucket::kResponse, std::nullopt};
  if (message->opcode != 0 || message->questions.size() != 1) {
    return {Bucket::kRejectedQuery, std::nullopt};
  }
  const Question& q = message->questions.front();
  if (q.qtype != QType::kPTR || q.qclass != QClass::kIN) return {Bucket::kNonPtr, std::nullopt};
  const auto originator = address_from_reverse(q.name);
  if (!originator) return {Bucket::kNonReverseName, std::nullopt};
  return {Bucket::kAccepted, originator};
}

/// The bucket a single-packet CaptureStats landed in; nullopt unless
/// exactly one packet sits in exactly one bucket.
inline std::optional<Bucket> only_bucket(const CaptureStats& stats) {
  if (stats.packets != 1 || !stats.consistent()) return std::nullopt;
  if (stats.malformed == 1) return Bucket::kMalformed;
  if (stats.responses == 1) return Bucket::kResponse;
  if (stats.rejected_query == 1) return Bucket::kRejectedQuery;
  if (stats.non_ptr == 1) return Bucket::kNonPtr;
  if (stats.non_reverse_name == 1) return Bucket::kNonReverseName;
  return Bucket::kAccepted;
}

}  // namespace dnsbs::dns::reference
