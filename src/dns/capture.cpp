#include "dns/capture.hpp"

#include <array>
#include <string_view>

#include "util/metrics.hpp"

namespace dnsbs::dns {

namespace {
// Registry mirror of CaptureStats (see the struct comment): same names,
// same partition invariant, summed across every capture stream in the
// process.  Classification of a packet stream is order-independent, so
// these are deterministic series.
util::MetricCounter& g_packets = util::metrics_counter("dnsbs.capture.packets");
util::MetricCounter& g_malformed = util::metrics_counter("dnsbs.capture.malformed");
util::MetricCounter& g_responses = util::metrics_counter("dnsbs.capture.responses");
util::MetricCounter& g_rejected = util::metrics_counter("dnsbs.capture.rejected_query");
util::MetricCounter& g_non_ptr = util::metrics_counter("dnsbs.capture.non_ptr");
util::MetricCounter& g_non_reverse = util::metrics_counter("dnsbs.capture.non_reverse_name");
util::MetricCounter& g_accepted = util::metrics_counter("dnsbs.capture.accepted");

constexpr std::size_t kMaxNameWire = 255;  // RFC 1035 §2.3.4
constexpr std::size_t kMaxJumps = 64;
constexpr std::size_t kReverseLabels = 6;  // d.c.b.a.in-addr.arpa

/// Where one label's octets sit in the packet.
struct LabelRef {
  std::size_t offset = 0;
  std::size_t len = 0;
};

/// The first labels of a question name, enough to recognise the
/// six-label reverse form.
struct QName {
  std::array<LabelRef, kReverseLabels> labels{};
  std::size_t count = 0;  ///< all labels, including those not kept
};

/// Walks a packet in place with exactly the structural checks dns::decode
/// makes (wire.cpp's Decoder and decode_rr), so a packet passes here iff
/// decode() would return a Message — but nothing is allocated.
class WireScan {
 public:
  explicit WireScan(std::span<const std::uint8_t> wire)
      : data_(wire.data()), size_(wire.size()) {}

  const std::uint8_t* data() const noexcept { return data_; }

  bool u16(std::uint16_t& v) {
    if (pos_ + 2 > size_) return false;
    v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return true;
  }

  bool skip(std::size_t n) {
    if (n > size_ - pos_) return false;
    pos_ += n;
    return true;
  }

  /// A possibly-compressed name: backward-only pointers, at most 64
  /// jumps, no reserved label types, at most 255 wire octets.  Records the
  /// leading labels into `out` when given.
  bool name(QName* out) {
    std::size_t cursor = pos_;
    std::size_t jumps = 0;
    bool jumped = false;
    std::size_t after_first_pointer = 0;
    std::size_t wire_len = 1;  // root byte
    while (true) {
      if (cursor >= size_) return false;
      const std::uint8_t len = data_[cursor];
      if ((len & 0xc0) == 0xc0) {
        if (cursor + 1 >= size_) return false;
        if (++jumps > kMaxJumps) return false;
        const std::size_t target =
            (static_cast<std::size_t>(len & 0x3f) << 8) | data_[cursor + 1];
        if (!jumped) {
          after_first_pointer = cursor + 2;
          jumped = true;
        }
        if (target >= cursor) return false;
        cursor = target;
        continue;
      }
      if ((len & 0xc0) != 0) return false;
      ++cursor;
      if (len == 0) break;
      if (cursor + len > size_) return false;
      wire_len += 1 + static_cast<std::size_t>(len);
      if (wire_len > kMaxNameWire) return false;
      if (out != nullptr) {
        if (out->count < kReverseLabels) out->labels[out->count] = {cursor, len};
        ++out->count;
      }
      cursor += len;
    }
    pos_ = jumped ? after_first_pointer : cursor;
    return true;
  }

  /// One resource record, RDATA checked as decode_rr does: A is exactly 4
  /// octets, a PTR/NS/CNAME name ends exactly at RDLENGTH, anything else
  /// must fit in the packet.
  bool rr() {
    std::uint16_t rtype = 0, rclass = 0, rdlength = 0;
    if (!name(nullptr) || !u16(rtype) || !u16(rclass) || !skip(4) || !u16(rdlength)) {
      return false;
    }
    switch (static_cast<QType>(rtype)) {
      case QType::kA:
        return rdlength == 4 && skip(4);
      case QType::kPTR:
      case QType::kNS:
      case QType::kCNAME: {
        const std::size_t rdata_start = pos_;
        return name(nullptr) && pos_ == rdata_start + rdlength;
      }
      default:
        return skip(rdlength);
    }
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

enum class Verdict { kMalformed, kResponse, kRejected, kNonPtr, kNonReverse, kAccepted };

/// Case-folded label compare against a lower-case ASCII literal.
bool label_is(const std::uint8_t* p, std::size_t len, std::string_view lower) {
  if (len != lower.size()) return false;
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint8_t c = p[i];
    const std::uint8_t folded = (c >= 'A' && c <= 'Z') ? static_cast<std::uint8_t>(c | 0x20) : c;
    if (folded != static_cast<std::uint8_t>(lower[i])) return false;
  }
  return true;
}

/// A 1–3 digit decimal octet label, value <= 255 ("007" is 7).
bool octet_label(const std::uint8_t* p, std::size_t len, std::uint32_t& octet) {
  if (len > 3) return false;
  octet = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if (p[i] < '0' || p[i] > '9') return false;
    octet = octet * 10 + (p[i] - '0');
  }
  return octet <= 255;
}

/// The exact d.c.b.a.in-addr.arpa form; label 0 is the low octet.
bool reverse_address(const std::uint8_t* data, const QName& q, net::IPv4Addr& out) {
  if (q.count != kReverseLabels) return false;
  const auto at = [&](std::size_t i) { return data + q.labels[i].offset; };
  if (!label_is(at(4), q.labels[4].len, "in-addr") || !label_is(at(5), q.labels[5].len, "arpa")) {
    return false;
  }
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    std::uint32_t octet = 0;
    const auto idx = static_cast<std::size_t>(i);
    if (!octet_label(at(idx), q.labels[idx].len, octet)) return false;
    value = (value << 8) | octet;
  }
  out = net::IPv4Addr(value);
  return true;
}

/// The six-bucket verdict: the whole packet must decode before any policy
/// applies, so a corrupt record after a good question is still malformed.
Verdict classify(std::span<const std::uint8_t> wire, net::IPv4Addr& originator) {
  WireScan scan(wire);
  std::uint16_t flags = 0, qd = 0, an = 0, ns = 0, ar = 0;
  if (!scan.skip(2) || !scan.u16(flags) || !scan.u16(qd) || !scan.u16(an) ||
      !scan.u16(ns) || !scan.u16(ar)) {
    return Verdict::kMalformed;  // ID, then the 12-byte header's other fields
  }
  QName qname;
  std::uint16_t qtype = 0, qclass = 0;
  for (std::uint16_t i = 0; i < qd; ++i) {
    std::uint16_t type = 0, klass = 0;
    if (!scan.name(i == 0 ? &qname : nullptr) || !scan.u16(type) || !scan.u16(klass)) {
      return Verdict::kMalformed;
    }
    if (i == 0) {
      qtype = type;
      qclass = klass;
    }
  }
  const std::uint32_t records = static_cast<std::uint32_t>(an) + ns + ar;
  for (std::uint32_t i = 0; i < records; ++i) {
    if (!scan.rr()) return Verdict::kMalformed;
  }
  if ((flags & 0x8000) != 0) return Verdict::kResponse;
  if (((flags >> 11) & 0xf) != 0 || qd != 1) return Verdict::kRejected;
  if (qtype != static_cast<std::uint16_t>(QType::kPTR) ||
      qclass != static_cast<std::uint16_t>(QClass::kIN)) {
    return Verdict::kNonPtr;
  }
  if (!reverse_address(scan.data(), qname, originator)) return Verdict::kNonReverse;
  return Verdict::kAccepted;
}

}  // namespace

std::optional<QueryRecord> record_from_packet(std::span<const std::uint8_t> payload,
                                              util::SimTime time, net::IPv4Addr source,
                                              CaptureStats& stats) {
  ++stats.packets;
  g_packets.inc();
  net::IPv4Addr originator;
  switch (classify(payload, originator)) {
    case Verdict::kMalformed:
      ++stats.malformed;
      g_malformed.inc();
      return std::nullopt;
    case Verdict::kResponse:
      ++stats.responses;
      g_responses.inc();
      return std::nullopt;
    case Verdict::kRejected:
      // Decoded fine; the sensor's policy (plain QUERY, exactly one
      // question) is what rejects it — not corruption.
      ++stats.rejected_query;
      g_rejected.inc();
      return std::nullopt;
    case Verdict::kNonPtr:
      ++stats.non_ptr;
      g_non_ptr.inc();
      return std::nullopt;
    case Verdict::kNonReverse:
      ++stats.non_reverse_name;
      g_non_reverse.inc();
      return std::nullopt;
    case Verdict::kAccepted:
      break;
  }
  ++stats.accepted;
  g_accepted.inc();
  // The response outcome is unknown at query time; NOERROR is recorded
  // and may be refined by matching responses in a fuller capture stack.
  return QueryRecord{time, source, originator, RCode::kNoError};
}

std::vector<std::uint8_t> make_ptr_query_packet(std::uint16_t id,
                                                net::IPv4Addr originator) {
  return encode(Message::ptr_query(id, originator));
}

}  // namespace dnsbs::dns
