// Deterministic fuzz harness for the DNS wire codec (tentpole of the
// robustness pass).  Three invariant families:
//
//  1. Valid corpus: decode(encode(m)) == m for every structure-aware
//     generated message m (compression-heavy names, all RDATA variants,
//     all four sections, boundary-size labels and names).
//  2. Mutated corpus: >= 10k seeded byte mutations per ctest invocation;
//     decode never crashes or reads out of bounds (ASan/UBSan enforce the
//     latter under tools/check.sh), and anything that still decodes is
//     itself re-encodable and round-trips — the decoder never emits a
//     message the encoder cannot represent.
//  3. Capture ingest: mutated packets through record_from_packet never
//     crash and the CaptureStats counters always partition `packets`.
//  4. Differential capture: record_from_packet walks the wire in place,
//     so over the mutated corpus, mutated PTR queries and pure garbage it
//     must put every packet in the same CaptureStats bucket, with the
//     same originator, as the decode-based oracle in
//     tests/reference_capture.hpp.
//
// Every failure message carries (seed, trial, mutation trace) so a crash
// replays from the test name alone.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>

#include "../reference_capture.hpp"
#include "dns/capture.hpp"
#include "dns/wire.hpp"
#include "util/fuzz.hpp"
#include "util/rng.hpp"

namespace dnsbs::dns {
namespace {

// ---- structure-aware corpus generator ----
// Richer than the property-test generator: deep names with shared
// suffixes (to exercise the compression map), boundary-size labels,
// every RDATA variant, and occupied authority/additional sections.

std::string random_label(util::Rng& rng) {
  static const char* kStock[] = {"mail", "ns", "example", "com", "net", "jp",
                                 "in-addr", "arpa", "x", "srv-7"};
  if (rng.chance(0.7)) return kStock[rng.below(std::size(kStock))];
  // Random-length label, occasionally at the 63-byte cap.
  const std::size_t len = rng.chance(0.15) ? 63 : 1 + rng.below(16);
  std::string label(len, 'a');
  for (auto& c : label) c = static_cast<char>('a' + rng.below(26));
  return label;
}

DnsName random_name(util::Rng& rng, const std::vector<DnsName>& pool) {
  // Half the time extend a pooled name so suffixes repeat across the
  // message and the encoder's compression map gets real work.
  std::vector<std::string> labels;
  if (!pool.empty() && rng.chance(0.5)) {
    const DnsName& base = pool[rng.below(pool.size())];
    labels = base.labels();
  }
  const std::size_t extra = 1 + rng.below(3);
  for (std::size_t i = 0; i < extra; ++i) {
    labels.insert(labels.begin(), random_label(rng));
  }
  // Respect the 255-octet cap the encoder now enforces.
  std::size_t wire = 1;
  std::vector<std::string> kept;
  for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
    if (wire + 1 + it->size() > 255) break;
    wire += 1 + it->size();
    kept.insert(kept.begin(), *it);
  }
  if (kept.empty()) kept.push_back("a");
  return DnsName::from_labels(std::move(kept));
}

ResourceRecord random_rr(util::Rng& rng, std::vector<DnsName>& pool) {
  ResourceRecord rr;
  rr.name = random_name(rng, pool);
  pool.push_back(rr.name);
  rr.ttl = static_cast<std::uint32_t>(rng.below(1u << 20));
  switch (rng.below(4)) {
    case 0:
      rr.rtype = QType::kA;
      rr.rdata.value = net::IPv4Addr(static_cast<std::uint32_t>(rng.next()));
      break;
    case 1: {
      rr.rtype = rng.chance(0.5) ? QType::kPTR : QType::kCNAME;
      DnsName target = random_name(rng, pool);
      pool.push_back(target);
      rr.rdata.value = std::move(target);
      break;
    }
    case 2:
      rr.rtype = QType::kNS;
      rr.rdata.value = random_name(rng, pool);
      break;
    default: {
      rr.rtype = rng.chance(0.5) ? QType::kTXT : QType::kSOA;
      std::vector<std::uint8_t> raw(rng.below(200));
      for (auto& b : raw) b = static_cast<std::uint8_t>(rng.below(256));
      rr.rdata.value = std::move(raw);
      break;
    }
  }
  return rr;
}

Message random_message(util::Rng& rng) {
  Message m;
  m.id = static_cast<std::uint16_t>(rng.next());
  m.is_response = rng.chance(0.5);
  m.opcode = static_cast<std::uint8_t>(rng.below(3));
  m.authoritative = rng.chance(0.3);
  m.truncated = rng.chance(0.1);
  m.recursion_desired = rng.chance(0.7);
  m.recursion_available = rng.chance(0.5);
  m.rcode = static_cast<RCode>(rng.below(6));
  std::vector<DnsName> pool;
  const std::size_t questions = rng.below(3);
  for (std::size_t i = 0; i < questions; ++i) {
    Question q;
    q.name = random_name(rng, pool);
    pool.push_back(q.name);
    q.qtype = rng.chance(0.5) ? QType::kPTR : QType::kA;
    m.questions.push_back(std::move(q));
  }
  const std::size_t answers = rng.below(5);
  for (std::size_t i = 0; i < answers; ++i) m.answers.push_back(random_rr(rng, pool));
  const std::size_t auth = rng.below(3);
  for (std::size_t i = 0; i < auth; ++i) m.authorities.push_back(random_rr(rng, pool));
  const std::size_t extra = rng.below(2);
  for (std::size_t i = 0; i < extra; ++i) m.additionals.push_back(random_rr(rng, pool));
  return m;
}

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, ValidCorpusRoundTripsExactly) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    const Message m = random_message(rng);
    const auto wire = try_encode(m);
    ASSERT_TRUE(wire) << "seed=" << GetParam() << " trial=" << trial;
    const auto decoded = decode(*wire);
    ASSERT_TRUE(decoded) << "seed=" << GetParam() << " trial=" << trial;
    EXPECT_EQ(*decoded, m) << "seed=" << GetParam() << " trial=" << trial;
  }
}

// The headline budget: 5 seed instantiations x 500 base messages x 6
// mutations = 15k mutations per ctest invocation, each followed by a
// decode and (when it still parses) a canonicalization round-trip.
TEST_P(WireFuzz, MutatedWireNeverCrashesAndStaysCanonical) {
  util::Rng rng(GetParam() ^ 0xf0c22edULL);
  util::ByteMutator mutator(GetParam() * 0x9e3779b97f4a7c15ULL + 1);
  for (int trial = 0; trial < 500; ++trial) {
    const Message m = random_message(rng);
    auto wire = encode(m);
    const auto trace = mutator.mutate_n(wire, 6);
    const auto decoded = decode(wire);  // must not crash / read OOB
    if (!decoded) continue;
    // Whatever decodes is within wire limits by construction, so the
    // encoder must accept it and the result must round-trip: the decoder
    // never produces a message outside the encodable domain.
    const auto re = try_encode(*decoded);
    ASSERT_TRUE(re) << "seed=" << GetParam() << " trial=" << trial
                    << " trace=" << util::describe(trace);
    const auto again = decode(*re);
    ASSERT_TRUE(again) << "seed=" << GetParam() << " trial=" << trial
                       << " trace=" << util::describe(trace);
    EXPECT_EQ(*again, *decoded) << "seed=" << GetParam() << " trial=" << trial
                                << " trace=" << util::describe(trace);
  }
}

TEST_P(WireFuzz, PureGarbageNeverCrashes) {
  util::Rng rng(GetParam() ^ 0xdeadULL);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(300));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    (void)decode(junk);
  }
}

// Ingest front door: mutated packets through the capture classifier.
TEST_P(WireFuzz, CaptureClassifiesEveryMutatedPacketExactlyOnce) {
  util::Rng rng(GetParam() ^ 0xcafeULL);
  util::ByteMutator mutator(GetParam() ^ 0xf001ULL);
  CaptureStats stats;
  const net::IPv4Addr source = net::IPv4Addr::from_octets(192, 0, 2, 53);
  for (int trial = 0; trial < 500; ++trial) {
    auto wire = make_ptr_query_packet(static_cast<std::uint16_t>(rng.next()),
                                      net::IPv4Addr(static_cast<std::uint32_t>(rng.next())));
    mutator.mutate_n(wire, 1 + rng.below(4));
    (void)record_from_packet(wire, util::SimTime::seconds(trial), source, stats);
    ASSERT_TRUE(stats.consistent()) << "seed=" << GetParam() << " trial=" << trial;
  }
  EXPECT_EQ(stats.packets, 500u);
  // Spell the six-way partition out (consistent() must agree with it):
  // decodable-but-rejected queries have their own bucket, distinct from
  // undecodable `malformed` bytes.
  EXPECT_EQ(stats.packets, stats.malformed + stats.responses + stats.rejected_query +
                               stats.non_ptr + stats.non_reverse_name + stats.accepted);
}

// ---- differential capture: in-place classifier vs the decode oracle ----

/// Classifies one packet both ways; false (with `why`) on any
/// disagreement in bucket or originator.
bool capture_agrees(const std::vector<std::uint8_t>& wire, std::string& why) {
  CaptureStats stats;
  const auto record = record_from_packet(wire, util::SimTime::seconds(0),
                                         net::IPv4Addr::from_octets(192, 0, 2, 53), stats);
  const reference::Verdict expect = reference::classify(wire);
  const auto got = reference::only_bucket(stats);
  const std::optional<net::IPv4Addr> originator =
      record ? std::optional<net::IPv4Addr>(record->originator) : std::nullopt;
  if (got == expect.bucket && originator == expect.originator) return true;
  why = "bucket got=" + (got ? std::to_string(static_cast<int>(*got)) : std::string("none")) +
        " want=" + std::to_string(static_cast<int>(expect.bucket)) + " originator got=" +
        (originator ? originator->to_string() : "-") + " want=" +
        (expect.originator ? expect.originator->to_string() : "-");
  return false;
}

/// A PTR query whose reverse name is spelled with random case and
/// zero-padded octets, so the oracle's case folding and digit rules get
/// exercised before any mutation lands.
std::vector<std::uint8_t> spelled_ptr_query(util::Rng& rng) {
  std::vector<std::string> labels;
  for (int i = 0; i < 4; ++i) {
    std::string octet = std::to_string(rng.below(256));
    while (octet.size() < 3 && rng.chance(0.2)) octet.insert(octet.begin(), '0');
    labels.push_back(octet);
  }
  for (std::string label : {std::string("in-addr"), std::string("arpa")}) {
    for (char& c : label) {
      if (c >= 'a' && c <= 'z' && rng.chance(0.3)) c = static_cast<char>(c - 'a' + 'A');
    }
    labels.push_back(label);
  }
  std::vector<std::uint8_t> wire = {0x12, 0x34, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0};
  for (const std::string& label : labels) {
    wire.push_back(static_cast<std::uint8_t>(label.size()));
    wire.insert(wire.end(), label.begin(), label.end());
  }
  for (const std::uint8_t b : {0, 0, 12, 0, 1}) wire.push_back(b);  // root, PTR, IN
  return wire;
}

TEST_P(WireFuzz, CaptureMatchesDecodeOracle) {
  util::Rng rng(GetParam() ^ 0xd1ffULL);
  util::ByteMutator mutator(GetParam() ^ 0xd1ff0001ULL);
  std::size_t packets = 0;
  std::size_t mismatches = 0;
  std::string first;
  std::array<std::size_t, 6> buckets{};  // oracle verdicts, to show every bucket is reached
  const auto check = [&](const std::vector<std::uint8_t>& wire, const char* corpus,
                         int trial) {
    ++packets;
    ++buckets[static_cast<std::size_t>(reference::classify(wire).bucket)];
    std::string why;
    if (capture_agrees(wire, why)) return;
    if (mismatches++ == 0) {
      first = std::string(corpus) + " trial=" + std::to_string(trial) + " " + why;
    }
  };
  for (int trial = 0; trial < 500; ++trial) {
    auto wire = encode(random_message(rng));
    check(wire, "message", trial);
    mutator.mutate_n(wire, 1 + rng.below(6));
    check(wire, "mutated-message", trial);
  }
  for (int trial = 0; trial < 500; ++trial) {
    auto wire = rng.chance(0.5)
                    ? make_ptr_query_packet(static_cast<std::uint16_t>(rng.next()),
                                            net::IPv4Addr(static_cast<std::uint32_t>(rng.next())))
                    : spelled_ptr_query(rng);
    check(wire, "ptr-query", trial);
    mutator.mutate_n(wire, 1 + rng.below(4));
    check(wire, "mutated-ptr-query", trial);
  }
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(300));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    check(junk, "garbage", trial);
  }
  EXPECT_EQ(packets, 2400u);
  EXPECT_EQ(mismatches, 0u) << "seed=" << GetParam() << " first: " << first;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    EXPECT_GT(buckets[b], 0u) << "seed=" << GetParam() << " bucket " << b << " never reached";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

// Hand-built packets for the edges the random corpus rarely reaches.
// Each lands in a known bucket, and the in-place classifier must agree
// with the oracle on it.

/// Header with the given flags and section counts, then `body` verbatim.
std::vector<std::uint8_t> packet(std::uint16_t flags, std::uint16_t qd, std::uint16_t an,
                                 const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> wire = {0xab, 0xcd,
                                    static_cast<std::uint8_t>(flags >> 8),
                                    static_cast<std::uint8_t>(flags),
                                    static_cast<std::uint8_t>(qd >> 8),
                                    static_cast<std::uint8_t>(qd),
                                    static_cast<std::uint8_t>(an >> 8),
                                    static_cast<std::uint8_t>(an),
                                    0, 0, 0, 0};
  wire.insert(wire.end(), body.begin(), body.end());
  return wire;
}

/// Wire labels for a dotted name, without the root byte.
std::vector<std::uint8_t> labels(std::string_view dotted) {
  std::vector<std::uint8_t> out;
  while (!dotted.empty()) {
    const std::size_t dot = dotted.find('.');
    const std::string_view label = dotted.substr(0, dot);
    out.push_back(static_cast<std::uint8_t>(label.size()));
    out.insert(out.end(), label.begin(), label.end());
    dotted = dot == std::string_view::npos ? std::string_view{} : dotted.substr(dot + 1);
  }
  return out;
}

/// One-question query: `name` labels, then `tail` (root/pointer + type +
/// class + any further sections).
std::vector<std::uint8_t> query(std::uint16_t qd, std::uint16_t an, std::string_view name,
                                const std::vector<std::uint8_t>& tail) {
  auto wire = packet(0x0100, qd, an, {});
  const auto l = labels(name);
  wire.insert(wire.end(), l.begin(), l.end());
  wire.insert(wire.end(), tail.begin(), tail.end());
  return wire;
}

const std::vector<std::uint8_t> kPtrIn = {0, 0, 12, 0, 1};  // root, PTR, IN

TEST(CaptureOracle, HandCasesLandInTheirBuckets) {
  using reference::Bucket;
  struct Case {
    const char* what;
    std::vector<std::uint8_t> wire;
    Bucket bucket;
    std::optional<net::IPv4Addr> originator;
  };
  const auto addr = [](int a, int b, int c, int d) {
    return std::optional<net::IPv4Addr>(net::IPv4Addr::from_octets(
        static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
        static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d)));
  };
  auto trailing = query(1, 0, "4.3.2.1.in-addr.arpa", kPtrIn);
  trailing.insert(trailing.end(), {0xde, 0xad, 0xbe, 0xef});
  // A good question, then an answer record cut off inside its TTL.
  auto bad_rr = query(1, 1, "4.3.2.1.in-addr.arpa", kPtrIn);
  bad_rr.insert(bad_rr.end(), {0xc0, 12, 0, 1, 0, 1, 0, 0});
  // An A record whose RDLENGTH claims 5 octets.
  auto bad_a = query(1, 1, "4.3.2.1.in-addr.arpa", kPtrIn);
  bad_a.insert(bad_a.end(), {0xc0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 5, 1, 2, 3, 4, 5});
  // A PTR record whose name ends one octet before RDLENGTH does.
  auto short_ptr = query(1, 1, "4.3.2.1.in-addr.arpa", kPtrIn);
  short_ptr.insert(short_ptr.end(), {0xc0, 12, 0, 12, 0, 1, 0, 0, 0, 60, 0, 3, 0xc0, 12, 0});
  // A well-formed PTR answer after the question: still a query.
  auto good_rr = query(1, 1, "4.3.2.1.in-addr.arpa", kPtrIn);
  good_rr.insert(good_rr.end(), {0xc0, 12, 0, 12, 0, 1, 0, 0, 0, 60, 0, 2, 0xc0, 12});
  // Second question compressed onto the first: decodes, but QDCOUNT 2.
  auto two = query(2, 0, "4.3.2.1.in-addr.arpa", kPtrIn);
  two.insert(two.end(), {0xc0, 12, 0, 12, 0, 1});
  // A TXT answer whose RDATA holds a root byte and a chain of `links`
  // backward pointers, each to the one before; an additional record named
  // by a pointer to the chain's end then takes links + 1 jumps.
  const auto chain = [](int links) {
    auto wire = query(1, 1, "4.3.2.1.in-addr.arpa", kPtrIn);
    wire[11] = 1;  // ARCOUNT
    const std::size_t rdlength = 1 + 2 * static_cast<std::size_t>(links);
    wire.insert(wire.end(), {0xc0, 12, 0, 16, 0, 1, 0, 0, 0, 60,
                             static_cast<std::uint8_t>(rdlength >> 8),
                             static_cast<std::uint8_t>(rdlength)});
    std::size_t target = wire.size();
    wire.push_back(0);  // root
    for (int i = 0; i < links; ++i) {
      const std::size_t here = wire.size();
      wire.push_back(static_cast<std::uint8_t>(0xc0 | (target >> 8)));
      wire.push_back(static_cast<std::uint8_t>(target));
      target = here;
    }
    wire.insert(wire.end(), {static_cast<std::uint8_t>(0xc0 | (target >> 8)),
                             static_cast<std::uint8_t>(target), 0, 16, 0, 1, 0, 0, 0, 60,
                             0, 0});
    return wire;
  };
  // 64 labels of 3 octets: a name past the 255-octet cap.
  std::string long_name;
  for (int i = 0; i < 64; ++i) long_name += i ? ".abc" : "abc";

  const std::vector<Case> cases = {
      {"plain", query(1, 0, "4.3.2.1.in-addr.arpa", kPtrIn), Bucket::kAccepted,
       addr(1, 2, 3, 4)},
      {"upper-case suffix", query(1, 0, "4.3.2.1.IN-ADDR.ARPA", kPtrIn), Bucket::kAccepted,
       addr(1, 2, 3, 4)},
      {"mixed-case suffix", query(1, 0, "4.3.2.1.In-AdDr.ArPa", kPtrIn), Bucket::kAccepted,
       addr(1, 2, 3, 4)},
      {"zero-padded octet", query(1, 0, "007.3.2.1.in-addr.arpa", kPtrIn), Bucket::kAccepted,
       addr(1, 2, 3, 7)},
      {"four-digit octet", query(1, 0, "1000.3.2.1.in-addr.arpa", kPtrIn),
       Bucket::kNonReverseName, std::nullopt},
      {"four-digit small octet", query(1, 0, "0001.3.2.1.in-addr.arpa", kPtrIn),
       Bucket::kNonReverseName, std::nullopt},
      {"octet over 255", query(1, 0, "256.3.2.1.in-addr.arpa", kPtrIn),
       Bucket::kNonReverseName, std::nullopt},
      {"non-digit octet", query(1, 0, "4a.3.2.1.in-addr.arpa", kPtrIn),
       Bucket::kNonReverseName, std::nullopt},
      {"zone-level name", query(1, 0, "3.2.1.in-addr.arpa", kPtrIn), Bucket::kNonReverseName,
       std::nullopt},
      {"seven labels", query(1, 0, "5.4.3.2.1.in-addr.arpa", kPtrIn), Bucket::kNonReverseName,
       std::nullopt},
      {"ip6 suffix", query(1, 0, "4.3.2.1.ip6.arpa", kPtrIn), Bucket::kNonReverseName,
       std::nullopt},
      // The name's tail is a pointer to the flags field's zero low byte:
      // a valid compressed root, leaving a four-label name.
      {"compressed question name", query(1, 0, "4.3.2.1", {0xc0, 3, 0, 12, 0, 1}),
       Bucket::kNonReverseName, std::nullopt},
      {"pointer loop", query(1, 0, "4.3", {0xc0, 12, 0, 12, 0, 1}), Bucket::kMalformed,
       std::nullopt},
      {"forward pointer", query(1, 0, "4.3", {0xc0, 40, 0, 12, 0, 1}), Bucket::kMalformed,
       std::nullopt},
      {"64 pointer jumps", chain(63), Bucket::kAccepted, addr(1, 2, 3, 4)},
      {"65 pointer jumps", chain(64), Bucket::kMalformed, std::nullopt},
      {"reserved label type", query(1, 0, "4.3", {0x40, 0, 0, 12, 0, 1}), Bucket::kMalformed,
       std::nullopt},
      {"name over 255 octets", query(1, 0, long_name, kPtrIn), Bucket::kMalformed,
       std::nullopt},
      {"truncated question", query(1, 0, "4.3.2.1.in-addr.arpa", {0, 0, 12}),
       Bucket::kMalformed, std::nullopt},
      {"short header", {0xab, 0xcd, 1, 0, 0, 1}, Bucket::kMalformed, std::nullopt},
      {"trailing bytes", trailing, Bucket::kAccepted, addr(1, 2, 3, 4)},
      {"bad RR after a good question", bad_rr, Bucket::kMalformed, std::nullopt},
      {"A record of 5 octets", bad_a, Bucket::kMalformed, std::nullopt},
      {"PTR rdata short of RDLENGTH", short_ptr, Bucket::kMalformed, std::nullopt},
      {"good RR after the question", good_rr, Bucket::kAccepted, addr(1, 2, 3, 4)},
      {"QDCOUNT 0", packet(0x0100, 0, 0, {}), Bucket::kRejectedQuery, std::nullopt},
      {"QDCOUNT 2", two, Bucket::kRejectedQuery, std::nullopt},
      {"opcode STATUS", [] {
         auto w = query(1, 0, "4.3.2.1.in-addr.arpa", kPtrIn);
         w[2] = 0x10;
         return w;
       }(),
       Bucket::kRejectedQuery, std::nullopt},
      {"response", [] {
         auto w = query(1, 0, "4.3.2.1.in-addr.arpa", kPtrIn);
         w[2] |= 0x80;
         return w;
       }(),
       Bucket::kResponse, std::nullopt},
      {"QCLASS CH", query(1, 0, "4.3.2.1.in-addr.arpa", {0, 0, 12, 0, 3}), Bucket::kNonPtr,
       std::nullopt},
      {"QTYPE A", query(1, 0, "4.3.2.1.in-addr.arpa", {0, 0, 1, 0, 1}), Bucket::kNonPtr,
       std::nullopt},
  };
  for (const Case& c : cases) {
    const reference::Verdict oracle = reference::classify(c.wire);
    EXPECT_EQ(oracle.bucket, c.bucket) << c.what;
    EXPECT_EQ(oracle.originator, c.originator) << c.what;
    std::string why;
    EXPECT_TRUE(capture_agrees(c.wire, why)) << c.what << ": " << why;
  }
}

}  // namespace
}  // namespace dnsbs::dns
