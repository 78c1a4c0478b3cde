// Deterministic fuzz harness for the wire decoder (DESIGN.md §6).
//
// Contract under test: for ANY byte string, decode() either throws
// DecodeError or returns a well-formed Decoded — it never crashes, loops,
// over-reads the buffer, or trips a sanitizer (this file runs under the
// ASan/UBSan CI job like every other test).  The corpus is seeded from the
// same truncation family wire_test.cpp checks (every prefix of a valid
// encoding) and expanded with byte flips, splices, and raw garbage; the
// mutation stream is a pure function of the fixed seeds, so a failure
// reproduces bit-for-bit.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "centaur/permission_list.hpp"
#include "wire/wire_format.hpp"

namespace centaur::wire {
namespace {

using core::GraphDelta;
using core::NodeId;
using core::PermissionList;

// Canonical random delta, mirroring wire_test.cpp's generator: sorted
// unique link keys / node ids, random Permission Lists (kNoNextHop entries
// and empty lists included).
GraphDelta random_delta(std::mt19937& rng) {
  std::uniform_int_distribution<std::uint32_t> node(0, 499);
  auto random_link_keys = [&](std::size_t max_n) {
    std::set<std::uint64_t> keys;
    const std::size_t n = rng() % (max_n + 1);
    while (keys.size() < n) {
      keys.insert(core::pack_link(node(rng), node(rng)));
    }
    return keys;
  };
  auto random_nodes = [&](std::size_t max_n) {
    std::set<NodeId> ids;
    const std::size_t n = rng() % (max_n + 1);
    while (ids.size() < n) ids.insert(node(rng));
    return ids;
  };

  GraphDelta d;
  d.reset = rng() % 4 == 0;
  for (const std::uint64_t key : random_link_keys(6)) {
    PermissionList plist;
    const std::size_t entries = rng() % 4;
    for (std::size_t e = 0; e < entries; ++e) {
      const NodeId next = rng() % 8 == 0 ? core::kNoNextHop : node(rng);
      const std::size_t dests = 1 + rng() % 5;
      for (std::size_t k = 0; k < dests; ++k) plist.add(node(rng), next);
    }
    d.upserts.emplace_back(core::unpack_link(key), std::move(plist));
  }
  for (const std::uint64_t key : random_link_keys(5)) {
    d.removes.push_back(core::unpack_link(key));
  }
  for (const NodeId id : random_nodes(5)) d.dest_adds.push_back(id);
  for (const NodeId id : random_nodes(5)) d.dest_removes.push_back(id);
  return d;
}

/// Feeds `buf` to the decoder.  Accepts exactly two outcomes: DecodeError,
/// or a successful decode whose re-encoding is itself decodable (i.e. the
/// decoder only ever produces states the encoder considers well-formed).
/// Anything else — another exception type, a crash, a sanitizer report —
/// fails the test.
void expect_reject_or_roundtrip(const std::vector<std::uint8_t>& buf,
                                const std::string& context) {
  Decoded out;
  try {
    out = decode(buf.data(), buf.size());
  } catch (const DecodeError&) {
    return;  // rejected cleanly
  }
  EXPECT_LE(out.bytes_consumed, buf.size()) << context;
  if (out.encoding == PlistEncoding::kBloom) {
    // Bloom decodes park the plists in the sidecar; re-encoding the delta
    // would drop them, so well-formedness here is just the bounds check
    // plus one sidecar row per upsert.
    EXPECT_EQ(out.bloom_plists.size(), out.delta.upserts.size()) << context;
    return;
  }
  std::vector<std::uint8_t> reencoded;
  try {
    reencoded = encode(out.delta, out.encoding);
  } catch (...) {
    FAIL() << context << ": decoder accepted a delta the encoder rejects";
  }
  try {
    (void)decode(reencoded.data(), reencoded.size());
  } catch (const DecodeError& e) {
    FAIL() << context << ": re-encoded accepted delta fails to decode: "
           << e.what();
  }
}

std::string hex(const std::vector<std::uint8_t>& buf) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(buf.size() * 2);
  for (const std::uint8_t b : buf) {
    s.push_back(digits[b >> 4]);
    s.push_back(digits[b & 0xF]);
  }
  return s;
}

TEST(WireFuzz, EveryTruncationRejectsOrRoundtrips) {
  // The seed family from wire_test.cpp: cutting a valid encoding at every
  // byte offset.  (Truncations of a valid message should virtually always
  // reject; a prefix that happens to parse — e.g. cutting exactly at a
  // section boundary of a smaller message — must still roundtrip.)
  std::mt19937 rng(0xF0220806);
  for (int trial = 0; trial < 40; ++trial) {
    const GraphDelta d = random_delta(rng);
    for (const PlistEncoding enc :
         {PlistEncoding::kExplicit, PlistEncoding::kBloom}) {
      const std::vector<std::uint8_t> full = encode(d, enc);
      for (std::size_t cut = 0; cut < full.size(); ++cut) {
        const std::vector<std::uint8_t> buf(
            full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
        expect_reject_or_roundtrip(
            buf, "trial " + std::to_string(trial) + " cut " +
                     std::to_string(cut) + " of " + hex(full));
      }
    }
  }
}

TEST(WireFuzz, ByteFlipMutationsNeverCrash) {
  std::mt19937 rng(0xB17F11B);
  for (int trial = 0; trial < 60; ++trial) {
    const GraphDelta d = random_delta(rng);
    const PlistEncoding enc =
        rng() % 2 == 0 ? PlistEncoding::kExplicit : PlistEncoding::kBloom;
    const std::vector<std::uint8_t> full = encode(d, enc);
    if (full.empty()) continue;
    // Single-byte flips at every offset (exhaustive for the first bytes,
    // where the header/counters live, random elsewhere to bound runtime).
    for (std::size_t pos = 0; pos < full.size(); ++pos) {
      std::vector<std::uint8_t> buf = full;
      buf[pos] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      expect_reject_or_roundtrip(buf, "flip at " + std::to_string(pos) +
                                          " of " + hex(full));
    }
    // A handful of multi-site mutations per message.
    for (int round = 0; round < 8; ++round) {
      std::vector<std::uint8_t> buf = full;
      const std::size_t sites = 1 + rng() % 4;
      for (std::size_t s = 0; s < sites; ++s) {
        buf[rng() % buf.size()] = static_cast<std::uint8_t>(rng());
      }
      expect_reject_or_roundtrip(buf, "multiflip of " + hex(full));
    }
  }
}

TEST(WireFuzz, SplicedAndGarbageInputNeverCrashes) {
  std::mt19937 rng(0x5EEDF00D);
  std::vector<std::vector<std::uint8_t>> corpus;
  for (int i = 0; i < 10; ++i) {
    const GraphDelta d = random_delta(rng);
    corpus.push_back(encode(d, PlistEncoding::kExplicit));
    corpus.push_back(encode(d, PlistEncoding::kBloom));
  }
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> buf;
    switch (trial % 3) {
      case 0: {  // pure garbage, assorted lengths
        const std::size_t n = rng() % 64;
        for (std::size_t i = 0; i < n; ++i) {
          buf.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
      }
      case 1: {  // splice: head of one valid message + tail of another
        const auto& a = corpus[rng() % corpus.size()];
        const auto& b = corpus[rng() % corpus.size()];
        const std::size_t cut_a = a.empty() ? 0 : rng() % a.size();
        const std::size_t cut_b = b.empty() ? 0 : rng() % b.size();
        buf.assign(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(cut_a));
        buf.insert(buf.end(), b.begin() + static_cast<std::ptrdiff_t>(cut_b),
                   b.end());
        break;
      }
      default: {  // valid message with trailing garbage
        buf = corpus[rng() % corpus.size()];
        const std::size_t n = 1 + rng() % 8;
        for (std::size_t i = 0; i < n; ++i) {
          buf.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
      }
    }
    expect_reject_or_roundtrip(buf, "trial " + std::to_string(trial) +
                                        " input " + hex(buf));
  }
  // Degenerate inputs.
  expect_reject_or_roundtrip({}, "empty");
  expect_reject_or_roundtrip({kWireVersion}, "version only");
  expect_reject_or_roundtrip(std::vector<std::uint8_t>(4096, 0xFF),
                             "all-ones page");
  expect_reject_or_roundtrip(std::vector<std::uint8_t>(4096, 0x00),
                             "all-zero page");
}

}  // namespace
}  // namespace centaur::wire
