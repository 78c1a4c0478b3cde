// Codec tests: varint units, randomized encode→decode roundtrip (both
// Permission-List encodings), exact-length accounting, malformed input.
//
// Roundtrip identity: with the explicit encoding, decode(encode(d)) == d
// for every canonical delta (sections sorted ascending — what diff_views
// and PendingDelta::take produce).  The Bloom encoding is lossy over
// destination ids by construction, so its roundtrip property is structural
// identity (links, next hops, destination counts) plus bit-identical
// filters with no false negatives — documented in DESIGN.md §6.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "centaur/permission_list.hpp"
#include "wire/wire_format.hpp"

namespace centaur::wire {
namespace {

using core::DirectedLink;
using core::GraphDelta;
using core::NodeId;
using core::PermissionList;

TEST(Varint, SizeAndRoundtrip) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  16383,
                                  16384,
                                  0xFFFFFFFFULL,
                                  0x100000000ULL,
                                  0xFFFFFFFFFFFFFFFFULL};
  for (const std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    EXPECT_EQ(buf.size(), varint_size(v)) << v;
    const std::uint8_t* pos = buf.data();
    EXPECT_EQ(get_varint(&pos, buf.data() + buf.size()), v);
    EXPECT_EQ(pos, buf.data() + buf.size());
  }
  EXPECT_EQ(varint_size(0), 1u);
  EXPECT_EQ(varint_size(127), 1u);
  EXPECT_EQ(varint_size(128), 2u);
  EXPECT_EQ(varint_size(0xFFFFFFFFFFFFFFFFULL), 10u);
}

TEST(Varint, TruncatedAndOverflowingInputThrow) {
  const std::vector<std::uint8_t> truncated = {0x80, 0x80};
  const std::uint8_t* pos = truncated.data();
  EXPECT_THROW(get_varint(&pos, truncated.data() + truncated.size()),
               DecodeError);
  // 10 continuation bytes that overflow 64 bits.
  const std::vector<std::uint8_t> wide(10, 0xFF);
  pos = wide.data();
  EXPECT_THROW(get_varint(&pos, wide.data() + wide.size()), DecodeError);
}

// Canonical random delta: sorted unique link keys / node ids, random
// Permission Lists (including kNoNextHop entries and empty lists).
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
    const std::size_t entries = rng() % 4;  // 0 entries: single-homed head
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

void expect_delta_eq(const GraphDelta& a, const GraphDelta& b) {
  EXPECT_EQ(a.reset, b.reset);
  ASSERT_EQ(a.upserts.size(), b.upserts.size());
  for (std::size_t i = 0; i < a.upserts.size(); ++i) {
    EXPECT_EQ(a.upserts[i].first, b.upserts[i].first);
    EXPECT_TRUE(a.upserts[i].second == b.upserts[i].second) << i;
  }
  EXPECT_EQ(a.removes, b.removes);
  EXPECT_EQ(a.dest_adds, b.dest_adds);
  EXPECT_EQ(a.dest_removes, b.dest_removes);
}

TEST(WireRoundtrip, ExplicitEncodingIsIdentity) {
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    const GraphDelta d = random_delta(rng);
    const std::vector<std::uint8_t> buf = encode(d, PlistEncoding::kExplicit);
    EXPECT_EQ(buf.size(), d.byte_size(false)) << "trial " << trial;

    const Decoded out = decode(buf);
    EXPECT_EQ(out.encoding, PlistEncoding::kExplicit);
    EXPECT_EQ(out.bytes_consumed, buf.size());
    expect_delta_eq(out.delta, d);
    // Re-encoding the decoded delta is a fixed point.
    EXPECT_EQ(encode(out.delta, PlistEncoding::kExplicit), buf);
  }
}

TEST(WireRoundtrip, BloomEncodingIsStructuralIdentity) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const GraphDelta d = random_delta(rng);
    const std::vector<std::uint8_t> buf = encode(d, PlistEncoding::kBloom);
    EXPECT_EQ(buf.size(), d.byte_size(true)) << "trial " << trial;

    const Decoded out = decode(buf);
    EXPECT_EQ(out.encoding, PlistEncoding::kBloom);
    EXPECT_EQ(out.bytes_consumed, buf.size());
    // Non-plist sections are exact.
    EXPECT_EQ(out.delta.reset, d.reset);
    EXPECT_EQ(out.delta.removes, d.removes);
    EXPECT_EQ(out.delta.dest_adds, d.dest_adds);
    EXPECT_EQ(out.delta.dest_removes, d.dest_removes);
    ASSERT_EQ(out.delta.upserts.size(), d.upserts.size());
    ASSERT_EQ(out.bloom_plists.size(), d.upserts.size());
    for (std::size_t i = 0; i < d.upserts.size(); ++i) {
      EXPECT_EQ(out.delta.upserts[i].first, d.upserts[i].first);
      const auto entries = d.upserts[i].second.entries();
      ASSERT_EQ(out.bloom_plists[i].size(), entries.size());
      for (std::size_t j = 0; j < entries.size(); ++j) {
        const BloomEntry& got = out.bloom_plists[i][j];
        EXPECT_EQ(got.next_hop, entries[j].next_hop);
        EXPECT_EQ(got.dest_count, entries[j].dests.size());
        // Bit-identical to the sender-side compression, hence no false
        // negatives over the true destination set.
        const util::BloomFilter expect =
            PermissionList::compress_dests(entries[j].dests);
        EXPECT_EQ(got.filter.words(), expect.words());
        EXPECT_EQ(got.filter.hash_count(), expect.hash_count());
        for (const NodeId dest : entries[j].dests) {
          EXPECT_TRUE(got.filter.contains(dest));
        }
      }
    }
  }
}

TEST(WireRoundtrip, EncoderCanonicalizesUnsortedSections) {
  GraphDelta unsorted;
  unsorted.upserts.emplace_back(DirectedLink{5, 6}, PermissionList{});
  unsorted.upserts.emplace_back(DirectedLink{1, 2}, PermissionList{});
  unsorted.removes.push_back(DirectedLink{9, 9});
  unsorted.removes.push_back(DirectedLink{3, 4});
  unsorted.dest_adds = {7, 2};
  const Decoded out = decode(encode(unsorted, PlistEncoding::kExplicit));
  EXPECT_EQ(out.delta.upserts[0].first, (DirectedLink{1, 2}));
  EXPECT_EQ(out.delta.upserts[1].first, (DirectedLink{5, 6}));
  EXPECT_EQ(out.delta.removes[0], (DirectedLink{3, 4}));
  EXPECT_EQ(out.delta.dest_adds, (std::vector<NodeId>{2, 7}));
}

TEST(WireDecode, RejectsMalformedInput) {
  // Too short for a header.
  EXPECT_THROW(decode(nullptr, 0), DecodeError);
  const std::uint8_t one_byte[] = {kWireVersion};
  EXPECT_THROW(decode(one_byte, 1), DecodeError);

  const GraphDelta d;  // minimal valid message to corrupt
  std::vector<std::uint8_t> buf = encode(d, PlistEncoding::kExplicit);
  ASSERT_EQ(buf.size(), 6u);

  std::vector<std::uint8_t> bad = buf;
  bad[0] = 99;  // unknown version
  EXPECT_THROW(decode(bad), DecodeError);

  bad = buf;
  bad[1] = 0xF0;  // unknown flag bits
  EXPECT_THROW(decode(bad), DecodeError);

  bad = buf;
  bad[2] = 200;  // claims 200 upserts in a 6-byte message
  EXPECT_THROW(decode(bad), DecodeError);

  // Truncation anywhere in a real message must throw, never read past end.
  GraphDelta full;
  PermissionList plist;
  plist.add(1, 2);
  full.upserts.emplace_back(DirectedLink{1, 2}, plist);
  full.removes.push_back(DirectedLink{3, 4});
  full.dest_adds.push_back(5);
  for (const PlistEncoding enc :
       {PlistEncoding::kExplicit, PlistEncoding::kBloom}) {
    const std::vector<std::uint8_t> whole = encode(full, enc);
    for (std::size_t cut = 0; cut < whole.size(); ++cut) {
      EXPECT_THROW(decode(whole.data(), cut), DecodeError) << cut;
    }
    EXPECT_NO_THROW(decode(whole));
  }
}

}  // namespace
}  // namespace centaur::wire
