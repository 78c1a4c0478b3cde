// Binary wire codec for Centaur updates (paper §4.1, §4.3).
//
// GraphDelta is what crosses the wire in Step 5, so its serialized form is
// what Fig 7's convergence-load comparison actually measures.  The seed
// estimated sizes with a fixed-cost model ("16-byte header + 8 per link");
// this module replaces the estimate with a real encoder/decoder, and
// `GraphDelta::byte_size` now returns the exact encoded length.
//
// Layout (version 1, all multi-byte integers LEB128 varints unless noted):
//
//   u8       version            (kWireVersion)
//   u8       flags              bit0 = reset, bit1 = Bloom Permission Lists
//   varint   n_upserts, n_removes, n_dest_adds, n_dest_removes
//   upserts[n_upserts]          sorted ascending by packed (from,to) u64 key:
//     varint link key gap       (first absolute, then difference to previous)
//     plist                     see below
//   removes[n_removes]          sorted packed-u64 keys, gap-encoded
//   dest_adds[n_dest_adds]      sorted u32 node ids, gap-encoded
//   dest_removes[...]           sorted u32 node ids, gap-encoded
//
// Permission List, explicit encoding (per-dest-next, §4.1):
//   varint n_entries
//   per entry (ascending next hop; kNoNextHop = 0xFFFFFFFF sorts last):
//     varint next-hop gap
//     varint n_dests
//     varint dest gaps          (ascending, first absolute)
//
// Permission List, Bloom encoding (§4.1 destination-set compression):
//   varint n_entries
//   per entry:
//     varint next-hop gap
//     varint n_dests            (claimed cardinality; sizing + accounting)
//     varint n_words, varint n_hashes
//     u64 x n_words             filter bit array, little-endian words
//
// The encoder canonicalizes section order (stable sort by key), so
// encode(decode(encode(d))) is a fixed point and decode(encode(d)) == d for
// any delta whose sections are already sorted — which diff_views and
// PendingDelta::take() guarantee.  Bloom-encoded destination sets are lossy
// by construction; the decoder surfaces the reconstructed filters in a
// sidecar instead of fabricating destination ids (see Decoded).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "centaur/announce.hpp"
#include "util/bloom.hpp"

namespace centaur::wire {

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::uint8_t kFlagReset = 0x01;
inline constexpr std::uint8_t kFlagBloom = 0x02;

enum class PlistEncoding : std::uint8_t { kExplicit = 0, kBloom = 1 };

/// Bytes needed by the LEB128 encoding of `v` (1..10).
std::size_t varint_size(std::uint64_t v);

/// Appends the LEB128 encoding of `v` to `out`.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);

/// Reads one varint from [*pos, end); advances *pos.  Throws DecodeError on
/// truncation or a value wider than 64 bits.
std::uint64_t get_varint(const std::uint8_t** pos, const std::uint8_t* end);

/// Malformed or truncated input.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bounds-checked read cursor over an encoded buffer — the only sanctioned
/// way to consume raw bytes in decode paths (centaur-lint rule W1, declared
/// in tools/lint/contexts.txt).  Every accessor validates against the
/// buffer end and throws DecodeError instead of reading past it, so decode
/// logic cannot introduce an out-of-bounds read by construction.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size);

  std::size_t remaining() const;
  std::size_t consumed() const;

  /// One byte; `what` names the field for the DecodeError message.
  std::uint8_t u8(const char* what);

  /// One LEB128 varint (same validation as get_varint).
  std::uint64_t varint();

  /// Eight bytes, little-endian.
  std::uint64_t le_u64(const char* what);

 private:
  const std::uint8_t* begin_;
  const std::uint8_t* pos_;
  const std::uint8_t* end_;
};

/// Serializes `delta`; byte-for-byte what byte_size() accounts.
std::vector<std::uint8_t> encode(const core::GraphDelta& delta,
                                 PlistEncoding encoding);

/// Exact length encode() would produce, without materializing the buffer
/// (Bloom filters are still sized, but their bits are not serialized).
std::size_t encoded_size(const core::GraphDelta& delta,
                         PlistEncoding encoding);

/// One Bloom-compressed Permission-List entry as reconstructed by decode().
struct BloomEntry {
  core::NodeId next_hop;
  std::uint32_t dest_count;  ///< sender-claimed destination cardinality
  util::BloomFilter filter;
};

/// decode() result.  With the explicit encoding `delta` is structurally
/// identical to what was encoded.  With the Bloom encoding the upserts carry
/// empty Permission Lists and `bloom_plists[i]` holds upsert i's entries
/// (bit-identical filters; destination ids are not recoverable).
struct Decoded {
  core::GraphDelta delta;
  PlistEncoding encoding = PlistEncoding::kExplicit;
  std::vector<std::vector<BloomEntry>> bloom_plists;
  std::size_t bytes_consumed = 0;
};

Decoded decode(const std::uint8_t* data, std::size_t size);

inline Decoded decode(const std::vector<std::uint8_t>& buf) {
  return decode(buf.data(), buf.size());
}

}  // namespace centaur::wire
