#include "wire/wire_format.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "centaur/pgraph.hpp"
#include "centaur/permission_list.hpp"

namespace centaur::wire {

using core::GraphDelta;
using core::NodeId;
using core::PermissionList;

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(const std::uint8_t** pos, const std::uint8_t* end) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (*pos == end) throw DecodeError("varint: truncated input");
    const std::uint8_t byte = *(*pos)++;
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      if (shift == 63 && (byte & 0x7E) != 0) {
        throw DecodeError("varint: value wider than 64 bits");
      }
      return v;
    }
  }
  throw DecodeError("varint: value wider than 64 bits");
}

Cursor::Cursor(const std::uint8_t* data, std::size_t size)
    : begin_(data), pos_(data), end_(data + size) {}

std::size_t Cursor::remaining() const {
  return static_cast<std::size_t>(end_ - pos_);
}

std::size_t Cursor::consumed() const {
  return static_cast<std::size_t>(pos_ - begin_);
}

std::uint8_t Cursor::u8(const char* what) {
  if (pos_ == end_) {
    throw DecodeError(std::string(what) + ": truncated input");
  }
  return *pos_++;
}

std::uint64_t Cursor::varint() { return get_varint(&pos_, end_); }

std::uint64_t Cursor::le_u64(const char* what) {
  if (remaining() < 8) {
    throw DecodeError(std::string(what) + ": truncated input");
  }
  std::uint64_t word = 0;
  for (int b = 0; b < 8; ++b) {
    word |= static_cast<std::uint64_t>(*pos_++) << (8 * b);
  }
  return word;
}

namespace {

// The encoder runs twice through one code path: once against CountSink (the
// byte_size() query) and once against BufferSink (the actual serialization),
// so the two can never disagree.
struct CountSink {
  std::size_t bytes = 0;
  void byte(std::uint8_t) { ++bytes; }
  void varint(std::uint64_t v) { bytes += varint_size(v); }
  void words(const std::vector<std::uint64_t>& w) { bytes += 8 * w.size(); }
};

struct BufferSink {
  std::vector<std::uint8_t>& out;
  void byte(std::uint8_t b) { out.push_back(b); }
  void varint(std::uint64_t v) { put_varint(out, v); }
  void words(const std::vector<std::uint64_t>& w) {
    for (std::uint64_t word : w) {
      for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
      }
    }
  }
};

// Walks the packed pairs in place: sizing a delta (CountSink) must not
// allocate, and it runs on every CentaurUpdate construction.
template <typename Sink>
void put_plist(Sink& sink, const PermissionList& plist,
               PlistEncoding encoding) {
  sink.varint(plist.entry_count());
  std::uint64_t prev_next = 0;
  plist.for_each_entry([&](NodeId next_hop,
                           const PermissionList::DestRun& dests) {
    sink.varint(static_cast<std::uint64_t>(next_hop) - prev_next);
    prev_next = next_hop;
    sink.varint(dests.size());
    if (encoding == PlistEncoding::kExplicit) {
      std::uint64_t prev_dest = 0;
      for (const NodeId d : dests) {
        sink.varint(static_cast<std::uint64_t>(d) - prev_dest);
        prev_dest = d;
      }
    } else {
      std::vector<NodeId> run;
      run.reserve(dests.size());
      for (const NodeId d : dests) run.push_back(d);
      const util::BloomFilter filter = PermissionList::compress_dests(run);
      sink.varint(filter.words().size());
      sink.varint(filter.hash_count());
      sink.words(filter.words());
    }
  });
}

template <typename Sink>
void put_delta(Sink& sink, const GraphDelta& delta, PlistEncoding encoding) {
  sink.byte(kWireVersion);
  std::uint8_t flags = 0;
  if (delta.reset) flags |= kFlagReset;
  if (encoding == PlistEncoding::kBloom) flags |= kFlagBloom;
  sink.byte(flags);
  sink.varint(delta.upserts.size());
  sink.varint(delta.removes.size());
  sink.varint(delta.dest_adds.size());
  sink.varint(delta.dest_removes.size());

  // Canonical section order: stable sort by packed key / node id.  Protocol
  // deltas (diff_views, PendingDelta::take) are already sorted — the hot
  // encode path must not allocate or sort for them — while hand-built ones
  // get canonicalized here so byte_size stays exact for them too.
  const auto upsert_key = [&](std::size_t i) {
    const core::DirectedLink& link = delta.upserts[i].first;
    return core::pack_link(link.from, link.to);
  };
  bool upserts_sorted = true;
  for (std::size_t i = 1; i < delta.upserts.size(); ++i) {
    if (upsert_key(i) < upsert_key(i - 1)) {
      upserts_sorted = false;
      break;
    }
  }
  std::uint64_t prev = 0;
  if (upserts_sorted) {
    for (const auto& [link, plist] : delta.upserts) {
      const std::uint64_t key = core::pack_link(link.from, link.to);
      sink.varint(key - prev);
      prev = key;
      put_plist(sink, plist, encoding);
    }
  } else {
    std::vector<std::uint32_t> order(delta.upserts.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return upsert_key(a) < upsert_key(b);
                     });
    for (const std::uint32_t i : order) {
      const auto& [link, plist] = delta.upserts[i];
      const std::uint64_t key = core::pack_link(link.from, link.to);
      sink.varint(key - prev);
      prev = key;
      put_plist(sink, plist, encoding);
    }
  }

  const auto remove_key = [&](std::size_t i) {
    return core::pack_link(delta.removes[i].from, delta.removes[i].to);
  };
  bool removes_sorted = true;
  for (std::size_t i = 1; i < delta.removes.size(); ++i) {
    if (remove_key(i) < remove_key(i - 1)) {
      removes_sorted = false;
      break;
    }
  }
  prev = 0;
  if (removes_sorted) {
    for (const core::DirectedLink& link : delta.removes) {
      const std::uint64_t key = core::pack_link(link.from, link.to);
      sink.varint(key - prev);
      prev = key;
    }
  } else {
    std::vector<std::uint64_t> removes;
    removes.reserve(delta.removes.size());
    for (const core::DirectedLink& link : delta.removes) {
      removes.push_back(core::pack_link(link.from, link.to));
    }
    std::sort(removes.begin(), removes.end());
    for (const std::uint64_t key : removes) {
      sink.varint(key - prev);
      prev = key;
    }
  }

  for (const std::vector<NodeId>* dests :
       {&delta.dest_adds, &delta.dest_removes}) {
    prev = 0;
    if (std::is_sorted(dests->begin(), dests->end())) {
      for (const NodeId d : *dests) {
        sink.varint(static_cast<std::uint64_t>(d) - prev);
        prev = d;
      }
    } else {
      std::vector<NodeId> sorted(*dests);
      std::sort(sorted.begin(), sorted.end());
      for (const NodeId d : sorted) {
        sink.varint(static_cast<std::uint64_t>(d) - prev);
        prev = d;
      }
    }
  }
}

NodeId checked_node(std::uint64_t v, const char* what) {
  if (v > 0xFFFFFFFFULL) throw DecodeError(std::string(what) + ": node id overflow");
  return static_cast<NodeId>(v);
}

}  // namespace

std::vector<std::uint8_t> encode(const GraphDelta& delta,
                                 PlistEncoding encoding) {
  std::vector<std::uint8_t> out;
  out.reserve(encoded_size(delta, encoding));
  BufferSink sink{out};
  put_delta(sink, delta, encoding);
  return out;
}

std::size_t encoded_size(const GraphDelta& delta, PlistEncoding encoding) {
  CountSink sink;
  put_delta(sink, delta, encoding);
  return sink.bytes;
}

Decoded decode(const std::uint8_t* data, std::size_t size) {
  Cursor cur(data, size);
  const std::uint8_t version = cur.u8("header");
  if (version != kWireVersion) {
    throw DecodeError("header: unknown version " + std::to_string(version));
  }
  const std::uint8_t flags = cur.u8("header");
  if ((flags & ~(kFlagReset | kFlagBloom)) != 0) {
    throw DecodeError("header: unknown flag bits");
  }

  Decoded out;
  out.delta.reset = (flags & kFlagReset) != 0;
  out.encoding = (flags & kFlagBloom) != 0 ? PlistEncoding::kBloom
                                           : PlistEncoding::kExplicit;
  const std::uint64_t n_upserts = cur.varint();
  const std::uint64_t n_removes = cur.varint();
  const std::uint64_t n_dest_adds = cur.varint();
  const std::uint64_t n_dest_removes = cur.varint();
  // Every upsert/remove/dest costs at least one byte; reject counts the
  // buffer cannot possibly hold before sizing anything from them.
  for (const std::uint64_t n :
       {n_upserts, n_removes, n_dest_adds, n_dest_removes}) {
    if (n > cur.remaining()) {
      throw DecodeError("header: section counts exceed input size");
    }
  }

  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n_upserts; ++i) {
    const std::uint64_t key = prev + cur.varint();
    prev = key;
    PermissionList plist;
    std::vector<BloomEntry> bloom_entries;
    const std::uint64_t n_entries = cur.varint();
    std::uint64_t prev_next = 0;
    for (std::uint64_t j = 0; j < n_entries; ++j) {
      const NodeId next_hop =
          checked_node(prev_next + cur.varint(), "plist next hop");
      prev_next = next_hop;
      const std::uint64_t n_dests = cur.varint();
      if (n_dests > 0xFFFFFFFFULL) {
        throw DecodeError("plist entry: destination count overflow");
      }
      if (out.encoding == PlistEncoding::kExplicit) {
        std::uint64_t prev_dest = 0;
        for (std::uint64_t k = 0; k < n_dests; ++k) {
          const NodeId dest =
              checked_node(prev_dest + cur.varint(), "plist dest");
          prev_dest = dest;
          plist.add(dest, next_hop);
        }
      } else {
        const std::uint64_t n_words = cur.varint();
        const std::uint64_t n_hashes = cur.varint();
        if (n_words > cur.remaining() / 8) {
          throw DecodeError("bloom filter: truncated bit array");
        }
        std::vector<std::uint64_t> words(n_words, 0);
        for (std::uint64_t& word : words) {
          word = cur.le_u64("bloom filter");
        }
        bloom_entries.push_back(
            BloomEntry{next_hop, static_cast<std::uint32_t>(n_dests),
                       util::BloomFilter::from_words(
                           std::move(words), n_hashes,
                           static_cast<std::size_t>(n_dests))});
      }
    }
    out.delta.upserts.emplace_back(core::unpack_link(key), std::move(plist));
    if (out.encoding == PlistEncoding::kBloom) {
      out.bloom_plists.push_back(std::move(bloom_entries));
    }
  }

  prev = 0;
  for (std::uint64_t i = 0; i < n_removes; ++i) {
    const std::uint64_t key = prev + cur.varint();
    prev = key;
    out.delta.removes.push_back(core::unpack_link(key));
  }
  for (std::vector<NodeId>* dests :
       {&out.delta.dest_adds, &out.delta.dest_removes}) {
    const std::uint64_t n =
        dests == &out.delta.dest_adds ? n_dest_adds : n_dest_removes;
    prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const NodeId d = checked_node(prev + cur.varint(), "dest mark");
      prev = d;
      dests->push_back(d);
    }
  }
  out.bytes_consumed = cur.consumed();
  return out;
}

}  // namespace centaur::wire

namespace centaur::core {

// Defined here (not announce.cpp) so the delta's size query and the codec
// share one implementation; wire_format.cpp is part of the centaur_core
// target.
std::size_t GraphDelta::byte_size(bool bloom_compressed) const {
  return wire::encoded_size(*this, bloom_compressed
                                       ? wire::PlistEncoding::kBloom
                                       : wire::PlistEncoding::kExplicit);
}

}  // namespace centaur::core
