// Serial shard framing shared by the variable-rate codecs (szq, byteplane
// RLE): the `u64 count | u64 dir | compacted payloads` layout documented in
// codec.hpp. Keeping the framing in one place guarantees the serial
// encoders emit exactly the stream ParallelCodec's fan-out produces, so
// wire bytes are a pure function of the data at every worker count.
#pragma once

#include <cstring>
#include <span>

#include "common/error.hpp"
#include "compress/codec.hpp"

namespace lossyfft {

/// Number of frame shards for `n` elements at granularity `g`.
inline std::size_t frame_shards(std::size_t n, std::size_t g) {
  return (n + g - 1) / g;
}

/// Total stream bound: count word + directory + per-shard payload bounds.
inline std::size_t framed_max_bytes(const Codec& c, std::size_t n) {
  const std::size_t g = c.parallel_granularity();
  const std::size_t ns = frame_shards(n, g);
  if (ns == 0) return 8;
  const std::size_t full = ns - 1;
  return 8 + 8 * ns + full * c.shard_payload_bound(g) +
         c.shard_payload_bound(n - full * g);
}

/// Serial framed encode: shards back to back, directory filled as we go.
inline std::size_t framed_compress(const Codec& c, std::span<const double> in,
                                   std::span<std::byte> out) {
  LFFT_REQUIRE(out.size() >= c.max_compressed_bytes(in.size()),
               "shard frame: output too small");
  const std::size_t g = c.parallel_granularity();
  const std::size_t ns = frame_shards(in.size(), g);
  const std::uint64_t n = in.size();
  std::memcpy(out.data(), &n, 8);
  std::size_t pos = 8 + 8 * ns;
  for (std::size_t s = 0; s < ns; ++s) {
    const std::size_t m = std::min(g, in.size() - s * g);
    const std::uint64_t bytes = c.compress_shard(
        in.subspan(s * g, m), out.subspan(pos, c.shard_payload_bound(m)));
    std::memcpy(out.data() + 8 + 8 * s, &bytes, 8);
    pos += bytes;
  }
  return pos;
}

/// Serial framed decode: walk the directory, decode each shard in place.
inline void framed_decompress(const Codec& c, std::span<const std::byte> in,
                              std::span<double> out) {
  LFFT_REQUIRE(in.size() >= 8, "shard frame: truncated stream");
  std::uint64_t n = 0;
  std::memcpy(&n, in.data(), 8);
  LFFT_REQUIRE(n == out.size(), "shard frame: element count mismatch");
  const std::size_t g = c.parallel_granularity();
  const std::size_t ns = frame_shards(out.size(), g);
  LFFT_REQUIRE(in.size() >= 8 + 8 * ns, "shard frame: truncated directory");
  std::size_t pos = 8 + 8 * ns;
  for (std::size_t s = 0; s < ns; ++s) {
    const std::size_t m = std::min(g, out.size() - s * g);
    std::uint64_t bytes = 0;
    std::memcpy(&bytes, in.data() + 8 + 8 * s, 8);
    // pos <= in.size() here; comparing against the room left keeps a lying
    // directory entry near 2^64 from wrapping past the check.
    LFFT_REQUIRE(bytes <= in.size() - pos, "shard frame: truncated payload");
    c.decompress_shard(in.subspan(pos, bytes), out.subspan(s * g, m));
    pos += bytes;
  }
}

}  // namespace lossyfft
