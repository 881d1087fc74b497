#include "compress/parallel_codec.hpp"

#include <cstring>
#include <vector>

#include "common/error.hpp"

namespace lossyfft {

namespace {

// Directory prefix-sum scratch for the variable-codec decode path; per
// thread so pool workers and rank threads never share, grown on warm-up so
// steady-state decodes stay allocation-free.
thread_local std::vector<std::size_t> t_shard_off;

}  // namespace

ParallelCodec::ParallelCodec(CodecPtr inner, WorkerPool* pool, int shards,
                             std::size_t min_shard_bytes)
    : inner_(std::move(inner)),
      pool_(pool ? pool : &WorkerPool::global()),
      shards_(shards),
      min_shard_bytes_(min_shard_bytes) {
  LFFT_REQUIRE(inner_ != nullptr, "ParallelCodec: inner codec is null");
  LFFT_REQUIRE(shards_ >= 0, "ParallelCodec: shard count must be >= 0");
}

int ParallelCodec::fan_out(std::size_t n) const {
  if (inner_->parallel_granularity() == 0 || pool_->workers() == 0) {
    return 1;
  }
  // Resolve 0 against *this* pool (it may not be the global one), then
  // clamp so every shard codes >= min_shard_bytes_ of raw payload.
  const int requested = shards_ == 0 ? pool_->concurrency() : shards_;
  return WorkerPool::effective_shards(requested, n * sizeof(double),
                                      min_shard_bytes_);
}

std::size_t ParallelCodec::compress(std::span<const double> in,
                                    std::span<std::byte> out) const {
  const int eff = fan_out(in.size());
  if (eff <= 1) return inner_->compress(in, out);
  if (inner_->fixed_size()) {
    const std::size_t total = inner_->max_compressed_bytes(in.size());
    LFFT_REQUIRE(out.size() >= total, "parallel codec: output too small");
    pool_->parallel_for(
        in.size(), inner_->parallel_granularity(),
        [&](std::size_t begin, std::size_t end) {
          // Shard offsets come straight from the size formula: `begin` is a
          // granularity multiple, so its encoded prefix is byte-exact.
          const std::size_t off = inner_->max_compressed_bytes(begin);
          const std::size_t len = inner_->max_compressed_bytes(end) - off;
          inner_->compress(in.subspan(begin, end - begin),
                           out.subspan(off, len));
        },
        eff);
    return total;
  }
  // Variable-rate shard frame (see codec.hpp): workers encode each frame
  // shard at its *capacity* offset and fill its directory word; a serial
  // compaction pass then slides payloads down to the packed positions the
  // serial encoder writes. dest <= src for every shard (actual sizes never
  // exceed the bound), so in-place memmove in ascending order is safe and
  // the resulting bytes match the serial stream exactly.
  LFFT_REQUIRE(out.size() >= inner_->max_compressed_bytes(in.size()),
               "parallel codec: output too small");
  const std::size_t g = inner_->parallel_granularity();
  const std::size_t ns = (in.size() + g - 1) / g;
  const std::size_t header = 8 + 8 * ns;
  const std::size_t cap_g = inner_->shard_payload_bound(g);
  const std::uint64_t n64 = in.size();
  std::memcpy(out.data(), &n64, 8);
  pool_->parallel_for(
      in.size(), g,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin / g; s * g < end; ++s) {
          const std::size_t m = std::min(g, in.size() - s * g);
          const std::uint64_t bytes = inner_->compress_shard(
              in.subspan(s * g, m),
              out.subspan(header + s * cap_g,
                          inner_->shard_payload_bound(m)));
          std::memcpy(out.data() + 8 + 8 * s, &bytes, 8);
        }
      },
      eff);
  std::size_t pos = header;
  for (std::size_t s = 0; s < ns; ++s) {
    std::uint64_t bytes = 0;
    std::memcpy(&bytes, out.data() + 8 + 8 * s, 8);
    if (pos != header + s * cap_g) {
      std::memmove(out.data() + pos, out.data() + header + s * cap_g, bytes);
    }
    pos += bytes;
  }
  return pos;
}

void ParallelCodec::decompress(std::span<const std::byte> in,
                               std::span<double> out) const {
  const int eff = fan_out(out.size());
  if (eff <= 1) return inner_->decompress(in, out);
  if (inner_->fixed_size()) {
    LFFT_REQUIRE(in.size() >= inner_->max_compressed_bytes(out.size()),
                 "parallel codec: input too small");
    pool_->parallel_for(
        out.size(), inner_->parallel_granularity(),
        [&](std::size_t begin, std::size_t end) {
          const std::size_t off = inner_->max_compressed_bytes(begin);
          const std::size_t len = inner_->max_compressed_bytes(end) - off;
          inner_->decompress(in.subspan(off, len),
                             out.subspan(begin, end - begin));
        },
        eff);
    return;
  }
  // Variable-rate shard frame: one serial directory prefix-sum, then every
  // shard decodes independently from its exact payload window.
  LFFT_REQUIRE(in.size() >= 8, "parallel codec: truncated stream");
  std::uint64_t n = 0;
  std::memcpy(&n, in.data(), 8);
  LFFT_REQUIRE(n == out.size(), "parallel codec: element count mismatch");
  const std::size_t g = inner_->parallel_granularity();
  const std::size_t ns = (out.size() + g - 1) / g;
  LFFT_REQUIRE(in.size() >= 8 + 8 * ns,
               "parallel codec: truncated directory");
  if (t_shard_off.size() < ns + 1) t_shard_off.resize(ns + 1);
  std::vector<std::size_t>& off = t_shard_off;
  off[0] = 8 + 8 * ns;
  for (std::size_t s = 0; s < ns; ++s) {
    std::uint64_t bytes = 0;
    std::memcpy(&bytes, in.data() + 8 + 8 * s, 8);
    // Checked per entry against the room left, so a lying entry cannot
    // wrap the prefix sum back into range.
    LFFT_REQUIRE(bytes <= in.size() - off[s],
                 "parallel codec: truncated payload");
    off[s + 1] = off[s] + bytes;
  }
  pool_->parallel_for(
      out.size(), g,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin / g; s * g < end; ++s) {
          const std::size_t m = std::min(g, out.size() - s * g);
          inner_->decompress_shard(
              in.subspan(off[s], off[s + 1] - off[s]),
              out.subspan(s * g, m));
        }
      },
      eff);
}

}  // namespace lossyfft
