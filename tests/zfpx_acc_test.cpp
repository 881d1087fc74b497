// zfpx accuracy-mode stream codec: byte identity with the per-block
// reference coder, a seeded mutation fuzz of the stream decoder, and
// regressions for the header edge cases (subnormal blocks, out-of-range
// exponents).
//
// Inputs are drawn from common/rng seeded by LOSSYFFT_FUZZ_SEED (decimal;
// default fixed so tier-1 is reproducible). The suite carries the `fuzz`
// label, so tools/fuzz_soak.sh reruns it on fresh seeds under every
// LOSSYFFT_SIMD level.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "compress/bitio.hpp"
#include "compress/parallel_codec.hpp"
#include "compress/zfpx.hpp"

namespace lossyfft {
namespace {

std::uint64_t fuzz_seed() {
  if (const char* s = std::getenv("LOSSYFFT_FUZZ_SEED")) {
    if (const auto v = std::strtoull(s, nullptr, 10); v != 0) return v;
  }
  return 20261017;  // Fixed tier-1 seed.
}

// ------------------------------------------------- per-block reference
// The accuracy-mode shard coder as first written: libm for the exponent,
// scale and rounding, and the scalar zfpx_detail kernels block by block.
// The production coder must emit exactly these bytes and decode them to
// exactly these doubles.

constexpr int kQ = 55;
constexpr int kZeroBlockExp = -16384;

std::size_t ref_compress_shard(double tol, std::span<const double> in,
                               std::span<std::byte> out) {
  BitWriter bw(out);
  const std::size_t n = in.size();
  for (std::size_t b = 0; b < (n + 3) / 4; ++b) {
    double v[4];
    double maxabs = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      v[i] = in[std::min(n - 1, 4 * b + i)];
      maxabs = std::max(maxabs, std::fabs(v[i]));
    }
    int e = kZeroBlockExp;
    if (maxabs != 0.0) std::frexp(maxabs, &e);
    bw.put(static_cast<std::uint16_t>(static_cast<std::int16_t>(e)), 16);
    const int k_min = zfpx_detail::accuracy_k_min(tol, e);
    if (k_min > 61) continue;
    const double scale = std::ldexp(1.0, kQ - e);
    std::int64_t q[4];
    for (int i = 0; i < 4; ++i) q[i] = std::llround(v[i] * scale);
    std::uint64_t u[4];
    zfpx_detail::fwd_transform(q, 4, nullptr, u);
    zfpx_detail::encode_planes(u, 4, 1 << 30, bw, k_min);
  }
  return bw.byte_count();
}

void ref_decompress_shard(double tol, std::span<const std::byte> in,
                          std::span<double> out) {
  BitReader br(in);
  const std::size_t n = out.size();
  for (std::size_t b = 0; b < (n + 3) / 4; ++b) {
    const int e = static_cast<std::int16_t>(br.get(16));
    double v[4] = {0, 0, 0, 0};
    const int k_min = zfpx_detail::accuracy_k_min(tol, e);
    if (k_min <= 61) {
      std::uint64_t u[4];
      zfpx_detail::decode_planes(u, 4, 1 << 30, br, k_min);
      std::int64_t q[4];
      zfpx_detail::inv_transform(u, 4, nullptr, q);
      const double scale = std::ldexp(1.0, e - kQ);
      for (int i = 0; i < 4; ++i) v[i] = static_cast<double>(q[i]) * scale;
    }
    for (std::size_t i = 0; i < 4 && 4 * b + i < n; ++i) out[4 * b + i] = v[i];
  }
}

// Reference frame: count word, directory, shards back to back.
std::vector<std::byte> ref_compress(double tol, std::span<const double> in) {
  const std::size_t g = ZfpxAccuracyCodec::kShardElems;
  const std::size_t ns = (in.size() + g - 1) / g;
  std::vector<std::byte> out(8 + 8 * ns);
  const std::uint64_t n = in.size();
  std::memcpy(out.data(), &n, 8);
  for (std::size_t s = 0; s < ns; ++s) {
    const std::size_t m = std::min(g, in.size() - s * g);
    std::vector<std::byte> shard(((m + 3) / 4) * 106);
    const std::uint64_t bytes =
        ref_compress_shard(tol, in.subspan(s * g, m), shard);
    std::memcpy(out.data() + 8 + 8 * s, &bytes, 8);
    out.insert(out.end(), shard.begin(), shard.begin() + bytes);
  }
  return out;
}

void ref_decompress(double tol, std::span<const std::byte> in,
                    std::span<double> out) {
  const std::size_t g = ZfpxAccuracyCodec::kShardElems;
  const std::size_t ns = (out.size() + g - 1) / g;
  std::size_t pos = 8 + 8 * ns;
  for (std::size_t s = 0; s < ns; ++s) {
    std::uint64_t bytes = 0;
    std::memcpy(&bytes, in.data() + 8 + 8 * s, 8);
    const std::size_t m = std::min(g, out.size() - s * g);
    ref_decompress_shard(tol, in.subspan(pos, bytes), out.subspan(s * g, m));
    pos += bytes;
  }
}

// ------------------------------------------------------------- corpus

struct Case {
  std::string label;
  std::vector<double> data;
};

// Log-uniform magnitudes over [1e-310, 1e300] with random signs: every
// block has its own exponent, from subnormal to near the top of range.
std::vector<double> wide_magnitudes(Xoshiro256& rng, std::size_t n) {
  std::vector<double> v(n);
  const double lo = std::log(1e-310), hi = std::log(1e300);
  for (double& x : v) {
    x = std::exp(lo + (hi - lo) * rng.uniform());
    if (rng() & 1) x = -x;
  }
  return v;
}

// Blocks whose quantized values land exactly on llround ties k + 0.5
// (small and large k, both signs), next to values with |x| >= 2^52,
// where the quantized value is already an integer.
std::vector<double> rounding_ties(Xoshiro256& rng, std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t b = 0; b + 4 <= n; b += 4) {
    const int e = static_cast<int>(rng.below(40)) - 20;
    v[b] = std::ldexp(1.5, e - 1);  // Block exponent e: |x| = 1.5 * 2^54.
    for (std::size_t i = 1; i < 4; ++i) {
      // (k + 0.5) * 2^(e-55) quantizes to the tie k + 0.5.
      const std::uint64_t k = rng() >> (rng.below(2) ? 60 : 13);
      double x = std::ldexp(static_cast<double>(2 * k + 1), e - kQ - 1);
      if (rng.below(3) == 0) x = std::ldexp(std::ldexp(1.0, 53) +
                                   static_cast<double>(rng() >> 12), e - kQ);
      v[b + i] = rng() & 1 ? -x : x;
    }
  }
  for (std::size_t i = n - n % 4; i < n; ++i) v[i] = 0.25;
  return v;
}

std::vector<Case> corpus(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Case> cases;
  const std::size_t g = ZfpxAccuracyCodec::kShardElems;
  {
    std::vector<double> v(1001);
    fill_uniform(rng, v, -1.0, 1.0);
    cases.push_back({"uniform", std::move(v)});  // n % 4 == 1.
  }
  cases.push_back({"wide-magnitude", wide_magnitudes(rng, 4098)});  // % 4 == 2
  cases.push_back({"rounding-ties", rounding_ties(rng, 2051)});     // % 4 == 3
  {
    // Signed zeros, whole zero blocks and blocks with one live value.
    std::vector<double> v(515, 0.0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i % 3 == 0) v[i] = -0.0;
      if (i % 17 == 0) v[i] = rng.uniform() - 0.5;
    }
    cases.push_back({"signed-zeros", std::move(v)});
  }
  {
    // Smooth spectrum-like data: a few large low-sequency values and a
    // fast-decaying tail, the sparse-block regime of the spectral stages.
    std::vector<double> v(g + 1);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = std::exp(-static_cast<double>(i % 64) / 3.0) *
             (rng.uniform() - 0.5) * 1e5;
    }
    cases.push_back({"decaying", std::move(v)});  // kShardElems + 1.
  }
  {
    std::vector<double> v(g - 1);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 3.0 + std::sin(0.01 * static_cast<double>(i)) +
             1e-7 * (rng.uniform() - 0.5);
    }
    cases.push_back({"smooth", std::move(v)});  // kShardElems - 1.
  }
  {
    // Subnormal blocks, alone and mixed with normal ones.
    std::vector<double> v(203);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = std::ldexp(rng.uniform() - 0.5, -1060 + static_cast<int>(i % 3));
      if (i % 8 == 5) v[i] = 1e-300;
    }
    cases.push_back({"subnormal", std::move(v)});
  }
  return cases;
}

const double kTols[] = {1e-1, 1e-3, 1e-6, 1e-9, 1e-13};

TEST(ZfpxAccIdentity, ShardStreamsMatchPerBlockReference) {
  const std::uint64_t seed = fuzz_seed();
  for (const double tol : kTols) {
    const ZfpxAccuracyCodec codec(tol);
    for (const Case& c : corpus(seed)) {
      const std::span<const double> in(c.data);
      const std::vector<std::byte> want = ref_compress(tol, in);

      std::vector<std::byte> got(codec.max_compressed_bytes(in.size()),
                                 std::byte{0xA5});
      const std::size_t used = codec.compress(in, got);
      ASSERT_EQ(used, want.size()) << c.label << " tol=" << tol
                                   << " seed=" << seed;
      ASSERT_EQ(std::memcmp(got.data(), want.data(), used), 0)
          << c.label << " tol=" << tol << " seed=" << seed;

      std::vector<double> ref_out(in.size(), -1.0), out(in.size(), -2.0);
      ref_decompress(tol, want, ref_out);
      codec.decompress(want, out);
      ASSERT_EQ(std::memcmp(out.data(), ref_out.data(),
                            in.size() * sizeof(double)),
                0)
          << c.label << " tol=" << tol << " seed=" << seed;
    }
  }
}

TEST(ZfpxAccIdentity, ShardEncoderRoundsLikeLlround) {
  // Quantization ties through the public codec: at a tolerance fine
  // enough to keep every plane, a tie rounded the wrong way shows up as
  // a one-quantum difference in the decoded value.
  Xoshiro256 rng(fuzz_seed() + 1);
  const auto in = rounding_ties(rng, 4096);
  const ZfpxAccuracyCodec codec(1e-300);
  std::vector<std::byte> wire(codec.max_compressed_bytes(in.size()));
  const std::size_t used = codec.compress(in, wire);
  const std::vector<std::byte> want = ref_compress(1e-300, in);
  ASSERT_EQ(used, want.size());
  EXPECT_EQ(std::memcmp(wire.data(), want.data(), used), 0);
}

// ------------------------------------------------------ edge headers

TEST(ZfpxAccEdges, KMinIsDefinedForEveryHeader) {
  // max |v| < 2^-1020 makes the quantum 2^(e-55) underflow to 0; the
  // block is skipped (62) rather than pushing log2(inf) through an int.
  for (const double tol : kTols) {
    for (int e = -1080; e <= -1020; ++e) {
      EXPECT_EQ(zfpx_detail::accuracy_k_min(tol, e), 62) << e << " " << tol;
    }
    EXPECT_EQ(zfpx_detail::accuracy_k_min(tol, INT16_MIN), 62);
    EXPECT_EQ(zfpx_detail::accuracy_k_min(tol, -16384), 62);
    EXPECT_EQ(zfpx_detail::accuracy_k_min(tol, INT16_MAX), 0);
  }
}

TEST(ZfpxAccEdges, SubnormalBlockRoundTrips) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> in = {tiny, -3 * tiny, 1e-310, -2e-309,
                                  5 * tiny};
  for (const double tol : kTols) {
    const ZfpxAccuracyCodec codec(tol);
    std::vector<std::byte> wire(codec.max_compressed_bytes(in.size()));
    const std::size_t used = codec.compress(in, wire);
    EXPECT_EQ(used, 8 + 8 + 2 * 2u);  // Count, directory, two headers.
    std::vector<double> out(in.size(), 1.0);
    codec.decompress(std::span<const std::byte>(wire.data(), used), out);
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(out[i], 0.0);
      EXPECT_LE(std::fabs(out[i] - in[i]), tol);
    }
  }
}

TEST(ZfpxAccEdges, TinyBlocksMeetATinyTolerance) {
  // Below 2^-968 the quantizer scale 2^(55-e) is not a double; such
  // blocks are coded only when the tolerance is smaller still, and must
  // then meet it like any other block.
  Xoshiro256 rng(fuzz_seed() + 2);
  std::vector<double> in(1024);
  for (double& x : in) {
    x = std::ldexp(rng.uniform() - 0.5, -980 - static_cast<int>(rng.below(60)));
  }
  const double tol = 1e-300;
  const ZfpxAccuracyCodec codec(tol);
  std::vector<std::byte> wire(codec.max_compressed_bytes(in.size()));
  const std::size_t used = codec.compress(in, wire);
  EXPECT_GT(used, 16 + 2 * in.size() / 4);  // Blocks carry planes.
  std::vector<double> out(in.size());
  codec.decompress(std::span<const std::byte>(wire.data(), used), out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_LE(std::fabs(out[i] - in[i]), tol) << i;
  }
}

// One-shard stream of one 4-block whose header is `e`, followed by
// `payload` bytes of `fill`.
std::vector<std::byte> hostile_stream(std::int16_t e, std::byte fill,
                                      std::size_t payload = 106) {
  std::vector<std::byte> s(16 + 2 + payload, fill);
  const std::uint64_t n = 4;
  const std::uint64_t bytes = s.size() - 16;
  std::memcpy(s.data(), &n, 8);
  std::memcpy(s.data() + 8, &bytes, 8);
  std::memcpy(s.data() + 16, &e, 2);
  return s;
}

TEST(ZfpxAccEdges, OutOfRangeHeadersDecodeFiniteOrThrow) {
  const ZfpxAccuracyCodec codec(1e-6);
  for (const std::int16_t e :
       {std::int16_t{INT16_MIN}, std::int16_t{-2000}, std::int16_t{-1075},
        std::int16_t{1017}, std::int16_t{1100}, std::int16_t{INT16_MAX}}) {
    for (const std::byte fill : {std::byte{0x00}, std::byte{0xFF},
                                 std::byte{0x5A}}) {
      const auto s = hostile_stream(e, fill);
      std::vector<double> out(4);
      try {
        codec.decompress(s, out);
        for (const double v : out) EXPECT_TRUE(std::isfinite(v)) << e;
      } catch (const Error&) {
        // A corrupt stream may be rejected instead.
      }
    }
  }
  // Below the subnormal range the header alone is the whole block.
  const auto s = hostile_stream(-2000, std::byte{0xFF}, 0);
  std::vector<double> out(4, 1.0);
  codec.decompress(s, out);
  for (const double v : out) EXPECT_EQ(v, 0.0);
}

// ------------------------------------------------------ mutation fuzz
// The stream decoder parses foreign bytes. Whatever the mutation, it must
// either throw lossyfft::Error or return finite values, and it must never
// read past its input: the mutated stream is decoded twice, followed in
// memory by different canary bytes, and both decodes must agree bit for
// bit (run under -fsanitize=address to also catch reads that do not
// change the result).

enum class Mutation { kBitFlip, kTruncate, kCount, kDirectory };

struct Outcome {
  bool threw = false;
  std::vector<double> out;
};

Outcome decode_with_canary(const Codec& codec,
                           const std::vector<std::byte>& stream,
                           std::size_t n, std::byte canary) {
  std::vector<std::byte> buf(stream);
  buf.resize(stream.size() + 64, canary);
  Outcome o;
  o.out.assign(n, -7.0);
  try {
    codec.decompress(std::span<const std::byte>(buf.data(), stream.size()),
                     o.out);
  } catch (const Error&) {
    o.threw = true;
  }
  return o;
}

TEST(ZfpxAccFuzz, MutatedStreamsThrowOrDecodeFinite) {
  const std::uint64_t seed = fuzz_seed();
  Xoshiro256 rng(seed ^ 0x5EEDF00Dull);
  WorkerPool pool(2);
  const std::size_t g = ZfpxAccuracyCodec::kShardElems;
  int threw = 0, decoded = 0;
  for (const double tol : {1e-3, 1e-9}) {
    const auto codec = std::make_shared<ZfpxAccuracyCodec>(tol);
    const ParallelCodec sharded(codec, &pool, /*shards=*/3,
                                /*min_shard_bytes=*/1);
    for (const Case& c : corpus(seed)) {
      std::vector<double> data = c.data;
      if (c.label == "smooth") data.resize(2 * g + 37, 1.25);  // 3 shards.
      const std::size_t n = data.size();
      std::vector<std::byte> wire(codec->max_compressed_bytes(n));
      wire.resize(codec->compress(data, wire));
      const std::size_t ns = (n + g - 1) / g;

      for (int trial = 0; trial < 40; ++trial) {
        std::vector<std::byte> m = wire;
        std::size_t out_n = n;
        switch (static_cast<Mutation>(rng.below(4))) {
          case Mutation::kBitFlip:
            for (int f = 0, nf = 1 + static_cast<int>(rng.below(8)); f < nf;
                 ++f) {
              const std::size_t bit = rng.below(m.size() * 8);
              m[bit / 8] ^= std::byte(1u << (bit % 8));
            }
            break;
          case Mutation::kTruncate:
            m.resize(rng.below(m.size()));
            break;
          case Mutation::kCount: {
            // A lying element count, decoded into a buffer of the size
            // it claims (or the true size when the claim is absurd).
            const std::uint64_t lie =
                rng.below(2) ? rng.below(3 * n + 8) : rng();
            std::memcpy(m.data(), &lie, 8);
            out_n = lie <= 4 * n ? static_cast<std::size_t>(lie) : n;
            break;
          }
          default: {
            // A lying directory entry: small, large, or near 2^64.
            const std::size_t s = rng.below(ns);
            const std::uint64_t choices[] = {0, rng.below(64),
                                             rng.below(m.size() * 2),
                                             ~std::uint64_t{0} - rng.below(64)};
            const std::uint64_t lie = choices[rng.below(4)];
            std::memcpy(m.data() + 8 + 8 * s, &lie, 8);
            break;
          }
        }
        for (const Codec* dec :
             {static_cast<const Codec*>(codec.get()),
              static_cast<const Codec*>(&sharded)}) {
          const Outcome a = decode_with_canary(*dec, m, out_n, std::byte{0});
          const Outcome b =
              decode_with_canary(*dec, m, out_n, std::byte{0xFF});
          ASSERT_EQ(a.threw, b.threw) << c.label << " trial=" << trial
                                      << " seed=" << seed;
          if (a.threw) {
            ++threw;
            continue;
          }
          ++decoded;
          // A lying count can leave nothing to decode (and data() null).
          ASSERT_TRUE(out_n == 0 || std::memcmp(a.out.data(), b.out.data(),
                                                out_n * sizeof(double)) == 0)
              << c.label << " trial=" << trial << " seed=" << seed;
          for (const double v : a.out) {
            ASSERT_TRUE(std::isfinite(v)) << c.label << " trial=" << trial
                                          << " seed=" << seed;
          }
        }
      }
    }
  }
  // Both outcomes must actually occur, or the mutations are too tame (or
  // too destructive) to exercise the parser.
  EXPECT_GT(threw, 0);
  EXPECT_GT(decoded, 0);
}

TEST(ZfpxAccFuzz, DirectoryEntryNearWrapIsRejected) {
  // A shard length just below 2^64 wraps `pos + bytes` back into range;
  // both frame parsers must compare it against the room left instead.
  WorkerPool pool(2);
  const auto codec = std::make_shared<ZfpxAccuracyCodec>(1e-6);
  const ParallelCodec sharded(codec, &pool, /*shards=*/3,
                              /*min_shard_bytes=*/1);
  const std::size_t n = 2 * ZfpxAccuracyCodec::kShardElems + 37;
  std::vector<double> in(n);
  Xoshiro256 rng(fuzz_seed());
  fill_uniform(rng, in, -1.0, 1.0);
  std::vector<std::byte> wire(codec->max_compressed_bytes(n));
  wire.resize(codec->compress(in, wire));
  std::vector<double> out(n);
  for (std::size_t s = 0; s < 3; ++s) {
    for (const std::uint64_t back : {1u, 8u, 100u}) {
      std::vector<std::byte> m = wire;
      const std::uint64_t lie = ~std::uint64_t{0} - back + 1;  // 2^64 - back
      std::memcpy(m.data() + 8 + 8 * s, &lie, 8);
      EXPECT_THROW(codec->decompress(m, out), Error) << s << " " << back;
      EXPECT_THROW(sharded.decompress(m, out), Error) << s << " " << back;
    }
  }
}

}  // namespace
}  // namespace lossyfft
