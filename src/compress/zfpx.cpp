#include "compress/zfpx.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "compress/bitio.hpp"
#include "compress/shard_frame.hpp"
#include "compress/simd.hpp"

namespace lossyfft {
namespace zfpx_detail {

// Reversible two-level Haar S-transform on 4 values. Floor shifts on
// negative operands are arithmetic (guaranteed in C++20), so the pair
// (fwd, inv) is exact for all int64 inputs that do not overflow; the
// magnitude growth is at most 4x per application.
void fwd_lift4(std::int64_t* p, std::size_t stride) {
  std::int64_t a = p[0], b = p[stride], c = p[2 * stride], d = p[3 * stride];
  const std::int64_t h0 = a - b, l0 = b + (h0 >> 1);
  const std::int64_t h1 = c - d, l1 = d + (h1 >> 1);
  const std::int64_t hh = l0 - l1, ll = l1 + (hh >> 1);
  p[0] = ll;
  p[stride] = hh;
  p[2 * stride] = h0;
  p[3 * stride] = h1;
}

// The inverse runs on decoded (possibly hostile) planes, so its adds wrap
// instead of overflowing; >> stays arithmetic on the signed view. Blocks
// an encoder produced never wrap, so this is the exact inverse there.
void inv_lift4(std::int64_t* p, std::size_t stride) {
  const auto sra1 = [](std::uint64_t x) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(x) >> 1);
  };
  const auto ll = static_cast<std::uint64_t>(p[0]);
  const auto hh = static_cast<std::uint64_t>(p[stride]);
  const auto h0 = static_cast<std::uint64_t>(p[2 * stride]);
  const auto h1 = static_cast<std::uint64_t>(p[3 * stride]);
  const std::uint64_t l1 = ll - sra1(hh), l0 = l1 + hh;
  const std::uint64_t b = l0 - sra1(h0), a = b + h0;
  const std::uint64_t d = l1 - sra1(h1), c = d + h1;
  p[0] = static_cast<std::int64_t>(a);
  p[stride] = static_cast<std::int64_t>(b);
  p[2 * stride] = static_cast<std::int64_t>(c);
  p[3 * stride] = static_cast<std::int64_t>(d);
}

std::uint64_t int_to_negabinary(std::int64_t x) {
  constexpr std::uint64_t kMask = 0xAAAAAAAAAAAAAAAAull;
  return (static_cast<std::uint64_t>(x) + kMask) ^ kMask;
}

std::int64_t negabinary_to_int(std::uint64_t u) {
  constexpr std::uint64_t kMask = 0xAAAAAAAAAAAAAAAAull;
  return static_cast<std::int64_t>((u ^ kMask) - kMask);
}

// Quantized magnitudes are bounded by 2^55; after at most 6 lifting levels
// of <= 2x growth plus the negabinary mapping, no bit above this plane can
// be set.
constexpr int kTopPlane = 61;

// Encode the bit planes of `u[0..size)` (negabinary, sequency-ordered)
// most-significant first until `budget` bits are spent. `n_sig` tracks the
// prefix of coefficients already seen significant; planes are encoded as a
// verbatim prefix of n_sig bits followed by group-tested runs.
void encode_planes(const std::uint64_t* u, int size, int budget,
                   BitWriter& bw, int k_min) {
  int n_sig = 0;
  for (int k = kTopPlane; k >= k_min && budget > 0; --k) {
    const int m = std::min(n_sig, budget);
    for (int i = 0; i < m; ++i) {
      bw.put_bit((u[i] >> k) & 1u);
      --budget;
    }
    if (budget == 0) break;
    int i = n_sig;
    while (i < size && budget > 0) {
      bool any = false;
      for (int j = i; j < size; ++j) any |= ((u[j] >> k) & 1u) != 0;
      bw.put_bit(any);
      --budget;
      if (!any || budget == 0) break;
      while (i < size && budget > 0) {
        const bool b = ((u[i] >> k) & 1u) != 0;
        bw.put_bit(b);
        --budget;
        ++i;
        if (b) {
          n_sig = i;
          break;
        }
      }
    }
  }
}

void decode_planes(std::uint64_t* u, int size, int budget, BitReader& br,
                   int k_min) {
  std::fill(u, u + size, 0ull);
  int n_sig = 0;
  for (int k = kTopPlane; k >= k_min && budget > 0; --k) {
    const int m = std::min(n_sig, budget);
    for (int i = 0; i < m; ++i) {
      if (br.get_bit()) u[i] |= 1ull << k;
      --budget;
    }
    if (budget == 0) break;
    int i = n_sig;
    while (i < size && budget > 0) {
      const bool any = br.get_bit();
      --budget;
      if (!any || budget == 0) break;
      while (i < size && budget > 0) {
        const bool b = br.get_bit();
        --budget;
        if (b) u[i] |= 1ull << k;
        ++i;
        if (b) {
          n_sig = i;
          break;
        }
      }
    }
  }
}

// Scalar block transform, factored out of encode_block/decode_block so it
// dispatches alongside the plane coder: lifting along each dimension,
// sequency permute, negabinary map.
void fwd_transform(std::int64_t* q, int n, const int* perm,
                   std::uint64_t* u) {
  if (n == 4) {
    fwd_lift4(q, 1);
    for (int i = 0; i < 4; ++i) u[i] = int_to_negabinary(q[i]);
  } else if (n == 16) {
    for (int j = 0; j < 4; ++j) fwd_lift4(q + 4 * j, 1);
    for (int i = 0; i < 4; ++i) fwd_lift4(q + i, 4);
    for (int i = 0; i < 16; ++i) u[i] = int_to_negabinary(q[perm[i]]);
  } else {
    LFFT_ASSERT(n == 64);
    for (int k = 0; k < 4; ++k)
      for (int j = 0; j < 4; ++j) fwd_lift4(q + 4 * j + 16 * k, 1);
    for (int k = 0; k < 4; ++k)
      for (int i = 0; i < 4; ++i) fwd_lift4(q + i + 16 * k, 4);
    for (int j = 0; j < 4; ++j)
      for (int i = 0; i < 4; ++i) fwd_lift4(q + i + 4 * j, 16);
    for (int i = 0; i < 64; ++i) u[i] = int_to_negabinary(q[perm[i]]);
  }
}

void inv_transform(const std::uint64_t* u, int n, const int* perm,
                   std::int64_t* q) {
  if (n == 4) {
    for (int i = 0; i < 4; ++i) q[i] = negabinary_to_int(u[i]);
    inv_lift4(q, 1);
  } else if (n == 16) {
    for (int i = 0; i < 16; ++i) q[perm[i]] = negabinary_to_int(u[i]);
    for (int i = 0; i < 4; ++i) inv_lift4(q + i, 4);
    for (int j = 0; j < 4; ++j) inv_lift4(q + 4 * j, 1);
  } else {
    LFFT_ASSERT(n == 64);
    for (int i = 0; i < 64; ++i) q[perm[i]] = negabinary_to_int(u[i]);
    for (int j = 0; j < 4; ++j)
      for (int i = 0; i < 4; ++i) inv_lift4(q + i + 4 * j, 16);
    for (int k = 0; k < 4; ++k)
      for (int i = 0; i < 4; ++i) inv_lift4(q + i + 16 * k, 4);
    for (int k = 0; k < 4; ++k)
      for (int j = 0; j < 4; ++j) inv_lift4(q + 4 * j + 16 * k, 1);
  }
}

void encode_block_ints(const std::int64_t* q, int size, int budget_bits,
                       std::span<std::byte> out) {
  std::vector<std::uint64_t> u(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) u[static_cast<std::size_t>(i)] =
      int_to_negabinary(q[i]);
  std::fill(out.begin(), out.end(), std::byte{0});
  BitWriter bw(out);
  encode_planes(u.data(), size, budget_bits, bw);
}

void decode_block_ints(std::span<const std::byte> in, int size,
                       int budget_bits, std::int64_t* q) {
  std::vector<std::uint64_t> u(static_cast<std::size_t>(size));
  BitReader br(in);
  decode_planes(u.data(), size, budget_bits, br);
  for (int i = 0; i < size; ++i) q[i] =
      negabinary_to_int(u[static_cast<std::size_t>(i)]);
}

}  // namespace zfpx_detail

namespace {

using zfpx_detail::fwd_lift4;
using zfpx_detail::int_to_negabinary;
using zfpx_detail::inv_lift4;
using zfpx_detail::negabinary_to_int;

constexpr int kQ = 55;
// Exponent marker for an all-zero block (dequantizes from q == 0 anyway).
constexpr int kZeroBlockExp = -16384;

// Block exponent of the max magnitude: smallest e with maxabs < 2^e.
int block_exponent(const double* v, int n) {
  double maxabs = 0.0;
  for (int i = 0; i < n; ++i) {
    LFFT_REQUIRE(std::isfinite(v[i]), "zfpx requires finite data");
    maxabs = std::max(maxabs, std::fabs(v[i]));
  }
  if (maxabs == 0.0) return kZeroBlockExp;
  int e = 0;
  std::frexp(maxabs, &e);
  return e;
}

void quantize(const double* v, int n, int e, std::int64_t* q) {
  if (e == kZeroBlockExp) {  // All-zero block; avoid an infinite scale.
    std::fill(q, q + n, std::int64_t{0});
    return;
  }
  const double scale = std::ldexp(1.0, kQ - e);
  for (int i = 0; i < n; ++i) q[i] = std::llround(v[i] * scale);
}

void dequantize(const std::int64_t* q, int n, int e, double* v) {
  if (e == kZeroBlockExp) {
    std::fill(v, v + n, 0.0);
    return;
  }
  const double scale = std::ldexp(1.0, e - kQ);
  for (int i = 0; i < n; ++i) v[i] = static_cast<double>(q[i]) * scale;
}

// Sequency permutation for 4x4 blocks (ordered by i+j).
const std::array<int, 16>& sequency_perm2d() {
  static const std::array<int, 16> perm = [] {
    std::array<int, 16> p{};
    int idx = 0;
    for (int s = 0; s <= 6; ++s) {
      for (int j = 0; j < 4; ++j) {
        for (int i = 0; i < 4; ++i) {
          if (i + j == s) p[static_cast<std::size_t>(idx++)] = i + 4 * j;
        }
      }
    }
    LFFT_ASSERT(idx == 16);
    return p;
  }();
  return perm;
}

// Sequency permutation for 4x4x4 blocks: coefficients ordered by total
// level i+j+k so the embedded coder sees large coefficients first.
const std::array<int, 64>& sequency_perm3d() {
  static const std::array<int, 64> perm = [] {
    std::array<int, 64> p{};
    int idx = 0;
    for (int s = 0; s <= 9; ++s) {
      for (int k = 0; k < 4; ++k) {
        for (int j = 0; j < 4; ++j) {
          for (int i = 0; i < 4; ++i) {
            if (i + j + k == s) p[static_cast<std::size_t>(idx++)] =
                i + 4 * (j + 4 * k);
          }
        }
      }
    }
    LFFT_ASSERT(idx == 64);
    return p;
  }();
  return perm;
}

// One encoded block: 2-byte exponent header + fixed-size payload.
std::size_t block_payload_bytes(int budget_bits) {
  return (static_cast<std::size_t>(budget_bits) + 7) / 8;
}

void encode_block(const double* values, int n, int budget_bits,
                  const int* perm, std::byte* out) {
  const int e = block_exponent(values, n);
  const auto he = static_cast<std::int16_t>(e);
  std::memcpy(out, &he, 2);

  std::int64_t q[64];
  quantize(values, n, e, q);

  const simd::ZfpxKernels& kern = simd::zfpx_kernels();
  std::uint64_t u[64];
  kern.fwd_transform(q, n, perm, u);

  std::span<std::byte> payload(out + 2, block_payload_bytes(budget_bits));
  std::fill(payload.begin(), payload.end(), std::byte{0});
  BitWriter bw(payload);
  kern.encode_planes(u, n, budget_bits, bw, 0);
}

void decode_block(const std::byte* in, int n, int budget_bits,
                  const int* perm, double* values) {
  std::int16_t he = 0;
  std::memcpy(&he, in, 2);
  const int e = he;

  const simd::ZfpxKernels& kern = simd::zfpx_kernels();
  std::uint64_t u[64];
  BitReader br(std::span<const std::byte>(in + 2,
                                          block_payload_bytes(budget_bits)));
  kern.decode_planes(u, n, budget_bits, br, 0);

  std::int64_t q[64];
  kern.inv_transform(u, n, perm, q);
  dequantize(q, n, e, values);
}

}  // namespace

// ----------------------------------------------------------------- 1-D API

Zfpx1dCodec::Zfpx1dCodec(int bits_per_value) : bits_per_value_(bits_per_value) {
  LFFT_REQUIRE(bits_per_value >= 2 && bits_per_value <= 64,
               "zfpx rate must be in [2, 64] bits/value");
}

std::string Zfpx1dCodec::name() const {
  return "zfpx1d(" + std::to_string(bits_per_value_) + "bpv)";
}

std::size_t Zfpx1dCodec::max_compressed_bytes(std::size_t n) const {
  const std::size_t blocks = (n + 3) / 4;
  return blocks * (2 + block_payload_bytes(bits_per_value_ * 4));
}

double Zfpx1dCodec::nominal_rate() const { return 64.0 / bits_per_value_; }

std::size_t Zfpx1dCodec::compress(std::span<const double> in,
                                  std::span<std::byte> out) const {
  LFFT_REQUIRE(out.size() >= max_compressed_bytes(in.size()),
               "zfpx1d: output too small");
  const int budget = bits_per_value_ * 4;
  const std::size_t block_bytes = 2 + block_payload_bytes(budget);
  const std::size_t blocks = (in.size() + 3) / 4;
  for (std::size_t b = 0; b < blocks; ++b) {
    double block[4];
    for (int i = 0; i < 4; ++i) {
      const std::size_t src = std::min(in.size() - 1, b * 4 + i);
      block[i] = in.empty() ? 0.0 : in[src];  // Replicate the tail value.
    }
    encode_block(block, 4, budget, nullptr, out.data() + b * block_bytes);
  }
  return blocks * block_bytes;
}

void Zfpx1dCodec::decompress(std::span<const std::byte> in,
                             std::span<double> out) const {
  LFFT_REQUIRE(in.size() >= max_compressed_bytes(out.size()),
               "zfpx1d: input too small");
  const int budget = bits_per_value_ * 4;
  const std::size_t block_bytes = 2 + block_payload_bytes(budget);
  const std::size_t blocks = (out.size() + 3) / 4;
  for (std::size_t b = 0; b < blocks; ++b) {
    double block[4];
    decode_block(in.data() + b * block_bytes, 4, budget, nullptr, block);
    for (int i = 0; i < 4 && b * 4 + i < out.size(); ++i) {
      out[b * 4 + i] = block[i];
    }
  }
}

// ----------------------------------------------- fixed-accuracy stream API

namespace zfpx_detail {

// Lowest bit plane that must be encoded so the dropped tail (bounded by
// 2^(k_min+1) quantized units) times the <=4x inverse-lift growth stays
// below the tolerance. Returns kTopPlane+1 when the whole block is below
// the tolerance already.
int accuracy_k_min(double tol, int e) {
  if (e == kZeroBlockExp) return 62;  // Nothing to encode.
  const double quantized_tol = tol / std::ldexp(1.0, e - kQ);
  if (quantized_tol <= 16.0) return 0;  // Encode every plane.
  // The quantum 2^(e-55) underflows to 0 when max |v| < 2^-1020 (or the
  // header is hostile), and the quotient is then inf: send the header
  // only, as the stream always has.
  if (!std::isfinite(quantized_tol)) return 62;
  const int k = static_cast<int>(std::floor(std::log2(quantized_tol))) - 4;
  return std::min(k, 62);
}

}  // namespace zfpx_detail

namespace {

using zfpx_detail::kTopPlane;

// Bit-exact stand-ins for the per-block libm calls of the reference
// coder (frexp, ldexp, llround), working on the IEEE-754 bits.

constexpr std::uint64_t kAbsMask = ~(std::uint64_t{1} << 63);
constexpr std::uint64_t kInfBits = 0x7FF0000000000000ull;

// frexp's exponent of a finite nonzero magnitude, read off its bits.
// Subnormals lack the implicit one and go through frexp itself.
inline int frexp_exponent(std::uint64_t abs_bits) {
  const int biased = static_cast<int>(abs_bits >> 52);
  if (biased != 0) return biased - 1022;
  int e = 0;
  std::frexp(std::bit_cast<double>(abs_bits), &e);
  return e;
}

// ldexp(1.0, p), built from the bits wherever 2^p is a normal double.
inline double pow2(int p) {
  if (p >= -1022 && p <= 1023) {
    return std::bit_cast<double>(static_cast<std::uint64_t>(p + 1023) << 52);
  }
  return std::ldexp(1.0, p);
}

// llround for |x| < 2^63: truncate toward zero, then step away from zero
// when the (exactly computed) fraction is at least one half.
inline std::int64_t round_half_away(double x) {
  const auto t = static_cast<std::int64_t>(x);
  const double frac = x - static_cast<double>(t);
  return t + (frac >= 0.5 ? 1 : 0) - (frac <= -0.5 ? 1 : 0);
}

// The 4-block transform: quantize (|q| <= 2^55), one Haar lift,
// negabinary map, and back.
inline void forward4(const double* v, int e, std::uint64_t* u) {
  std::int64_t q[4];
  if (kQ - e <= 1023) {
    const double scale = pow2(kQ - e);
    for (int i = 0; i < 4; ++i) q[i] = round_half_away(v[i] * scale);
  } else {
    // 2^(55-e) overflows for max |v| < 2^-968 (reached only with
    // tolerances below ~1e-288): scale in two exact power-of-two steps.
    const double scale = pow2(kQ - e - 1023);
    for (int i = 0; i < 4; ++i) {
      q[i] = round_half_away(v[i] * 0x1p1023 * scale);
    }
  }
  fwd_lift4(q, 1);
  for (int i = 0; i < 4; ++i) u[i] = int_to_negabinary(q[i]);
}

// Values a decoded block can reach: |q| < 2^63, so |v| < 2^(e+8), which
// overflows only above this exponent (a hostile or near-DBL_MAX header).
constexpr int kMaxFiniteExp = 1024 - 8;

inline void inverse4(const std::uint64_t* u, int e, double* v) {
  std::int64_t q[4];
  for (int i = 0; i < 4; ++i) q[i] = negabinary_to_int(u[i]);
  inv_lift4(q, 1);
  const double scale = pow2(e - kQ);
  for (int i = 0; i < 4; ++i) v[i] = static_cast<double>(q[i]) * scale;
  if (e > kMaxFiniteExp) {
    for (int i = 0; i < 4; ++i) {
      LFFT_REQUIRE(std::isfinite(v[i]), "zfpx-acc: decoded value overflows");
    }
  }
}

// Plane k of a 4-block as a 4-bit word, coefficient i at bit i.
inline std::uint64_t plane_word(const std::uint64_t* u, int k) {
  return ((u[0] >> k) & 1) | (((u[1] >> k) & 1) << 1) |
         (((u[2] >> k) & 1) << 2) | (((u[3] >> k) & 1) << 3);
}

inline void deposit_plane(std::uint64_t w, int k, std::uint64_t* u) {
  for (int i = 0; i < 4; ++i) u[i] |= ((w >> i) & 1) << k;
}

// Until all four coefficients are significant, a plane is the verbatim
// bits of the n_sig significant ones, then group tests: 1, a zero run
// and the 1 of the next coefficient to turn significant, repeated, closed
// by a 0 when no insignificant coefficient has the bit. The group tests
// depend only on (n_sig, plane word) and take at most 8 - 2 n_sig bits,
// so both directions are table lookups.
struct GroupCode {
  std::uint8_t bits, len, n_sig;
};

constexpr std::array<std::array<GroupCode, 16>, 4> kGroupCode = [] {
  std::array<std::array<GroupCode, 16>, 4> t{};
  for (int s = 0; s < 4; ++s) {
    for (unsigned w = 0; w < 16; ++w) {
      unsigned bits = 0;
      int len = 0, n = s;
      while (n < 4) {
        const unsigned rest = w >> n;
        if (rest == 0) {
          ++len;  // The closing 0.
          break;
        }
        const int run = std::countr_zero(rest);
        bits |= ((2u << run) | 1u) << len;
        len += run + 2;
        n += run + 1;
      }
      t[s][w] = {static_cast<std::uint8_t>(bits),
                 static_cast<std::uint8_t>(len),
                 static_cast<std::uint8_t>(n)};
    }
  }
  return t;
}();

// The decoder's view, indexed by n_sig and the 8 stream bits after the
// verbatim prefix: bits consumed, coefficients promoted (as a plane
// word) and the new n_sig. It parses malformed bits the way the scalar
// reference does: a 1 whose run no 1 closes promotes nothing and ends
// the plane.
struct GroupParse {
  std::uint8_t len, promoted, n_sig;
};

constexpr std::array<std::array<GroupParse, 256>, 4> kGroupParse = [] {
  std::array<std::array<GroupParse, 256>, 4> t{};
  for (int s = 0; s < 4; ++s) {
    for (unsigned b = 0; b < 256; ++b) {
      unsigned promoted = 0;
      int p = 0, n = s;
      while (n < 4 && ((b >> p++) & 1u) != 0) {
        const unsigned rest = (b >> p) & ((1u << (4 - n)) - 1);
        if (rest == 0) {
          p += 4 - n;
          break;
        }
        const int run = std::countr_zero(rest);
        promoted |= 1u << (n + run);
        p += run + 1;
        n += run + 1;
      }
      t[s][b] = {static_cast<std::uint8_t>(p),
                 static_cast<std::uint8_t>(promoted),
                 static_cast<std::uint8_t>(n)};
    }
  }
  return t;
}();

// The saturated tail of a 4-block is plane-major: 4 bits per plane, the
// top plane first, coefficient i at bit i. A 16-plane chunk is assembled
// from (and split back into) per-coefficient 16-bit windows x_i, where
// bit 15 of x_i is the chunk's top plane, one byte at a time through two
// 256-entry tables.

// Stream bits of 8 planes of one coefficient: bit 7-s of b -> bit 4s.
constexpr std::array<std::uint32_t, 256> kTailSpread = [] {
  std::array<std::uint32_t, 256> t{};
  for (unsigned b = 0; b < 256; ++b) {
    for (unsigned s = 0; s < 8; ++s) t[b] |= ((b >> (7 - s)) & 1u) << (4 * s);
  }
  return t;
}();

// One stream byte (2 planes x 4 coefficients) back to the windows: bit
// 4t+i -> bit 16i+1-t, coefficient i's two bits side by side in lane i.
constexpr std::array<std::uint64_t, 256> kTailGather = [] {
  std::array<std::uint64_t, 256> t{};
  for (unsigned b = 0; b < 256; ++b) {
    for (unsigned i = 0; i < 4; ++i) {
      for (unsigned p = 0; p < 2; ++p) {
        t[b] |= std::uint64_t{(b >> (4 * p + i)) & 1u} << (16 * i + 1 - p);
      }
    }
  }
  return t;
}();

// 4*planes stream bits for planes k, k-1, ... of u (planes past the
// chunk land above 4*planes and are cut off by the put).
inline std::uint64_t tail_chunk(const std::uint64_t* u, int k) {
  std::uint64_t c = 0;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t x = (u[i] << (63 - k)) >> 48;
    c |= (kTailSpread[x >> 8] | std::uint64_t{kTailSpread[x & 0xFF]} << 32)
         << i;
  }
  return c;
}

// Inverse of tail_chunk: OR the chunk's planes into u.
inline void untail_chunk(std::uint64_t c, int k, std::uint64_t* u) {
  std::uint64_t x = 0;
  for (int j = 0; j < 8; ++j) {
    x |= kTailGather[(c >> (8 * j)) & 0xFF] << (14 - 2 * j);
  }
  for (int i = 0; i < 4; ++i) {
    u[i] |= (((x >> (16 * i)) & 0xFFFF) << 48) >> (63 - k);
  }
}

// Bit planes kTopPlane..k_min of one 4-block: the bits of
// zfpx_detail::encode_planes(u, 4, <no budget>, bw, k_min), one put per
// plane until every coefficient is significant and one per 16 planes
// after.
void encode_planes4(const std::uint64_t* u, int k_min, BitWriter& bw) {
  // While nothing is significant an empty plane is one 0 any-bit, so the
  // planes above the top set bit go out as a single put.
  const int top = std::bit_width(u[0] | u[1] | u[2] | u[3]) - 1;
  int k = std::min(kTopPlane, std::max(top, k_min - 1));
  bw.put(0, kTopPlane - k);
  int n_sig = 0;
  for (; k >= k_min && n_sig < 4; --k) {
    const std::uint64_t w = plane_word(u, k);
    const GroupCode g = kGroupCode[n_sig][w];
    bw.put((w & ((1u << n_sig) - 1)) | (std::uint64_t{g.bits} << n_sig),
           n_sig + g.len);
    n_sig = g.n_sig;
  }
  // Saturated tail: every plane is the 4 verbatim bits, 16 planes per
  // put.
  while (k >= k_min) {
    const int planes = std::min(16, k - k_min + 1);
    bw.put(tail_chunk(u, k), 4 * planes);
    k -= planes;
  }
}

// Inverse of encode_planes4. Consumes the bits zfpx_detail::decode_planes
// (u, 4, <no budget>, br, k_min) consumes and parses malformed planes the
// same way; reading past the end of the input throws.
void decode_planes4(BitReader& br, int k_min, std::uint64_t* u) {
  u[0] = u[1] = u[2] = u[3] = 0;
  int k = kTopPlane;
  int n_sig = 0;
  // Planes before saturation parse out of 64-bit windows. A plane takes
  // at most 8 bits; the window is zero past the end of the input, and
  // skip() rejects a parse that ran into that padding.
  while (k >= k_min && n_sig < 4) {
    const std::uint64_t win = br.peek_upto(64).first;
    int used = 0;
    while (k >= k_min && n_sig < 4 && used <= 64 - 8) {
      const std::uint64_t bits = win >> used;
      if (n_sig == 0) {
        // A run of empty planes is a run of 0 any-bits.
        const int z = std::min({std::countr_zero(bits), k - k_min + 1,
                                64 - used});
        if (z > 0) {
          used += z;
          k -= z;
          continue;
        }
      }
      const GroupParse g = kGroupParse[n_sig][(bits >> n_sig) & 0xFF];
      deposit_plane((bits & ((1u << n_sig) - 1)) | g.promoted, k, u);
      used += n_sig + g.len;
      n_sig = g.n_sig;
      --k;
    }
    br.skip(used);
  }
  while (k >= k_min) {
    const int planes = std::min(16, k - k_min + 1);
    untail_chunk(br.get(4 * planes), k, u);
    k -= planes;
  }
}

}  // namespace

ZfpxAccuracyCodec::ZfpxAccuracyCodec(double abs_tol)
    : tol_(abs_tol), k_min_(std::size_t{1} << 16) {
  LFFT_REQUIRE(abs_tol > 0.0 && std::isfinite(abs_tol),
               "zfpx accuracy mode needs a positive finite tolerance");
  for (int e = -32768; e <= 32767; ++e) {
    k_min_[static_cast<std::size_t>(e + 32768)] =
        static_cast<std::int8_t>(zfpx_detail::accuracy_k_min(tol_, e));
  }
}

std::string ZfpxAccuracyCodec::name() const {
  char buf[48];
  std::snprintf(buf, sizeof buf, "zfpx-acc(%.1e)", tol_);
  return buf;
}

std::size_t ZfpxAccuracyCodec::shard_payload_bound(std::size_t m) const {
  // Worst case per 4-block: 16-bit header + 62 planes x (<= 13 bits).
  return ((m + 3) / 4) * (2 + 104);
}

std::size_t ZfpxAccuracyCodec::max_compressed_bytes(std::size_t n) const {
  return framed_max_bytes(*this, n);
}

std::size_t ZfpxAccuracyCodec::compress_shard(std::span<const double> in,
                                              std::span<std::byte> out) const {
  // One shard is a self-contained run of 4-blocks (the tail block
  // replicates the shard's last element, so shard boundaries do not leak
  // across). BitWriter initializes every byte it touches, so no pre-fill.
  BitWriter bw(out);
  const std::size_t n = in.size();
  for (std::size_t i0 = 0; i0 < n; i0 += 4) {
    double v[4];
    for (std::size_t i = 0; i < 4; ++i) v[i] = in[std::min(n - 1, i0 + i)];
    // The largest magnitude has the largest |bits|; a non-finite value
    // anywhere in the block has larger bits than every finite one.
    std::uint64_t amax = 0;
    for (const double x : v) {
      amax = std::max(amax, std::bit_cast<std::uint64_t>(x) & kAbsMask);
    }
    LFFT_REQUIRE(amax < kInfBits, "zfpx requires finite data");
    const int e = amax == 0 ? kZeroBlockExp : frexp_exponent(amax);
    bw.put(static_cast<std::uint16_t>(static_cast<std::int16_t>(e)), 16);
    const int k_min = this->k_min(e);
    if (k_min > kTopPlane) continue;  // Whole block is below tolerance.
    std::uint64_t u[4];
    forward4(v, e, u);
    encode_planes4(u, k_min, bw);
  }
  return bw.byte_count();
}

void ZfpxAccuracyCodec::decompress_shard(std::span<const std::byte> in,
                                         std::span<double> out) const {
  BitReader br(in);
  const std::size_t n = out.size();
  for (std::size_t i0 = 0; i0 < n; i0 += 4) {
    const int e = static_cast<std::int16_t>(br.get(16));
    double v[4] = {0, 0, 0, 0};
    const int k_min = this->k_min(e);
    if (k_min <= kTopPlane) {
      std::uint64_t u[4];
      decode_planes4(br, k_min, u);
      inverse4(u, e, v);
    }
    for (std::size_t i = 0; i < 4 && i0 + i < n; ++i) out[i0 + i] = v[i];
  }
}

std::size_t ZfpxAccuracyCodec::compress(std::span<const double> in,
                                        std::span<std::byte> out) const {
  return framed_compress(*this, in, out);
}

void ZfpxAccuracyCodec::decompress(std::span<const std::byte> in,
                                   std::span<double> out) const {
  framed_decompress(*this, in, out);
}

// ----------------------------------------------------------------- 2-D API

std::size_t Zfpx2d::compressed_bytes() const {
  const std::size_t bx = (static_cast<std::size_t>(nx) + 3) / 4;
  const std::size_t by = (static_cast<std::size_t>(ny) + 3) / 4;
  return bx * by * (2 + block_payload_bytes(bits_per_value * 16));
}

std::size_t Zfpx2d::compress(std::span<const double> field,
                             std::span<std::byte> out) const {
  LFFT_REQUIRE(field.size() == static_cast<std::size_t>(nx) * ny,
               "zfpx2d: field size mismatch");
  LFFT_REQUIRE(out.size() >= compressed_bytes(), "zfpx2d: output too small");
  const int budget = bits_per_value * 16;
  const std::size_t block_bytes = 2 + block_payload_bytes(budget);
  const auto& perm = sequency_perm2d();
  const auto at = [&](int x, int y) {
    x = std::min(x, nx - 1);
    y = std::min(y, ny - 1);
    return field[static_cast<std::size_t>(x) +
                 static_cast<std::size_t>(nx) * static_cast<std::size_t>(y)];
  };
  std::size_t bidx = 0;
  for (int y0 = 0; y0 < ny; y0 += 4) {
    for (int x0 = 0; x0 < nx; x0 += 4) {
      double block[16];
      for (int j = 0; j < 4; ++j)
        for (int i = 0; i < 4; ++i) block[i + 4 * j] = at(x0 + i, y0 + j);
      encode_block(block, 16, budget, perm.data(),
                   out.data() + bidx * block_bytes);
      ++bidx;
    }
  }
  return bidx * block_bytes;
}

void Zfpx2d::decompress(std::span<const std::byte> in,
                        std::span<double> field) const {
  LFFT_REQUIRE(field.size() == static_cast<std::size_t>(nx) * ny,
               "zfpx2d: field size mismatch");
  LFFT_REQUIRE(in.size() >= compressed_bytes(), "zfpx2d: input too small");
  const int budget = bits_per_value * 16;
  const std::size_t block_bytes = 2 + block_payload_bytes(budget);
  const auto& perm = sequency_perm2d();
  std::size_t bidx = 0;
  for (int y0 = 0; y0 < ny; y0 += 4) {
    for (int x0 = 0; x0 < nx; x0 += 4) {
      double block[16];
      decode_block(in.data() + bidx * block_bytes, 16, budget, perm.data(),
                   block);
      ++bidx;
      for (int j = 0; j < 4 && y0 + j < ny; ++j)
        for (int i = 0; i < 4 && x0 + i < nx; ++i)
          field[static_cast<std::size_t>(x0 + i) +
                static_cast<std::size_t>(nx) *
                    static_cast<std::size_t>(y0 + j)] = block[i + 4 * j];
    }
  }
}

// ----------------------------------------------------------------- 3-D API

std::size_t Zfpx3d::compressed_bytes() const {
  const std::size_t bx = (static_cast<std::size_t>(nx) + 3) / 4;
  const std::size_t by = (static_cast<std::size_t>(ny) + 3) / 4;
  const std::size_t bz = (static_cast<std::size_t>(nz) + 3) / 4;
  return bx * by * bz * (2 + block_payload_bytes(bits_per_value * 64));
}

std::size_t Zfpx3d::compress(std::span<const double> field,
                             std::span<std::byte> out) const {
  LFFT_REQUIRE(field.size() == static_cast<std::size_t>(nx) * ny * nz,
               "zfpx3d: field size mismatch");
  LFFT_REQUIRE(out.size() >= compressed_bytes(), "zfpx3d: output too small");
  const int budget = bits_per_value * 64;
  const std::size_t block_bytes = 2 + block_payload_bytes(budget);
  const auto& perm = sequency_perm3d();
  const auto at = [&](int x, int y, int z) {
    x = std::min(x, nx - 1);
    y = std::min(y, ny - 1);
    z = std::min(z, nz - 1);
    return field[static_cast<std::size_t>(x) +
                 static_cast<std::size_t>(nx) *
                     (static_cast<std::size_t>(y) +
                      static_cast<std::size_t>(ny) * z)];
  };
  std::size_t bidx = 0;
  for (int z0 = 0; z0 < nz; z0 += 4) {
    for (int y0 = 0; y0 < ny; y0 += 4) {
      for (int x0 = 0; x0 < nx; x0 += 4) {
        double block[64];
        for (int k = 0; k < 4; ++k)
          for (int j = 0; j < 4; ++j)
            for (int i = 0; i < 4; ++i)
              block[i + 4 * (j + 4 * k)] = at(x0 + i, y0 + j, z0 + k);
        encode_block(block, 64, budget, perm.data(),
                     out.data() + bidx * block_bytes);
        ++bidx;
      }
    }
  }
  return bidx * block_bytes;
}

void Zfpx3d::decompress(std::span<const std::byte> in,
                        std::span<double> field) const {
  LFFT_REQUIRE(field.size() == static_cast<std::size_t>(nx) * ny * nz,
               "zfpx3d: field size mismatch");
  LFFT_REQUIRE(in.size() >= compressed_bytes(), "zfpx3d: input too small");
  const int budget = bits_per_value * 64;
  const std::size_t block_bytes = 2 + block_payload_bytes(budget);
  const auto& perm = sequency_perm3d();
  std::size_t bidx = 0;
  for (int z0 = 0; z0 < nz; z0 += 4) {
    for (int y0 = 0; y0 < ny; y0 += 4) {
      for (int x0 = 0; x0 < nx; x0 += 4) {
        double block[64];
        decode_block(in.data() + bidx * block_bytes, 64, budget, perm.data(),
                     block);
        ++bidx;
        for (int k = 0; k < 4 && z0 + k < nz; ++k)
          for (int j = 0; j < 4 && y0 + j < ny; ++j)
            for (int i = 0; i < 4 && x0 + i < nx; ++i)
              field[static_cast<std::size_t>(x0 + i) +
                    static_cast<std::size_t>(nx) *
                        (static_cast<std::size_t>(y0 + j) +
                         static_cast<std::size_t>(ny) * (z0 + k))] =
                  block[i + 4 * (j + 4 * k)];
      }
    }
  }
}

namespace simd {

// The reference kernels ARE the scalar coder above: the dispatch table's
// scalar row points straight at them, so LOSSYFFT_SIMD=scalar runs exactly
// the code this file has always run.
ZfpxKernels scalar_zfpx_kernels() {
  return {&zfpx_detail::encode_planes, &zfpx_detail::decode_planes,
          &zfpx_detail::fwd_transform, &zfpx_detail::inv_transform};
}

}  // namespace simd

}  // namespace lossyfft
