#include "compress/truncate.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "compress/bitio.hpp"
#include "compress/simd.hpp"
#include "softfloat/half.hpp"
#include "softfloat/trim.hpp"

namespace lossyfft {

namespace {

// Lane width of the cast kernels: convert into a contiguous on-stack block,
// then store it with one memcpy. The conversion loop is a straight-line
// gather-free transform the compiler auto-vectorizes (vcvtpd2ps and
// friends), where the per-element memcpy form defeated vectorization.
constexpr std::size_t kLane = 1024;

// Scalar reference kernels, registered as the dispatch table's scalar row
// (truncate_simd.cpp holds the AVX2 row; streams are bit-identical).

void cast_fp32_scalar(const double* in, std::size_t n, std::byte* out) {
  float lane[kLane];
  for (std::size_t i = 0; i < n; i += kLane) {
    const std::size_t m = std::min(kLane, n - i);
    for (std::size_t j = 0; j < m; ++j) {
      lane[j] = static_cast<float>(in[i + j]);
    }
    std::memcpy(out + i * 4, lane, m * 4);
  }
}

void uncast_fp32_scalar(const std::byte* in, std::size_t n, double* out) {
  float lane[kLane];
  for (std::size_t i = 0; i < n; i += kLane) {
    const std::size_t m = std::min(kLane, n - i);
    std::memcpy(lane, in + i * 4, m * 4);
    for (std::size_t j = 0; j < m; ++j) {
      out[i + j] = static_cast<double>(lane[j]);
    }
  }
}

void trim_pack_scalar(const double* in, std::size_t n, int mantissa_bits,
                      int bits, std::byte* out) {
  // Word-at-a-time packer: values accumulate LSB-first in a uint64_t lane
  // that is flushed whole (same stream BitWriter produces, ~bits/8 byte
  // stores per value instead of one pass per bit).
  const int drop = 52 - mantissa_bits;
  std::byte* dst = out;
  std::size_t pos = 0;          // Bytes flushed so far.
  std::uint64_t acc = 0;        // Pending stream bits, LSB-first.
  int filled = 0;               // In [0, 63].
  const auto flush_word = [&] {
    for (int k = 0; k < 8; ++k) {
      dst[pos + static_cast<std::size_t>(k)] = std::byte(acc >> (8 * k));
    }
    pos += 8;
  };
  for (std::size_t idx = 0; idx < n; ++idx) {
    // Layout of a trimmed double, high to low: sign(1) exp(11)
    // kept-mantissa. We transmit the top (12 + m) bits; the dropped low
    // bits are zero.
    const double t = trim_mantissa(in[idx], mantissa_bits);
    const std::uint64_t u = std::bit_cast<std::uint64_t>(t) >> drop;
    acc |= u << filled;
    const int take = 64 - filled;
    if (bits >= take) {
      flush_word();
      acc = take < 64 ? (u >> take) : 0;
      filled = bits - take;
    } else {
      filled += bits;
    }
  }
  for (int k = 0; k * 8 < filled; ++k) {
    dst[pos++] = std::byte(acc >> (8 * k));
  }
}

void trim_unpack_scalar(const std::byte* in, std::size_t nbytes, double* out,
                        std::size_t n, int bits, int drop) {
  // Word-at-a-time unpacker: load 8 stream bytes as one little-endian
  // word at the value's byte offset, shift the in-byte phase away, and
  // top up from a ninth byte when the value straddles the word. Near the
  // end of the stream the load falls back to byte assembly.
  const std::uint64_t mask =
      bits < 64 ? (std::uint64_t{1} << bits) - 1 : ~std::uint64_t{0};
  const std::byte* src = in;
  std::size_t bitpos = 0;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const std::size_t byte = bitpos >> 3;
    const int phase = static_cast<int>(bitpos & 7);
    std::uint64_t w;
    if (byte + 8 <= nbytes) {
      std::memcpy(&w, src + byte, 8);  // Little-endian stream word.
    } else {
      w = 0;
      for (std::size_t k = byte; k < nbytes; ++k) {
        w |= std::to_integer<std::uint64_t>(src[k]) << (8 * (k - byte));
      }
    }
    std::uint64_t u = w >> phase;
    if (phase != 0 && phase + bits > 64 && byte + 8 < nbytes) {
      u |= std::to_integer<std::uint64_t>(src[byte + 8]) << (64 - phase);
    }
    out[idx] = std::bit_cast<double>((u & mask) << drop);
    bitpos += static_cast<std::size_t>(bits);
  }
}

}  // namespace

namespace simd {

TrimKernels scalar_trim_kernels() {
  return {&trim_pack_scalar, &trim_unpack_scalar, &cast_fp32_scalar,
          &uncast_fp32_scalar};
}

}  // namespace simd

// ---------------------------------------------------------------- Identity

std::size_t IdentityCodec::compress(std::span<const double> in,
                                    std::span<std::byte> out) const {
  const std::size_t bytes = in.size() * sizeof(double);
  LFFT_REQUIRE(out.size() >= bytes, "identity: output too small");
  if (bytes) std::memcpy(out.data(), in.data(), bytes);
  return bytes;
}

void IdentityCodec::decompress(std::span<const std::byte> in,
                               std::span<double> out) const {
  const std::size_t bytes = out.size() * sizeof(double);
  LFFT_REQUIRE(in.size() >= bytes, "identity: input too small");
  if (bytes) std::memcpy(out.data(), in.data(), bytes);
}

// ------------------------------------------------------------------- FP32

std::size_t CastFp32Codec::compress(std::span<const double> in,
                                    std::span<std::byte> out) const {
  LFFT_REQUIRE(out.size() >= in.size() * 4, "fp32 cast: output too small");
  simd::trim_kernels().cast_fp32(in.data(), in.size(), out.data());
  return in.size() * 4;
}

void CastFp32Codec::decompress(std::span<const std::byte> in,
                               std::span<double> out) const {
  LFFT_REQUIRE(in.size() >= out.size() * 4, "fp32 cast: input too small");
  simd::trim_kernels().uncast_fp32(in.data(), out.size(), out.data());
}

// ------------------------------------------------------------------- FP16

std::size_t CastFp16Codec::max_compressed_bytes(std::size_t n) const {
  const std::size_t payload = n * 2;
  if (!scaled_) return payload;
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  return payload + blocks * sizeof(float);
}

std::size_t CastFp16Codec::compress(std::span<const double> in,
                                    std::span<std::byte> out) const {
  LFFT_REQUIRE(out.size() >= max_compressed_bytes(in.size()),
               "fp16 cast: output too small");
  std::uint16_t lane[kLane];
  if (!scaled_) {
    for (std::size_t i = 0; i < in.size(); i += kLane) {
      const std::size_t m = std::min(kLane, in.size() - i);
      for (std::size_t j = 0; j < m; ++j) {
        lane[j] = double_to_half(in[i + j]).bits;
      }
      std::memcpy(out.data() + i * 2, lane, m * 2);
    }
    return in.size() * 2;
  }
  // Scaled mode: one power-of-two scale per block of kBlock values, laid
  // out block by block as [float scale][m halves]. The scale maps the
  // block max near 2^14 so values stay clear of both overflow and the
  // subnormal floor. kBlock <= kLane, so one lane buffers a whole block.
  static_assert(kBlock <= kLane);
  std::byte* dst = out.data();
  for (std::size_t lo = 0; lo < in.size(); lo += kBlock) {
    const std::size_t m = std::min(kBlock, in.size() - lo);
    double maxabs = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      maxabs = std::max(maxabs, std::fabs(in[lo + j]));
    }
    int exp = 0;
    if (maxabs > 0.0 && std::isfinite(maxabs)) std::frexp(maxabs, &exp);
    const double scale = std::ldexp(1.0, 14 - exp);  // Block max -> ~2^14.
    const float fscale = static_cast<float>(scale);
    std::memcpy(dst, &fscale, sizeof(float));
    for (std::size_t j = 0; j < m; ++j) {
      lane[j] = double_to_half(in[lo + j] * scale).bits;
    }
    std::memcpy(dst + sizeof(float), lane, m * 2);
    dst += sizeof(float) + m * 2;
  }
  return max_compressed_bytes(in.size());
}

void CastFp16Codec::decompress(std::span<const std::byte> in,
                               std::span<double> out) const {
  LFFT_REQUIRE(in.size() >= max_compressed_bytes(out.size()),
               "fp16 cast: input too small");
  std::uint16_t lane[kLane];
  if (!scaled_) {
    for (std::size_t i = 0; i < out.size(); i += kLane) {
      const std::size_t m = std::min(kLane, out.size() - i);
      std::memcpy(lane, in.data() + i * 2, m * 2);
      for (std::size_t j = 0; j < m; ++j) {
        out[i + j] = half_to_double(Half{lane[j]});
      }
    }
    return;
  }
  const std::byte* src = in.data();
  for (std::size_t lo = 0; lo < out.size(); lo += kBlock) {
    const std::size_t m = std::min(kBlock, out.size() - lo);
    float fscale;
    std::memcpy(&fscale, src, sizeof(float));
    const double inv = 1.0 / static_cast<double>(fscale);
    std::memcpy(lane, src + sizeof(float), m * 2);
    for (std::size_t j = 0; j < m; ++j) {
      out[lo + j] = half_to_double(Half{lane[j]}) * inv;
    }
    src += sizeof(float) + m * 2;
  }
}

// ------------------------------------------------------------------- BF16

std::size_t CastBf16Codec::compress(std::span<const double> in,
                                    std::span<std::byte> out) const {
  LFFT_REQUIRE(out.size() >= in.size() * 2, "bf16 cast: output too small");
  std::uint16_t lane[kLane];
  for (std::size_t i = 0; i < in.size(); i += kLane) {
    const std::size_t m = std::min(kLane, in.size() - i);
    for (std::size_t j = 0; j < m; ++j) {
      lane[j] = double_to_bfloat16(in[i + j]).bits;
    }
    std::memcpy(out.data() + i * 2, lane, m * 2);
  }
  return in.size() * 2;
}

void CastBf16Codec::decompress(std::span<const std::byte> in,
                               std::span<double> out) const {
  LFFT_REQUIRE(in.size() >= out.size() * 2, "bf16 cast: input too small");
  std::uint16_t lane[kLane];
  for (std::size_t i = 0; i < out.size(); i += kLane) {
    const std::size_t m = std::min(kLane, out.size() - i);
    std::memcpy(lane, in.data() + i * 2, m * 2);
    for (std::size_t j = 0; j < m; ++j) {
      out[i + j] = bfloat16_to_double(BFloat16{lane[j]});
    }
  }
}

// ---------------------------------------------------------------- BitTrim

BitTrimCodec::BitTrimCodec(int mantissa_bits)
    : mantissa_bits_(mantissa_bits),
      bits_per_value_(packed_bits_for_mantissa(mantissa_bits)) {
  LFFT_REQUIRE(mantissa_bits >= 0 && mantissa_bits <= 52,
               "BitTrim: mantissa bits must be in [0, 52]");
}

std::string BitTrimCodec::name() const {
  return "bittrim(m=" + std::to_string(mantissa_bits_) + ")";
}

std::size_t BitTrimCodec::max_compressed_bytes(std::size_t n) const {
  return (n * static_cast<std::size_t>(bits_per_value_) + 7) / 8;
}

double BitTrimCodec::nominal_rate() const {
  return compression_rate_for_mantissa(mantissa_bits_);
}

std::size_t BitTrimCodec::compress(std::span<const double> in,
                                   std::span<std::byte> out) const {
  LFFT_REQUIRE(out.size() >= max_compressed_bytes(in.size()),
               "bittrim: output too small");
  simd::trim_kernels().pack(in.data(), in.size(), mantissa_bits_,
                            bits_per_value_, out.data());
  return max_compressed_bytes(in.size());
}

void BitTrimCodec::decompress(std::span<const std::byte> in,
                              std::span<double> out) const {
  LFFT_REQUIRE(in.size() >= max_compressed_bytes(out.size()),
               "bittrim: input too small");
  simd::trim_kernels().unpack(in.data(), in.size(), out.data(), out.size(),
                              bits_per_value_, 52 - mantissa_bits_);
}

}  // namespace lossyfft
