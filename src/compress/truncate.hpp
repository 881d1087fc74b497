// Truncation codecs: the casting-like compression the paper evaluates
// (Section IV-A, Section VI). All are fixed-rate, so the one-sided exchange
// can size its windows without a handshake.
//
//   IdentityCodec  — memcpy; the FP64 baseline (rate 1, lossless).
//   CastFp32Codec  — FP64 -> FP32 round trip (rate 2).
//   CastFp16Codec  — FP64 -> IEEE binary16 (rate 4); optionally per-block
//                    scaled to dodge FP16's narrow exponent range.
//   CastBf16Codec  — FP64 -> bfloat16 (rate 4; keeps FP32's range).
//   BitTrimCodec   — keep sign + 11 exponent bits + m mantissa bits and
//                    bit-pack to (12+m) bits/value: the generalized
//                    mantissa-trimming of Fig. 2 at any rate 64/(12+m).
#pragma once

#include "compress/codec.hpp"

namespace lossyfft {

class IdentityCodec final : public Codec {
 public:
  std::string name() const override { return "fp64"; }
  std::size_t max_compressed_bytes(std::size_t n) const override {
    return n * 8;
  }
  std::size_t compress(std::span<const double> in,
                       std::span<std::byte> out) const override;
  void decompress(std::span<const std::byte> in,
                  std::span<double> out) const override;
  bool fixed_size() const override { return true; }
  double nominal_rate() const override { return 1.0; }
  bool lossless() const override { return true; }
  std::size_t parallel_granularity() const override { return 1; }
};

class CastFp32Codec final : public Codec {
 public:
  std::string name() const override { return "fp64->fp32"; }
  std::size_t max_compressed_bytes(std::size_t n) const override {
    return n * 4;
  }
  std::size_t compress(std::span<const double> in,
                       std::span<std::byte> out) const override;
  void decompress(std::span<const std::byte> in,
                  std::span<double> out) const override;
  bool fixed_size() const override { return true; }
  double nominal_rate() const override { return 2.0; }
  std::size_t parallel_granularity() const override { return 1; }
};

class CastFp16Codec final : public Codec {
 public:
  /// With `scaled` set, every block of 256 values is multiplied by a
  /// stored power-of-two scale so the block maximum lands inside FP16's
  /// range; this spends 4 bytes per block to avoid overflow to infinity.
  /// The scaled stream is laid out block by block, [float scale][up to 256
  /// halves] (earlier versions appended all scales after the halves), so
  /// a prefix of whole blocks is a self-contained stream.
  explicit CastFp16Codec(bool scaled = false) : scaled_(scaled) {}

  std::string name() const override {
    return scaled_ ? "fp64->fp16(scaled)" : "fp64->fp16";
  }
  std::size_t max_compressed_bytes(std::size_t n) const override;
  std::size_t compress(std::span<const double> in,
                       std::span<std::byte> out) const override;
  void decompress(std::span<const std::byte> in,
                  std::span<double> out) const override;
  bool fixed_size() const override { return true; }
  double nominal_rate() const override { return 4.0; }
  /// Scaled mode shards at block boundaries: each block carries its own
  /// scale, so the stream is a concatenation of per-block sub-streams.
  std::size_t parallel_granularity() const override {
    return scaled_ ? kBlock : 1;
  }

  static constexpr std::size_t kBlock = 256;

 private:
  bool scaled_;
};

class CastBf16Codec final : public Codec {
 public:
  std::string name() const override { return "fp64->bf16"; }
  std::size_t max_compressed_bytes(std::size_t n) const override {
    return n * 2;
  }
  std::size_t compress(std::span<const double> in,
                       std::span<std::byte> out) const override;
  void decompress(std::span<const std::byte> in,
                  std::span<double> out) const override;
  bool fixed_size() const override { return true; }
  double nominal_rate() const override { return 4.0; }
  std::size_t parallel_granularity() const override { return 1; }
};

class BitTrimCodec final : public Codec {
 public:
  /// Keep `mantissa_bits` in [0, 52]; 52 is lossless.
  explicit BitTrimCodec(int mantissa_bits);

  std::string name() const override;
  std::size_t max_compressed_bytes(std::size_t n) const override;
  std::size_t compress(std::span<const double> in,
                       std::span<std::byte> out) const override;
  void decompress(std::span<const std::byte> in,
                  std::span<double> out) const override;
  bool fixed_size() const override { return true; }
  double nominal_rate() const override;
  bool lossless() const override { return mantissa_bits_ == 52; }
  /// 8 values * (12 + m) bits is always a whole number of bytes, so shard
  /// boundaries at multiples of 8 are byte-aligned in the packed stream.
  std::size_t parallel_granularity() const override { return 8; }

  int mantissa_bits() const { return mantissa_bits_; }

 private:
  int mantissa_bits_;
  int bits_per_value_;  // 12 + mantissa_bits.
};

}  // namespace lossyfft
