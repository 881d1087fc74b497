// zfpx: a fixed-rate transform codec in the style of ZFP (Lindstrom 2014),
// the library the paper points to for compression that exploits spatial
// correlation (Section IV-A).
//
// Design (zfp-inspired; not bit-compatible with libzfp):
//   1. Partition the data into blocks of 4^d values (d = 1, 2 or 3).
//   2. Per block, align all values to the block-maximum exponent and
//      quantize to 64-bit integers.
//   3. Decorrelate with a reversible integer Haar (S-transform) lifting
//      along each dimension. Smooth data concentrates energy in the
//      low-sequency coefficients.
//   4. Map to negabinary so magnitude ordering survives sign.
//   5. Encode bit planes most-significant first with an embedded
//      group-testing coder: planes that are zero beyond the currently
//      significant coefficients cost one bit, which is where correlated
//      data beats plain truncation at equal rate.
//   6. Stop at the fixed per-block bit budget (rate * block size).
//
// Random data gets no energy compaction and behaves like truncation at the
// same rate — exactly the behaviour the paper describes for ZFP.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "compress/codec.hpp"

namespace lossyfft {

class BitWriter;
class BitReader;

/// Stream codec treating the input as 1-D blocks of 4 doubles.
class Zfpx1dCodec final : public Codec {
 public:
  /// `bits_per_value` in [2, 64]: fixed rate (plus a 16-bit block header).
  explicit Zfpx1dCodec(int bits_per_value);

  std::string name() const override;
  std::size_t max_compressed_bytes(std::size_t n) const override;
  std::size_t compress(std::span<const double> in,
                       std::span<std::byte> out) const override;
  void decompress(std::span<const std::byte> in,
                  std::span<double> out) const override;
  bool fixed_size() const override { return true; }
  double nominal_rate() const override;
  /// Every 4-block is a self-contained byte-aligned unit (16-bit header +
  /// padded payload), so the stream shards at block boundaries.
  std::size_t parallel_granularity() const override { return 4; }

 private:
  int bits_per_value_;
};

/// Fixed-accuracy stream codec (zfp's "accuracy mode"): every 4-block is
/// encoded down to the bit plane where the remaining truncation error is
/// below `abs_tol`. Variable rate: smooth data costs few bits, random data
/// approaches the fixed-rate cost for the same tolerance.
///
/// The stream is shard-framed (codec.hpp documents the layout): runs of
/// kShardElems elements are coded independently behind a per-shard offset
/// directory, so ParallelCodec can fan one large variable slot across the
/// WorkerPool — on both sides — and still emit the bytes the serial
/// encoder writes.
///
/// The shard coder is one plain C++ loop over 4-blocks on u64 words,
/// independent of the SIMD dispatch level: bit-exact replacements for the
/// libm calls, a per-codec lowest-plane table, one put per plane before
/// all four coefficients are significant and one per 16 planes after.
/// Its streams are byte-identical to the per-block reference coder in
/// zfpx_detail (pinned by zfpx_acc_test).
class ZfpxAccuracyCodec final : public Codec {
 public:
  /// Frame shard size: 1024 4-blocks per shard, matching szq's choice —
  /// coarse enough that directory + per-shard ramp-up cost is noise, fine
  /// enough that a typical exchange slot splits across the whole pool.
  static constexpr std::size_t kShardElems = 4096;

  explicit ZfpxAccuracyCodec(double abs_tol);

  std::string name() const override;
  std::size_t max_compressed_bytes(std::size_t n) const override;
  std::size_t compress(std::span<const double> in,
                       std::span<std::byte> out) const override;
  void decompress(std::span<const std::byte> in,
                  std::span<double> out) const override;
  bool fixed_size() const override { return false; }
  double nominal_rate() const override { return 4.0; }  // Design point.

  std::size_t parallel_granularity() const override { return kShardElems; }
  std::size_t shard_payload_bound(std::size_t m) const override;
  std::size_t compress_shard(std::span<const double> in,
                             std::span<std::byte> out) const override;
  void decompress_shard(std::span<const std::byte> in,
                        std::span<double> out) const override;

  double tolerance() const { return tol_; }

 private:
  /// Lowest coded bit plane for a block header value: zfpx_detail::
  /// accuracy_k_min(tol_, e) at index e + 32768, for every int16 e, so a
  /// decoded header of any value indexes inside the table.
  int k_min(int e) const { return k_min_[static_cast<std::size_t>(e + 32768)]; }

  double tol_;
  std::vector<std::int8_t> k_min_;
};

/// 2-D field interface: fixed-rate 4x4 blocks of an (nx, ny) field laid
/// out x-fastest (edge blocks padded by replication). Completes the
/// dimension family: planar data (e.g. one z-slice of a pencil) carries
/// correlation in two directions that the 1-D stream codec cannot see.
struct Zfpx2d {
  int nx = 0, ny = 0;
  int bits_per_value = 16;

  std::size_t compressed_bytes() const;
  std::size_t compress(std::span<const double> field,
                       std::span<std::byte> out) const;
  void decompress(std::span<const std::byte> in,
                  std::span<double> field) const;
};

/// 3-D field interface: compress a (nx, ny, nz) field laid out x-fastest
/// into fixed-rate blocks of 4x4x4 (edge blocks padded by replication).
/// This is the spatially-aware mode used by the codec ablation study.
struct Zfpx3d {
  int nx = 0, ny = 0, nz = 0;
  int bits_per_value = 16;

  std::size_t compressed_bytes() const;
  std::size_t compress(std::span<const double> field,
                       std::span<std::byte> out) const;
  void decompress(std::span<const std::byte> in,
                  std::span<double> field) const;
};

namespace zfpx_detail {

/// Reversible integer S-transform pair, used by tests.
void fwd_lift4(std::int64_t* p, std::size_t stride);
void inv_lift4(std::int64_t* p, std::size_t stride);

/// Negabinary mapping and its inverse.
std::uint64_t int_to_negabinary(std::int64_t x);
std::int64_t negabinary_to_int(std::uint64_t u);

/// Encode/decode one block of `size` quantized ints within `budget_bits`.
/// Exposed for direct unit testing of the embedded coder.
void encode_block_ints(const std::int64_t* q, int size, int budget_bits,
                       std::span<std::byte> out);
void decode_block_ints(std::span<const std::byte> in, int size,
                       int budget_bits, std::int64_t* q);

/// The scalar reference kernels (the scalar row of the SIMD dispatch
/// table). The bit-plane coder runs planes 61 down to `k_min` within
/// `budget` bits; the transforms lift, sequency-permute (`perm` may be
/// null for n == 4) and negabinary-map a block of n in {4, 16, 64}.
void encode_planes(const std::uint64_t* u, int size, int budget,
                   BitWriter& bw, int k_min = 0);
void decode_planes(std::uint64_t* u, int size, int budget, BitReader& br,
                   int k_min = 0);
void fwd_transform(std::int64_t* q, int n, const int* perm,
                   std::uint64_t* u);
void inv_transform(const std::uint64_t* u, int n, const int* perm,
                   std::int64_t* q);

/// Accuracy mode's lowest coded bit plane for tolerance `tol` and block
/// exponent `e`; 62 means the whole block is below the tolerance and only
/// its header is sent. Defined for every int `e`, hostile headers too.
int accuracy_k_min(double tol, int e);

}  // namespace zfpx_detail

}  // namespace lossyfft
