// Little bitstream reader/writer used by the bit-packing codecs
// (BitTrim, zfpx, szq). Bits are appended LSB-first into bytes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "common/error.hpp"

namespace lossyfft {

class BitWriter {
 public:
  explicit BitWriter(std::span<std::byte> out) : out_(out) {}

  /// Append the low `nbits` bits of `v` (LSB first). nbits in [0, 64].
  /// Word-at-a-time: the partial byte at the cursor is merged with `v`
  /// and written back as one unaligned 64-bit store (plus a ninth byte
  /// when the field straddles it), so a put costs the same for 1 bit as
  /// for 64. The store also zero-fills bytes past the field, which keeps
  /// every byte the stream touches initialized; the next put overwrites
  /// them. Within 8 bytes of the buffer end the byte loop takes over, so
  /// nothing outside `out` is ever written.
  void put(std::uint64_t v, int nbits) {
    LFFT_ASSERT(nbits >= 0 && nbits <= 64);
    if (nbits == 0) return;
    if (nbits < 64) v &= (std::uint64_t{1} << nbits) - 1;
    const std::size_t byte = pos_ >> 3;
    const int bit = static_cast<int>(pos_ & 7);
    LFFT_ASSERT(((pos_ + static_cast<std::size_t>(nbits) + 7) >> 3) <=
                out_.size());
    if (byte + 8 <= out_.size()) {
      // Only a partly written byte is read back: a fresh one may not be
      // initialized yet.
      const std::uint64_t keep =
          bit != 0 ? std::to_integer<std::uint64_t>(out_[byte]) &
                         ((std::uint64_t{1} << bit) - 1)
                   : 0;
      const std::uint64_t w = keep | (v << bit);  // little-endian host
      std::memcpy(out_.data() + byte, &w, 8);
      // The bounds assert above covers the ninth byte when it is needed.
      if (bit + nbits > 64) out_[byte + 8] = std::byte(v >> (64 - bit));
      pos_ += static_cast<std::size_t>(nbits);
      return;
    }
    put_tail(v, nbits);
  }

  void put_bit(bool b) {
    const std::size_t byte = pos_ >> 3;
    LFFT_ASSERT(byte < out_.size());
    const int bit = static_cast<int>(pos_ & 7);
    if (bit == 0) out_[byte] = std::byte{0};
    if (b) out_[byte] |= std::byte{1} << bit;
    ++pos_;
  }

  /// Bits written so far.
  std::size_t bit_count() const { return pos_; }

  /// Bytes touched so far (final byte zero-padded by construction).
  std::size_t byte_count() const { return (pos_ + 7) >> 3; }

 private:
  // Byte-at-a-time put for the last 8 bytes of the buffer.
  void put_tail(std::uint64_t v, int nbits) {
    int done = 0;
    while (done < nbits) {
      const std::size_t byte = pos_ >> 3;
      const int bit = static_cast<int>(pos_ & 7);
      const int take = std::min(8 - bit, nbits - done);
      // Bits past `take` fall off the top of the 8-bit mask; `v` is
      // pre-masked so nothing stray enters from above nbits.
      const auto chunk = static_cast<unsigned>((v >> done) & 0xffu);
      if (bit == 0) {
        out_[byte] = std::byte(chunk);
      } else {
        out_[byte] |= std::byte((chunk << bit) & 0xffu);
      }
      pos_ += static_cast<std::size_t>(take);
      done += take;
    }
  }

  std::span<std::byte> out_;
  std::size_t pos_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::byte> in) : in_(in) {}

  std::uint64_t get(int nbits) {
    // read_at carries the bounds REQUIRE: reading past the end means a
    // truncated/corrupted wire stream — a recoverable input error.
    const std::uint64_t v = read_at(pos_, nbits);
    pos_ += static_cast<std::size_t>(nbits);
    return v;
  }

  bool get_bit() {
    const std::size_t byte = pos_ >> 3;
    // Reading past the end means a truncated/corrupted wire stream — a
    // recoverable input error, not a library bug.
    LFFT_REQUIRE(byte < in_.size(), "bitstream: read past end of input");
    const int bit = static_cast<int>(pos_ & 7);
    ++pos_;
    return (in_[byte] & (std::byte{1} << bit)) != std::byte{0};
  }

  /// Peek at up to `max_bits` (<= 64) upcoming bits without consuming
  /// them. Returns {bits LSB-first, avail} where avail = min(max_bits,
  /// bits left in the buffer); bit positions at and above avail are zero.
  /// Never faults: near the end of the stream the caller sees a short
  /// avail and falls back to per-bit reads, so a truncated stream fails
  /// the same LFFT_REQUIRE a bit-by-bit reader would hit.
  std::pair<std::uint64_t, int> peek_upto(int max_bits) const {
    LFFT_ASSERT(max_bits >= 0 && max_bits <= 64);
    const std::size_t left = bit_size() - pos_;
    const int avail = static_cast<int>(
        std::min(static_cast<std::size_t>(max_bits), left));
    return {read_at(pos_, avail), avail};
  }

  /// Consume `nbits` previously peeked (or offset-directory-accounted)
  /// bits. Skipping past the end of the buffer means a truncated wire
  /// stream — the same recoverable input error a bit-by-bit get() would
  /// hit, not a library bug, so adversarially short shard slabs fail
  /// cleanly instead of walking the cursor out of bounds.
  void skip(int nbits) {
    LFFT_ASSERT(nbits >= 0);
    LFFT_REQUIRE(pos_ + static_cast<std::size_t>(nbits) <= bit_size(),
                 "bitstream: read past end of input");
    pos_ += static_cast<std::size_t>(nbits);
  }

  /// Random-access read of `nbits` (<= 64) at absolute bit offset
  /// `bit_pos`, without moving the cursor. This is the offset-directory
  /// primitive behind the scan-then-fill zfpx decode: the metadata scan
  /// records where each plane's verbatim prefix starts, then the fill
  /// phase reads the prefixes in any order. Bounds are checked the same
  /// way get() checks them: out of range is a recoverable input error.
  std::uint64_t read_at(std::size_t bit_pos, int nbits) const {
    LFFT_ASSERT(nbits >= 0 && nbits <= 64);
    LFFT_REQUIRE(bit_pos + static_cast<std::size_t>(nbits) <= bit_size(),
                 "bitstream: read past end of input");
    if (nbits == 0) return 0;
    const std::uint64_t mask =
        nbits < 64 ? (std::uint64_t{1} << nbits) - 1 : ~std::uint64_t{0};
    const std::size_t byte = bit_pos >> 3;
    const int bit = static_cast<int>(bit_pos & 7);
    if (byte + 8 <= in_.size()) {
      std::uint64_t w;
      std::memcpy(&w, in_.data() + byte, 8);  // little-endian host
      w >>= bit;
      if (bit != 0 && bit + nbits > 64) {
        // The read spans a 9th byte; the REQUIRE above guarantees it is
        // in range (bit_pos + nbits reaches past byte+8's last bit).
        w |= std::to_integer<std::uint64_t>(in_[byte + 8]) << (64 - bit);
      }
      return w & mask;
    }
    // Tail of the buffer: assemble the remaining bytes by hand.
    std::uint64_t w = 0;
    for (std::size_t b = byte; b < in_.size() && b < byte + 9; ++b) {
      const std::uint64_t c = std::to_integer<std::uint64_t>(in_[b]);
      const int sh = static_cast<int>(b - byte) * 8 - bit;
      w |= sh >= 0 ? c << sh : c >> -sh;
    }
    return w & mask;
  }

  std::size_t bit_count() const { return pos_; }

  /// Total bits in the underlying buffer.
  std::size_t bit_size() const { return in_.size() << 3; }

  /// Bits remaining ahead of the cursor.
  std::size_t bits_left() const { return bit_size() - pos_; }

 private:
  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
};

}  // namespace lossyfft
