#include "compress/planner.hpp"

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "compress/lossless.hpp"
#include "compress/szq.hpp"
#include "compress/truncate.hpp"
#include "compress/zfpx.hpp"
#include "softfloat/trim.hpp"

namespace lossyfft {

int mantissa_bits_for_tolerance(double e_tol) {
  LFFT_REQUIRE(e_tol > 0.0 && std::isfinite(e_tol),
               "e_tol must be positive and finite");
  // Need 2^-(m+1) <= e_tol  =>  m >= -log2(e_tol) - 1.
  const double m = std::ceil(-std::log2(e_tol) - 1.0);
  if (m <= 0.0) return 0;
  if (m >= 52.0) return 52;
  return static_cast<int>(m);
}

CodecPtr plan_codec(double e_tol, CodecFamily family) {
  const int m = mantissa_bits_for_tolerance(e_tol);
  switch (family) {
    case CodecFamily::kTruncation:
      if (m == 52) return std::make_shared<IdentityCodec>();
      // Prefer hardware-width casts when they meet the tolerance: FP16
      // keeps 10 mantissa bits, FP32 keeps 23. Between those widths the
      // packed bit-trim transmits exactly the bits the tolerance needs.
      // FP16 is block-scaled: spectral values routinely exceed its 65504
      // maximum, and the unscaled cast would turn them into inf.
      if (m <= 10) return std::make_shared<CastFp16Codec>(/*scaled=*/true);
      if (m > 10 && m <= 12) return std::make_shared<CastFp32Codec>();
      if (m <= 23 && packed_bits_for_mantissa(m) >= 32) {
        // Trimming would not beat the FP32 cast; use the cast.
        return std::make_shared<CastFp32Codec>();
      }
      if (m <= 23) return std::make_shared<BitTrimCodec>(m);
      return std::make_shared<BitTrimCodec>(m);
    case CodecFamily::kZfpx:
      // Accuracy mode: the codec spends exactly the bit planes the
      // tolerance requires, block by block (zfp's fixed-accuracy mode).
      return std::make_shared<ZfpxAccuracyCodec>(e_tol);
    case CodecFamily::kSzq:
      return std::make_shared<SzqCodec>(e_tol);
    case CodecFamily::kLossless:
      return std::make_shared<ByteplaneRleCodec>();
  }
  LFFT_ASSERT(false);
  return nullptr;
}

CodecPtr plan_codec_for_rate(double rate, CodecFamily family) {
  LFFT_REQUIRE(rate >= 1.0 && std::isfinite(rate),
               "compression rate must be >= 1");
  switch (family) {
    case CodecFamily::kTruncation: {
      if (rate <= 1.0) return std::make_shared<IdentityCodec>();
      // Widest mantissa with 64 / (12 + m) >= rate.
      const double bits = 64.0 / rate;
      LFFT_REQUIRE(bits >= 12.0,
                   "truncation cannot exceed rate 64/12 (mantissa floor)");
      const int m = static_cast<int>(std::floor(bits)) - 12;
      if (m >= 52) return std::make_shared<IdentityCodec>();
      // Prefer hardware casts when they hit the rate exactly.
      if (m == 20) return std::make_shared<CastFp32Codec>();
      if (m == 4) return std::make_shared<CastFp16Codec>();
      return std::make_shared<BitTrimCodec>(m);
    }
    case CodecFamily::kZfpx: {
      const int bpv = static_cast<int>(std::floor(64.0 / rate));
      LFFT_REQUIRE(bpv >= 2, "zfpx rate cannot exceed 32");
      return std::make_shared<Zfpx1dCodec>(bpv);
    }
    case CodecFamily::kSzq:
    case CodecFamily::kLossless:
      LFFT_REQUIRE(false,
                   "rate planning requires a fixed-rate family "
                   "(truncation or zfpx)");
  }
  LFFT_ASSERT(false);
  return nullptr;
}

}  // namespace lossyfft
