#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "common/cpu_dispatch.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/fft1d.hpp"

namespace lossyfft {
namespace {

using C = std::complex<double>;

template <typename T>
double rel_err(const std::vector<std::complex<T>>& a,
               const std::vector<std::complex<T>>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += std::norm(std::complex<double>(a[i]) - std::complex<double>(b[i]));
    den += std::norm(std::complex<double>(b[i]));
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

std::vector<C> random_signal(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<C> x(n);
  fill_uniform_complex(rng, x);
  return x;
}

TEST(FftUtil, SmoothnessCheck) {
  EXPECT_TRUE(is_smooth_7(1));
  EXPECT_TRUE(is_smooth_7(8));
  EXPECT_TRUE(is_smooth_7(360));   // 2^3*3^2*5.
  EXPECT_TRUE(is_smooth_7(2401));  // 7^4.
  EXPECT_FALSE(is_smooth_7(11));
  EXPECT_FALSE(is_smooth_7(0));
  EXPECT_FALSE(is_smooth_7(2 * 13));
}

TEST(FftUtil, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft1d, SizeOneIsIdentity) {
  Fft1d<double> plan(1);
  std::vector<C> x = {{3.0, -4.0}};
  plan.transform(x.data(), FftDirection::kForward);
  EXPECT_EQ(x[0], C(3.0, -4.0));
}

TEST(Fft1d, KnownDftOfImpulse) {
  Fft1d<double> plan(8);
  std::vector<C> x(8, C{});
  x[0] = 1.0;
  plan.transform(x.data(), FftDirection::kForward);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-14);
    EXPECT_NEAR(v.imag(), 0.0, 1e-14);
  }
}

TEST(Fft1d, KnownDftOfSingleTone) {
  const std::size_t n = 16;
  Fft1d<double> plan(n);
  std::vector<C> x(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double ang = 2.0 * M_PI * 3.0 * static_cast<double>(j) / n;
    x[j] = {std::cos(ang), std::sin(ang)};  // e^{+2pi i 3 j / n}.
  }
  plan.transform(x.data(), FftDirection::kForward);
  for (std::size_t k = 0; k < n; ++k) {
    const double want = k == 3 ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(x[k].real(), want, 1e-12) << k;
    EXPECT_NEAR(x[k].imag(), 0.0, 1e-12) << k;
  }
}

TEST(Fft1d, LinearityHolds) {
  const std::size_t n = 60;
  Fft1d<double> plan(n);
  auto x = random_signal(n, 1), y = random_signal(n, 2);
  std::vector<C> lhs(n), fx = x, fy = y;
  const C alpha(0.7, -0.3), beta(-1.1, 0.2);
  for (std::size_t i = 0; i < n; ++i) lhs[i] = alpha * x[i] + beta * y[i];
  plan.transform(lhs.data(), FftDirection::kForward);
  plan.transform(fx.data(), FftDirection::kForward);
  plan.transform(fy.data(), FftDirection::kForward);
  std::vector<C> rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = alpha * fx[i] + beta * fy[i];
  EXPECT_LT(rel_err(lhs, rhs), 1e-13);
}

TEST(Fft1d, ParsevalEnergyConserved) {
  const std::size_t n = 120;
  Fft1d<double> plan(n);
  auto x = random_signal(n, 3);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  plan.transform(x.data(), FftDirection::kForward);
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-12 * time_energy);
}

// Property sweep: FFT must match the naive DFT for every size, including
// primes (Bluestein), prime powers, and mixed products.
class FftSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeSweep, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Fft1d<double> plan(n);
  auto x = random_signal(n, 100 + n);
  const auto want = naive_dft(x, FftDirection::kForward);
  plan.transform(x.data(), FftDirection::kForward);
  EXPECT_LT(rel_err(x, want), 1e-11) << "n=" << n;
}

TEST_P(FftSizeSweep, InverseRoundTrip) {
  const std::size_t n = GetParam();
  Fft1d<double> plan(n);
  const auto orig = random_signal(n, 200 + n);
  auto x = orig;
  plan.transform(x.data(), FftDirection::kForward);
  plan.transform(x.data(), FftDirection::kInverse);
  EXPECT_LT(rel_err(x, orig), 1e-12) << "n=" << n;
}

// Every n in 1..512 (Stockham for the 7-smooth sizes, Bluestein for the
// rest), plus larger smooth and power-of-two sizes.
std::vector<std::size_t> sweep_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 512; ++n) sizes.push_back(n);
  for (std::size_t n : {1000, 1680, 2048, 3072, 4096}) sizes.push_back(n);
  return sizes;
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeSweep,
                         ::testing::ValuesIn(sweep_sizes()));

TEST(Fft1d, FloatMatchesNaiveDft) {
  for (std::size_t n : {1, 2, 7, 11, 48, 64, 100, 192, 257, 1000}) {
    Fft1d<float> plan(n);
    Xoshiro256 rng(300 + n);
    std::vector<std::complex<float>> x(n);
    for (auto& v : x) {
      v = {static_cast<float>(rng.uniform(-1, 1)),
           static_cast<float>(rng.uniform(-1, 1))};
    }
    const auto want = naive_dft(x, FftDirection::kForward);
    auto back = x;
    plan.transform(x.data(), FftDirection::kForward);
    EXPECT_LT(rel_err(x, want), 1e-5) << "n=" << n;
    plan.transform(x.data(), FftDirection::kInverse);
    EXPECT_LT(rel_err(x, back), 1e-5) << "n=" << n;
  }
}

TEST(Fft1d, LargeSmoothSizeAccuracy) {
  const std::size_t n = 3 * 5 * 7 * 16;  // 1680.
  Fft1d<double> plan(n);
  const auto orig = random_signal(n, 77);
  auto x = orig;
  plan.transform(x.data(), FftDirection::kForward);
  plan.transform(x.data(), FftDirection::kInverse);
  EXPECT_LT(rel_err(x, orig), 1e-13);
}

TEST(Fft1d, FloatPrecisionRoundTrip) {
  const std::size_t n = 192;
  Fft1d<float> plan(n);
  Xoshiro256 rng(5);
  std::vector<std::complex<float>> x(n), orig(n);
  for (auto& v : x) {
    v = {static_cast<float>(rng.uniform(-1, 1)),
         static_cast<float>(rng.uniform(-1, 1))};
  }
  orig = x;
  plan.transform(x.data(), FftDirection::kForward);
  plan.transform(x.data(), FftDirection::kInverse);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < n; ++i) {
    num += std::norm(std::complex<double>(x[i]) - std::complex<double>(orig[i]));
    den += std::norm(std::complex<double>(orig[i]));
  }
  const double err = std::sqrt(num / den);
  // Single precision: expect ~1e-7 scale error, far above double's.
  EXPECT_LT(err, 1e-5);
  EXPECT_GT(err, 1e-9);
}

TEST(Fft1d, StridedTransformEqualsContiguous) {
  const std::size_t n = 48, stride = 5;
  Fft1d<double> plan(n);
  auto reference = random_signal(n, 9);
  std::vector<C> strided(n * stride, C(99.0, 99.0));
  for (std::size_t i = 0; i < n; ++i) strided[i * stride] = reference[i];

  plan.transform(reference.data(), FftDirection::kForward);
  plan.transform_strided(strided.data(), static_cast<std::ptrdiff_t>(stride),
                         1, 0, FftDirection::kForward);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(strided[i * stride] - reference[i]), 1e-12);
  }
  // Untouched gaps stay untouched.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t g = 1; g < stride; ++g) {
      EXPECT_EQ(strided[i * stride + g], C(99.0, 99.0));
    }
  }
}

TEST(Fft1d, BatchedTransformMatchesLoop) {
  const std::size_t n = 36, batch = 7;
  Fft1d<double> plan(n);
  auto data = random_signal(n * batch, 10);
  auto expect = data;
  for (std::size_t b = 0; b < batch; ++b) {
    plan.transform(expect.data() + b * n, FftDirection::kForward);
  }
  plan.transform_strided(data.data(), 1, batch,
                         static_cast<std::ptrdiff_t>(n),
                         FftDirection::kForward);
  EXPECT_LT(rel_err(data, expect), 1e-14);
}

TEST(Fft1d, NaiveDftInverseAgrees) {
  const std::size_t n = 24;
  const auto x = random_signal(n, 12);
  const auto f = naive_dft(x, FftDirection::kForward);
  const auto back = naive_dft(f, FftDirection::kInverse);
  EXPECT_LT(rel_err(back, x), 1e-12);
}

TEST(Fft1d, RejectsZeroSize) {
  EXPECT_THROW(Fft1d<double>(0), Error);
}

TEST(Fft1d, MoveTransfersPlan) {
  Fft1d<double> a(32);
  Fft1d<double> b = std::move(a);
  auto x = random_signal(32, 3);
  const auto want = naive_dft(x, FftDirection::kForward);
  b.transform(x.data(), FftDirection::kForward);
  EXPECT_LT(rel_err(x, want), 1e-12);
}

// Fill `x` with uniform values in [-1, 1) (gaps between lines included).
template <typename T>
void fill_random(std::vector<std::complex<T>>& x, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (auto& v : x) {
    v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }
}

template <typename T>
bool same_bits(const std::vector<std::complex<T>>& a,
               const std::vector<std::complex<T>>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

// Each line of one transform_strided call must be bitwise the line run
// alone through transform(), and elements between lines stay untouched.
// Batches 1..17 cover partial and multiple lane blocks at both lane counts
// (4 doubles, 8 floats). "Separate" lines follow one another (the x pencil
// stage); "adjacent" lines are neighbours in memory, batch_stride 1 (the y
// and z stages).
template <typename T>
void expect_batch_invariant(std::size_t n) {
  using Cx = std::complex<T>;
  Fft1d<T> plan(n);
  std::vector<Cx> line(n);
  for (const FftDirection dir :
       {FftDirection::kForward, FftDirection::kInverse}) {
    for (const std::size_t s : {1, 7, 64}) {
      for (const bool adjacent : {false, true}) {
        for (std::size_t batch = 1; batch <= 17; ++batch) {
          const std::size_t stride = adjacent ? s * batch : s;
          const std::size_t bstride = adjacent ? 1 : s * n;
          std::vector<Cx> data((batch - 1) * bstride + (n - 1) * stride + 1);
          fill_random(data, n * 1000 + batch);
          auto want = data;
          plan.transform_strided(data.data(),
                                 static_cast<std::ptrdiff_t>(stride), batch,
                                 static_cast<std::ptrdiff_t>(bstride), dir);
          for (std::size_t b = 0; b < batch; ++b) {
            for (std::size_t i = 0; i < n; ++i) {
              line[i] = want[b * bstride + i * stride];
            }
            plan.transform(line.data(), dir);
            for (std::size_t i = 0; i < n; ++i) {
              want[b * bstride + i * stride] = line[i];
            }
          }
          EXPECT_TRUE(same_bits(data, want))
              << "n=" << n << " stride=" << stride << " batch=" << batch
              << (adjacent ? " adjacent" : " separate")
              << (dir == FftDirection::kForward ? " forward" : " inverse");
        }
      }
    }
  }
}

TEST(Fft1dBatch, LinesBitIdenticalToSingleTransforms) {
  for (std::size_t n : {1, 2, 11, 48, 60, 64}) {
    expect_batch_invariant<double>(n);
    expect_batch_invariant<float>(n);
  }
}

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(set_simd_level(level)) {}
  ~ScopedSimdLevel() { set_simd_level(prev_); }

 private:
  SimdLevel prev_;
};

// The scalar-tier kernel build and the detected tier's build must agree
// bit for bit, on full and partial lane blocks, in both directions.
template <typename T>
void expect_tiers_identical(std::size_t n) {
  Fft1d<T> plan(n);
  const std::size_t batch = 11;
  for (const FftDirection dir :
       {FftDirection::kForward, FftDirection::kInverse}) {
    std::vector<std::complex<T>> scalar(n * batch);
    fill_random(scalar, n);
    auto detected = scalar;
    {
      ScopedSimdLevel level(SimdLevel::kScalar);
      plan.transform_strided(scalar.data(),
                             static_cast<std::ptrdiff_t>(batch), batch, 1,
                             dir);
    }
    plan.transform_strided(detected.data(),
                           static_cast<std::ptrdiff_t>(batch), batch, 1, dir);
    EXPECT_TRUE(same_bits(scalar, detected))
        << "n=" << n << " tier=" << simd_level_name();
  }
}

TEST(Fft1dSimd, ScalarTierBitIdenticalToDetected) {
  if (detected_simd_level() == SimdLevel::kScalar) {
    GTEST_SKIP() << "no SIMD level available in this build/host";
  }
  for (std::size_t n : {1, 2, 3, 5, 7, 11, 48, 64, 100, 105, 343, 1000}) {
    expect_tiers_identical<double>(n);
    expect_tiers_identical<float>(n);
  }
}

}  // namespace
}  // namespace lossyfft
