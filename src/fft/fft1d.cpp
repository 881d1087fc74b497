#include "fft/fft1d.hpp"

#include <cmath>
#include <type_traits>

#include "common/cpu_dispatch.hpp"
#include "common/error.hpp"
#include "fft/stockham.hpp"

namespace lossyfft {

bool is_smooth_7(std::size_t n) {
  if (n == 0) return false;
  for (std::size_t p : {std::size_t{2}, std::size_t{3}, std::size_t{5},
                        std::size_t{7}}) {
    while (n % p == 0) n /= p;
  }
  return n == 1;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

// Pass radices for a 7-smooth n: radix-4 while it divides, one radix-2 for
// an odd power of two, then 3, 5 and 7. (Radix-8 passes measured no
// faster on the BM_Fft1dStridedZ row.)
std::vector<int> stockham_radices(std::size_t n) {
  std::vector<int> radices;
  for (int r : {4, 2, 3, 5, 7}) {
    for (const auto ur = static_cast<std::size_t>(r); n % ur == 0; n /= ur) {
      radices.push_back(r);
    }
  }
  LFFT_ASSERT(n == 1);
  return radices;
}

// Stockham passes and per-pass twiddles for a 7-smooth `len`.
template <typename T>
void plan_passes(fft_detail::LanePlan<T>& plan, std::size_t len) {
  plan.len = len;
  std::size_t m = 1;
  for (int r : stockham_radices(len)) {
    const auto ur = static_cast<std::size_t>(r);
    fft_detail::StockhamPass ps;
    ps.radix = r;
    ps.m = m;
    ps.l = len / (m * ur);
    ps.tw = plan.tw_re.size();
    const std::size_t span = ur * ps.l;  // w_{r*l}.
    for (std::size_t j = 0; j < ps.l; ++j) {
      for (std::size_t p = 1; p < ur; ++p) {
        const double ang = -2.0 * M_PI * static_cast<double>(j * p % span) /
                           static_cast<double>(span);
        plan.tw_re.push_back(static_cast<T>(std::cos(ang)));
        plan.tw_im.push_back(static_cast<T>(std::sin(ang)));
      }
    }
    plan.passes.push_back(ps);
    m *= ur;
  }
}

// The kernel build for the active SIMD tier. AVX-512 hosts run the AVX2
// build: the lane count is fixed, and every tier gives the same bits.
template <typename T>
fft_detail::LineKernel<T> line_kernel() {
  const fft_detail::LineKernels k = simd_level() == SimdLevel::kScalar
                                        ? fft_detail::scalar_line_kernels()
                                        : fft_detail::avx2_line_kernels();
  if constexpr (std::is_same_v<T, float>) {
    return k.f32;
  } else {
    return k.f64;
  }
}

}  // namespace

template <typename T>
struct Fft1d<T>::Impl {
  using Complex = std::complex<T>;
  using Workspace = typename Fft1d<T>::Workspace;

  fft_detail::LanePlan<T> plan;

  // Workspace for the non-workspace entry points; the plan is immutable
  // after construction, so this is the only per-plan mutable state (and
  // why those entry points are not thread-safe).
  mutable Workspace own_ws;

  explicit Impl(std::size_t n) {
    LFFT_REQUIRE(n >= 1, "FFT size must be >= 1");
    if (is_smooth_7(n)) {
      plan_passes(plan, n);
      plan.n = n;
    } else {
      init_bluestein(n);
    }
    ensure(own_ws);
  }

  // Bluestein's chirp-z over a power-of-two Stockham length m >= 2n - 1.
  void init_bluestein(std::size_t n) {
    const std::size_t m = next_pow2(2 * n - 1);
    plan_passes(plan, m);
    std::vector<T> chirp_re(n), chirp_im(n);
    std::vector<Complex> b(m, Complex{});
    for (std::size_t k = 0; k < n; ++k) {
      // Angle pi*k^2/n, with k^2 reduced mod 2n to keep the argument small
      // (k^2 overflows precision long before it overflows uint64 here).
      const std::size_t k2 = (k * k) % (2 * n);
      const double ang = M_PI * static_cast<double>(k2) /
                         static_cast<double>(n);
      chirp_re[k] = static_cast<T>(std::cos(ang));
      chirp_im[k] = static_cast<T>(-std::sin(ang));
      const Complex c(chirp_re[k], -chirp_im[k]);
      b[k] = c;
      if (k != 0) b[m - k] = c;  // Circular symmetry of the chirp filter.
    }
    // FFT of the filter through the plain length-m plan (no chirp yet).
    plan.n = m;
    std::vector<T> work(plan.work_size());
    line_kernel<T>()(plan, b.data(), 1, 1, 0, false, work.data());
    // Fold the inner inverse's 1/m (exact: m is a power of two).
    const T inv_m = T(1) / static_cast<T>(m);
    plan.filt_re.resize(m);
    plan.filt_im.resize(m);
    for (std::size_t k = 0; k < m; ++k) {
      plan.filt_re[k] = b[k].real() * inv_m;
      plan.filt_im[k] = b[k].imag() * inv_m;
    }
    plan.chirp_re = std::move(chirp_re);
    plan.chirp_im = std::move(chirp_im);
    plan.n = n;
  }

  /// Size `ws` for this plan. Idempotent and cheap once sized, so every
  /// entry point can call it; workspaces never shrink.
  void ensure(Workspace& ws) const {
    if (ws.lanes.size() < plan.work_size()) ws.lanes.resize(plan.work_size());
  }

  void run(Complex* data, std::ptrdiff_t stride, std::size_t batch,
           std::ptrdiff_t batch_stride, FftDirection dir,
           Workspace& ws) const {
    LFFT_REQUIRE(data != nullptr, "null data");
    ensure(ws);
    line_kernel<T>()(plan, data, stride, batch, batch_stride,
                     dir == FftDirection::kInverse, ws.lanes.data());
  }
};

template <typename T>
Fft1d<T>::Fft1d(std::size_t n) : n_(n), impl_(std::make_unique<Impl>(n)) {}

template <typename T>
Fft1d<T>::~Fft1d() = default;

template <typename T>
Fft1d<T>::Fft1d(Fft1d&&) noexcept = default;

template <typename T>
Fft1d<T>& Fft1d<T>::operator=(Fft1d&&) noexcept = default;

template <typename T>
typename Fft1d<T>::Workspace Fft1d<T>::make_workspace() const {
  Workspace ws;
  impl_->ensure(ws);
  return ws;
}

template <typename T>
void Fft1d<T>::transform(Complex* data, FftDirection dir) const {
  transform(data, dir, impl_->own_ws);
}

template <typename T>
void Fft1d<T>::transform(Complex* data, FftDirection dir,
                         Workspace& ws) const {
  impl_->run(data, 1, 1, 0, dir, ws);
}

template <typename T>
void Fft1d<T>::transform_strided(Complex* data, std::ptrdiff_t stride,
                                 std::size_t batch,
                                 std::ptrdiff_t batch_stride,
                                 FftDirection dir) const {
  transform_strided(data, stride, batch, batch_stride, dir, impl_->own_ws);
}

template <typename T>
void Fft1d<T>::transform_strided(Complex* data, std::ptrdiff_t stride,
                                 std::size_t batch,
                                 std::ptrdiff_t batch_stride, FftDirection dir,
                                 Workspace& ws) const {
  impl_->run(data, stride, batch, batch_stride, dir, ws);
}

template <typename T>
std::vector<std::complex<T>> naive_dft(const std::vector<std::complex<T>>& x,
                                       FftDirection dir) {
  const std::size_t n = x.size();
  std::vector<std::complex<T>> out(n);
  const double sign = dir == FftDirection::kForward ? -1.0 : 1.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * M_PI *
                         static_cast<double>((k * j) % n) /
                         static_cast<double>(n);
      acc += std::complex<double>(x[j].real(), x[j].imag()) *
             std::complex<double>(std::cos(ang), std::sin(ang));
    }
    if (dir == FftDirection::kInverse) acc /= static_cast<double>(n);
    out[k] = {static_cast<T>(acc.real()), static_cast<T>(acc.imag())};
  }
  return out;
}

template class Fft1d<float>;
template class Fft1d<double>;
template std::vector<std::complex<float>> naive_dft<float>(
    const std::vector<std::complex<float>>&, FftDirection);
template std::vector<std::complex<double>> naive_dft<double>(
    const std::vector<std::complex<double>>&, FftDirection);

}  // namespace lossyfft
