// Kernel body of the lane-batched Stockham FFT (plan data in stockham.hpp).
// One source, compiled once per SIMD tier: stockham_scalar.cpp builds it
// for the baseline ISA and stockham_avx2.cpp with -mavx2. Both TUs use
// -ffp-contract=off and neither enables FMA, so every lane of every tier
// runs the same IEEE adds, subtracts and multiplies in the same order.
// Everything here has internal linkage: the per-tier builds must never be
// merged by the linker.
//
// A block of up to kLanes lines is staged as [element][lane] with split
// real and imaginary vectors (Cv). Each Stockham pass then works on whole
// vectors, so the arithmetic is SIMD across lines whatever the radix or
// pass shape. The inverse runs as swap(F(swap(x))) / n, where swap
// exchanges real and imaginary parts; the swaps and the 1/n are folded
// into the staging load and store, so the passes are forward-only.
#pragma once

#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstring>
#include <utility>

#include "fft/stockham.hpp"

namespace lossyfft::fft_detail {
namespace {

template <typename T>
struct Vec;

template <>
struct Vec<double> {
  typedef double type __attribute__((vector_size(32)));
  static type splat(double s) { return type{s, s, s, s}; }
  // Split [r0 i0 r1 i1] [r2 i2 r3 i3] into real and imaginary lanes.
  static type even(type lo, type hi) {
    return __builtin_shufflevector(lo, hi, 0, 2, 4, 6);
  }
  static type odd(type lo, type hi) {
    return __builtin_shufflevector(lo, hi, 1, 3, 5, 7);
  }
  // Interleave real and imaginary lanes back into complex order.
  static type zip_lo(type re, type im) {
    return __builtin_shufflevector(re, im, 0, 4, 1, 5);
  }
  static type zip_hi(type re, type im) {
    return __builtin_shufflevector(re, im, 2, 6, 3, 7);
  }
};

template <>
struct Vec<float> {
  typedef float type __attribute__((vector_size(32)));
  static type splat(float s) { return type{s, s, s, s, s, s, s, s}; }
  static type even(type lo, type hi) {
    return __builtin_shufflevector(lo, hi, 0, 2, 4, 6, 8, 10, 12, 14);
  }
  static type odd(type lo, type hi) {
    return __builtin_shufflevector(lo, hi, 1, 3, 5, 7, 9, 11, 13, 15);
  }
  static type zip_lo(type re, type im) {
    return __builtin_shufflevector(re, im, 0, 8, 1, 9, 2, 10, 3, 11);
  }
  static type zip_hi(type re, type im) {
    return __builtin_shufflevector(re, im, 4, 12, 5, 13, 6, 14, 7, 15);
  }
};

/// kLanes<T> complex values, one per line.
template <typename T>
struct Cv {
  typename Vec<T>::type re, im;
};

template <typename T>
inline Cv<T> operator+(Cv<T> a, Cv<T> b) {
  return {a.re + b.re, a.im + b.im};
}

template <typename T>
inline Cv<T> operator-(Cv<T> a, Cv<T> b) {
  return {a.re - b.re, a.im - b.im};
}

/// a * (wr + i*wi) for a broadcast scalar.
template <typename T>
inline Cv<T> mul(Cv<T> a, T wr, T wi) {
  const auto vr = Vec<T>::splat(wr);
  const auto vi = Vec<T>::splat(wi);
  return {a.re * vr - a.im * vi, a.re * vi + a.im * vr};
}

/// -i * a.
template <typename T>
inline Cv<T> mul_neg_i(Cv<T> a) {
  return {a.im, -a.re};
}

/// a * c for a real broadcast scalar.
template <typename T>
inline Cv<T> scale(Cv<T> a, T c) {
  const auto v = Vec<T>::splat(c);
  return {a.re * v, a.im * v};
}

// cos and sin of 2*pi*q/R for q = 1..(R-1)/2.
constexpr double kCos3[] = {-0.5};
constexpr double kSin3[] = {0.8660254037844386};
constexpr double kCos5[] = {0.30901699437494745, -0.8090169943749473};
constexpr double kSin5[] = {0.9510565162951535, 0.5877852522924732};
constexpr double kCos7[] = {0.6234898018587336, -0.22252093395631434,
                            -0.900968867902419};
constexpr double kSin7[] = {0.7818314824680298, 0.9749279121818236,
                            0.43388373911755823};

/// In-place forward DFT of R values: a[p] = sum_q a[q] * w_R^{q*p}.
template <int R, typename T>
inline void butterfly(Cv<T>* a) {
  if constexpr (R == 2) {
    const Cv<T> t = a[0];
    a[0] = t + a[1];
    a[1] = t - a[1];
  } else if constexpr (R == 4) {
    const Cv<T> t0 = a[0] + a[2], t1 = a[0] - a[2];
    const Cv<T> t2 = a[1] + a[3], t3 = mul_neg_i(a[1] - a[3]);
    a[0] = t0 + t2;
    a[1] = t1 + t3;
    a[2] = t0 - t2;
    a[3] = t1 - t3;
  } else {
    // Odd R in {3, 5, 7}: pair q with R-q. With b_k = a_k + a_{R-k} and
    // d_k = a_k - a_{R-k}, y_p = t_p - i*u_p and y_{R-p} = t_p + i*u_p,
    // t_p = a_0 + sum_k cos(2*pi*k*p/R) b_k, u_p = sum_k sin(...) d_k.
    static_assert(R == 3 || R == 5 || R == 7);
    constexpr int H = (R - 1) / 2;
    constexpr const double* kCos = R == 3 ? kCos3 : R == 5 ? kCos5 : kCos7;
    constexpr const double* kSin = R == 3 ? kSin3 : R == 5 ? kSin5 : kSin7;
    Cv<T> b[H], d[H];
    Cv<T> y0 = a[0];
#pragma GCC unroll 4
    for (int k = 1; k <= H; ++k) {
      b[k - 1] = a[k] + a[R - k];
      d[k - 1] = a[k] - a[R - k];
      y0 = y0 + b[k - 1];
    }
    // cos and sin of 2*pi*q/R for any q in [1, R).
    const auto cos_q = [&](int q) {
      return static_cast<T>(q <= H ? kCos[q - 1] : kCos[R - q - 1]);
    };
    const auto sin_q = [&](int q) {
      return static_cast<T>(q <= H ? kSin[q - 1] : -kSin[R - q - 1]);
    };
    Cv<T> y[R];
#pragma GCC unroll 4
    for (int p = 1; p <= H; ++p) {
      Cv<T> t = a[0] + scale(b[0], cos_q(p));
      Cv<T> u = scale(d[0], sin_q(p));
#pragma GCC unroll 4
      for (int k = 2; k <= H; ++k) {
        t = t + scale(b[k - 1], cos_q(k * p % R));
        u = u + scale(d[k - 1], sin_q(k * p % R));
      }
      y[p] = {t.re + u.im, t.im - u.re};
      y[R - p] = {t.re - u.im, t.im + u.re};
    }
    a[0] = y0;
#pragma GCC unroll 8
    for (int p = 1; p < R; ++p) a[p] = y[p];
  }
}

/// Butterflies of one pass for group j; kTwiddle is false only for j == 0,
/// whose twiddles are all 1.
template <int R, bool kTwiddle, typename T>
inline void pass_group(const StockhamPass& ps, const T* twr, const T* twi,
                       std::size_t j, const Cv<T>* x, Cv<T>* y) {
  const std::size_t m = ps.m, lm = ps.l * ps.m;
  const Cv<T>* xj = x + m * j;
  Cv<T>* yj = y + m * R * j;
  const T* wr = twr + ps.tw + j * (R - 1);  // w^{j*p} at [p - 1].
  const T* wi = twi + ps.tw + j * (R - 1);
  for (std::size_t k = 0; k < m; ++k) {
    Cv<T> a[R];
#pragma GCC unroll 8
    for (int q = 0; q < R; ++q) a[q] = xj[q * lm + k];
    butterfly<R>(a);
    yj[k] = a[0];
#pragma GCC unroll 8
    for (int p = 1; p < R; ++p) {
      yj[p * m + k] = kTwiddle ? mul(a[p], wr[p - 1], wi[p - 1]) : a[p];
    }
  }
}

template <int R, typename T>
void pass(const StockhamPass& ps, const T* twr, const T* twi, const Cv<T>* x,
          Cv<T>* y) {
  pass_group<R, false>(ps, twr, twi, 0, x, y);
  for (std::size_t j = 1; j < ps.l; ++j) {
    pass_group<R, true>(ps, twr, twi, j, x, y);
  }
}

/// Forward transform of plan.len staged elements, ping-ponging between x
/// and y; returns whichever holds the result.
template <typename T>
Cv<T>* stockham(const LanePlan<T>& plan, Cv<T>* x, Cv<T>* y) {
  const T* twr = plan.tw_re.data();
  const T* twi = plan.tw_im.data();
  for (const StockhamPass& ps : plan.passes) {
    switch (ps.radix) {
      case 2: pass<2>(ps, twr, twi, x, y); break;
      case 3: pass<3>(ps, twr, twi, x, y); break;
      case 4: pass<4>(ps, twr, twi, x, y); break;
      case 5: pass<5>(ps, twr, twi, x, y); break;
      case 7: pass<7>(ps, twr, twi, x, y); break;
      default: __builtin_unreachable();
    }
    std::swap(x, y);
  }
  return x;
}

/// Stage `cnt` lines (line b at data + b*bs, elements `stride` apart) as
/// lanes of x[0, n), exchanging real and imaginary parts when `swap`.
/// Lanes past cnt are zeroed.
template <typename T>
void load(const std::complex<T>* data, std::ptrdiff_t stride, std::size_t cnt,
          std::ptrdiff_t bs, std::size_t n, bool swap, Cv<T>* x) {
  using V = typename Vec<T>::type;
  constexpr std::size_t L = kLanes<T>;
  if (bs == 1 && cnt == L) {
    // Adjacent lines: element i of the block is L contiguous values.
    for (std::size_t i = 0; i < n; ++i) {
      const T* src = reinterpret_cast<const T*>(
          data + static_cast<std::ptrdiff_t>(i) * stride);
      V lo, hi;
      std::memcpy(&lo, src, sizeof(V));
      std::memcpy(&hi, src + L, sizeof(V));
      const V re = Vec<T>::even(lo, hi), im = Vec<T>::odd(lo, hi);
      x[i] = swap ? Cv<T>{im, re} : Cv<T>{re, im};
    }
    return;
  }
  for (std::size_t b = 0; b < L; ++b) {
    if (b >= cnt) {
      for (std::size_t i = 0; i < n; ++i) x[i].re[b] = x[i].im[b] = T(0);
      continue;
    }
    const T* src =
        reinterpret_cast<const T*>(data + static_cast<std::ptrdiff_t>(b) * bs);
    for (std::size_t i = 0; i < n; ++i) {
      const T* v = src + 2 * static_cast<std::ptrdiff_t>(i) * stride;
      x[i].re[b] = v[swap ? 1 : 0];
      x[i].im[b] = v[swap ? 0 : 1];
    }
  }
}

/// Inverse of load() for the first `cnt` lanes, scaling by `s` first when
/// `swap` (the inverse direction).
template <typename T>
void store(Cv<T>* x, std::complex<T>* data, std::ptrdiff_t stride,
           std::size_t cnt, std::ptrdiff_t bs, std::size_t n, bool swap,
           T s) {
  using V = typename Vec<T>::type;
  constexpr std::size_t L = kLanes<T>;
  if (swap) {
    for (std::size_t i = 0; i < n; ++i) {
      const Cv<T> v = scale(x[i], s);
      x[i] = {v.im, v.re};
    }
  }
  if (bs == 1 && cnt == L) {
    for (std::size_t i = 0; i < n; ++i) {
      T* dst = reinterpret_cast<T*>(data + static_cast<std::ptrdiff_t>(i) *
                                               stride);
      const V lo = Vec<T>::zip_lo(x[i].re, x[i].im);
      const V hi = Vec<T>::zip_hi(x[i].re, x[i].im);
      std::memcpy(dst, &lo, sizeof(V));
      std::memcpy(dst + L, &hi, sizeof(V));
    }
    return;
  }
  for (std::size_t b = 0; b < cnt; ++b) {
    T* dst = reinterpret_cast<T*>(data + static_cast<std::ptrdiff_t>(b) * bs);
    for (std::size_t i = 0; i < n; ++i) {
      T* v = dst + 2 * static_cast<std::ptrdiff_t>(i) * stride;
      v[0] = x[i].re[b];
      v[1] = x[i].im[b];
    }
  }
}

/// Bluestein's chirp-z on a staged block of n < plan.len elements in x:
/// F(x)_k = c_k * IFFT(FFT(x .* c) .* filt)_k with c the chirp. The inner
/// inverse is swap(F(swap(.))), its 1/len folded into filt.
template <typename T>
Cv<T>* bluestein(const LanePlan<T>& plan, Cv<T>* x, Cv<T>* y) {
  const T* cr = plan.chirp_re.data();
  const T* ci = plan.chirp_im.data();
  for (std::size_t k = 0; k < plan.n; ++k) x[k] = mul(x[k], cr[k], ci[k]);
  for (std::size_t k = plan.n; k < plan.len; ++k) x[k] = Cv<T>{};
  Cv<T>* r = stockham(plan, x, y);
  for (std::size_t k = 0; k < plan.len; ++k) {
    const Cv<T> v = mul(r[k], plan.filt_re[k], plan.filt_im[k]);
    r[k] = {v.im, v.re};
  }
  r = stockham(plan, r, r == x ? y : x);
  for (std::size_t k = 0; k < plan.n; ++k) {
    r[k] = mul(Cv<T>{r[k].im, r[k].re}, cr[k], ci[k]);
  }
  return r;
}

template <typename T>
void run_lines(const LanePlan<T>& plan, std::complex<T>* data,
               std::ptrdiff_t stride, std::size_t batch,
               std::ptrdiff_t batch_stride, bool inverse, T* work) {
  constexpr std::size_t L = kLanes<T>;
  const auto addr = reinterpret_cast<std::uintptr_t>(work);
  Cv<T>* x = reinterpret_cast<Cv<T>*>((addr + 31) & ~std::uintptr_t{31});
  Cv<T>* y = x + plan.len;
  const T inv_n = T(1) / static_cast<T>(plan.n);
  for (std::size_t b0 = 0; b0 < batch; b0 += L) {
    const std::size_t cnt = std::min(L, batch - b0);
    std::complex<T>* base = data + static_cast<std::ptrdiff_t>(b0) *
                                       batch_stride;
    load(base, stride, cnt, batch_stride, plan.n, inverse, x);
    Cv<T>* r = plan.bluestein() ? bluestein(plan, x, y) : stockham(plan, x, y);
    store(r, base, stride, cnt, batch_stride, plan.n, inverse, inv_n);
  }
}

}  // namespace
}  // namespace lossyfft::fft_detail
