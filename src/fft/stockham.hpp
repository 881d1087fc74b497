// Internal to the fft module: the plan data and the dispatched entry points
// of the lane-batched Stockham kernel behind Fft1d (fft1d.cpp builds the
// plan, stockham_lanes.hpp holds the kernel body).
//
// The kernel runs up to kLanes<T> lines at once, one line per lane of a
// 256-bit vector. Each lane executes exactly the scalar operation sequence
// (adds, subtracts and multiplies only, no contraction), so a line's output
// bits never depend on its batch, its lane slot or the SIMD tier.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace lossyfft::fft_detail {

/// Lines per kernel block: 4 doubles or 8 floats.
template <typename T>
inline constexpr std::size_t kLanes = 32 / sizeof(T);

/// One Stockham pass of radix `radix` over a length-len transform:
/// y[m*(radix*j + p) + k] = w_{radix*l}^{j*p} * DFT_radix(x[m*(j + q*l) + k])_p
/// for j < l, k < m, where m is the product of the earlier radices.
struct StockhamPass {
  int radix = 0;
  std::size_t m = 0;
  std::size_t l = 0;
  std::size_t tw = 0;  // Offset of this pass's l * (radix - 1) twiddles.
};

template <typename T>
struct LanePlan {
  std::size_t n = 0;    // Transform length.
  std::size_t len = 0;  // Stockham length: n, or Bluestein's power of two.
  std::vector<StockhamPass> passes;
  std::vector<T> tw_re, tw_im;  // Per pass, [j][p - 1] = w_{radix*l}^{j*p}.
  // Bluestein only (empty for 7-smooth n).
  std::vector<T> chirp_re, chirp_im;  // exp(-i*pi*k^2/n), k < n.
  std::vector<T> filt_re, filt_im;    // FFT of the conj chirp filter / len.

  bool bluestein() const { return !chirp_re.empty(); }

  /// T elements of lane staging one kernel call needs (two ping-pong
  /// buffers of len elements x kLanes lanes x {re, im}, plus alignment
  /// slack).
  std::size_t work_size() const {
    return 4 * len * kLanes<T> + kLanes<T>;
  }
};

/// Transform `batch` lines in place: line b starts at data + b*batch_stride,
/// its elements `stride` apart. The inverse is scaled by 1/n. `work` holds
/// plan.work_size() elements.
template <typename T>
using LineKernel = void (*)(const LanePlan<T>& plan, std::complex<T>* data,
                            std::ptrdiff_t stride, std::size_t batch,
                            std::ptrdiff_t batch_stride, bool inverse,
                            T* work);

struct LineKernels {
  LineKernel<float> f32;
  LineKernel<double> f64;
};

/// Per-tier builds of the one kernel source (stockham_lanes.hpp). The avx2
/// table aliases the scalar one when its TU was built without AVX2.
LineKernels scalar_line_kernels();
LineKernels avx2_line_kernels();

}  // namespace lossyfft::fft_detail
