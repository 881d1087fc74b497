// AVX2 build of the lane-batched Stockham kernel: the same source as the
// scalar tier, compiled with -mavx2 (and without FMA) where the dispatcher
// could ever select it; elsewhere the factory returns the scalar table.
#include "fft/stockham.hpp"

#if defined(LOSSYFFT_SIMD_AVX2)
#include "fft/stockham_lanes.hpp"
#endif

namespace lossyfft::fft_detail {

LineKernels avx2_line_kernels() {
#if defined(LOSSYFFT_SIMD_AVX2)
  return {&run_lines<float>, &run_lines<double>};
#else
  return scalar_line_kernels();
#endif
}

}  // namespace lossyfft::fft_detail
