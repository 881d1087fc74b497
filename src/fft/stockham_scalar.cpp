// Baseline-ISA build of the lane-batched Stockham kernel: the reference
// tier, always available.
#include "fft/stockham_lanes.hpp"

namespace lossyfft::fft_detail {

LineKernels scalar_line_kernels() {
  return {&run_lines<float>, &run_lines<double>};
}

}  // namespace lossyfft::fft_detail
