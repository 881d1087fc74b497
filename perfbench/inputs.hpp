// Seeded input fields for the benchmark. The library only ever sees the
// generated arrays; every field is a full global grid in x-fastest layout
// (index = x + nx*(y + ny*z)), and ranks cut their boxes out of it.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <vector>

#include "dfft/box.hpp"

namespace perfbench {

using cd = std::complex<double>;
using Grid = std::array<int, 3>;

enum class InputKind {
  /// I.i.d. uniform real and imaginary parts in [-1, 1): zero mean, flat
  /// spectrum (the paper's random-data evaluation).
  kWhiteNoise,
  /// A nonzero mean plus a few low-wavenumber Fourier modes with
  /// seed-drawn amplitudes and phases, scaled to unit RMS: band-limited
  /// and smooth, so transform codecs (zfpx) find structure to exploit.
  kSmooth,
};

const char* to_string(InputKind k);

/// The global field for `seed`; the same (kind, n, seed) always gives the
/// same bytes.
std::vector<cd> make_field(InputKind kind, Grid n, std::uint64_t seed);

/// Copy box `b` of the global field out into a box-local x-fastest array.
std::vector<cd> cut_box(const std::vector<cd>& global, Grid n,
                        const lossyfft::Box3& b);

/// Write a box-local array into its place in the global field.
void paste_box(const std::vector<cd>& local, Grid n, const lossyfft::Box3& b,
               std::vector<cd>& global);

}  // namespace perfbench
