#include "inputs.hpp"

#include <cmath>
#include <numbers>

#include "common/rng.hpp"

namespace perfbench {

const char* to_string(InputKind k) {
  return k == InputKind::kWhiteNoise ? "white-noise" : "smooth-bandlimited";
}

namespace {

// Smooth field: mean + sum of kModes plane waves with |k_d| <= kMaxWave.
constexpr int kModes = 12;
constexpr int kMaxWave = 3;

std::vector<cd> smooth_field(Grid n, lossyfft::Xoshiro256& rng) {
  const double two_pi = 2.0 * std::numbers::pi;
  const cd mean{rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)};
  struct Mode {
    std::array<int, 3> k;
    cd amp;
  };
  std::vector<Mode> modes(kModes);
  for (Mode& m : modes) {
    for (int& kd : m.k) {
      kd = static_cast<int>(rng.below(2 * kMaxWave + 1)) - kMaxWave;
    }
    const double a = rng.uniform(0.05, 0.5);
    const double phase = rng.uniform(0.0, two_pi);
    m.amp = std::polar(a, phase);
  }
  // Separable evaluation: per mode, one phase table per dimension.
  std::vector<cd> out(static_cast<std::size_t>(n[0]) * n[1] * n[2], mean);
  std::array<std::vector<cd>, 3> tab;
  for (const Mode& m : modes) {
    for (int d = 0; d < 3; ++d) {
      tab[d].resize(static_cast<std::size_t>(n[d]));
      for (int i = 0; i < n[d]; ++i) {
        tab[d][i] = std::polar(1.0, two_pi * m.k[d] * i / n[d]);
      }
    }
    std::size_t idx = 0;
    for (int z = 0; z < n[2]; ++z) {
      for (int y = 0; y < n[1]; ++y) {
        const cd yz = m.amp * tab[1][y] * tab[2][z];
        for (int x = 0; x < n[0]; ++x) out[idx++] += yz * tab[0][x];
      }
    }
  }
  // Unit RMS: zfpx's tolerance is absolute, so a fixed scale keeps the
  // roundtrip error comparable from seed to seed.
  double ss = 0.0;
  for (const cd& v : out) ss += std::norm(v);
  const double scale = 1.0 / std::sqrt(ss / static_cast<double>(out.size()));
  for (cd& v : out) v *= scale;
  return out;
}

}  // namespace

std::vector<cd> make_field(InputKind kind, Grid n, std::uint64_t seed) {
  lossyfft::Xoshiro256 rng(seed);
  if (kind == InputKind::kSmooth) return smooth_field(n, rng);
  std::vector<cd> out(static_cast<std::size_t>(n[0]) * n[1] * n[2]);
  lossyfft::fill_uniform_complex(rng, out);
  return out;
}

std::vector<cd> cut_box(const std::vector<cd>& global, Grid n,
                        const lossyfft::Box3& b) {
  std::vector<cd> local(static_cast<std::size_t>(b.count()));
  std::size_t i = 0;
  for (int z = b.lo[2]; z < b.hi(2); ++z) {
    for (int y = b.lo[1]; y < b.hi(1); ++y) {
      const std::size_t row =
          static_cast<std::size_t>(b.lo[0]) +
          static_cast<std::size_t>(n[0]) *
              (static_cast<std::size_t>(y) +
               static_cast<std::size_t>(n[1]) * static_cast<std::size_t>(z));
      for (int x = 0; x < b.size[0]; ++x) local[i++] = global[row + x];
    }
  }
  return local;
}

void paste_box(const std::vector<cd>& local, Grid n, const lossyfft::Box3& b,
               std::vector<cd>& global) {
  std::size_t i = 0;
  for (int z = b.lo[2]; z < b.hi(2); ++z) {
    for (int y = b.lo[1]; y < b.hi(1); ++y) {
      const std::size_t row =
          static_cast<std::size_t>(b.lo[0]) +
          static_cast<std::size_t>(n[0]) *
              (static_cast<std::size_t>(y) +
               static_cast<std::size_t>(n[1]) * static_cast<std::size_t>(z));
      for (int x = 0; x < b.size[0]; ++x) global[row + x] = local[i++];
    }
  }
}

}  // namespace perfbench
