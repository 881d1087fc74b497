// Sharded execution of batched 1-D FFT stages — the compute-side twin of
// the reshape pack/unpack fan-out. One shared Fft1d plan runs `lines`
// independent pencil-line transforms; shards are contiguous line ranges
// and every shard owns a private Fft1d Workspace, so the plan stays
// read-only. Fft1d's per-line results do not depend on how lines are
// batched, so results are bitwise identical at every shard count.
//
// Internal to dfft (fft3d.cpp / fft3d_r2c.cpp).
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <vector>

#include "common/worker_pool.hpp"
#include "fft/fft1d.hpp"

namespace lossyfft::detail {

/// Where a stage's lines sit: line l starts at
/// data + (l / run) * run_stride + (l % run) * batch_stride, its elements
/// `stride` apart. A run is one uniform transform_strided batch.
struct LineLayout {
  std::size_t lines = 0;
  std::ptrdiff_t stride = 1;
  std::ptrdiff_t batch_stride = 0;
  std::size_t run = 1;
  std::ptrdiff_t run_stride = 0;
};

/// Lines along `axis` of an sx*sy*sz brick stored x-fastest. Along x the
/// rows are contiguous (one per (y, z)); along y and z neighbouring lines
/// are neighbouring x, so their elements load as contiguous lane blocks.
inline LineLayout pencil_lines(int axis, std::size_t sx, std::size_t sy,
                               std::size_t sz) {
  const auto px = static_cast<std::ptrdiff_t>(sx);
  const auto pxy = static_cast<std::ptrdiff_t>(sx * sy);
  switch (axis) {
    case 0: return {sy * sz, 1, px, sy * sz, 0};
    case 1: return {sx * sz, px, 1, sx, pxy};  // Runs of sx per z-plane.
    default: return {sx * sy, pxy, 1, sx * sy, 0};
  }
}

/// Run the `lay.lines` transforms of `plan` over `data`. `shards` is the
/// resolved fan-out (see WorkerPool::effective_shards); <= 1 runs serially
/// on the caller. `ws` caches one workspace per shard, grown on demand and
/// reused across calls so steady-state stages allocate nothing. Lines are
/// pure compute over disjoint elements — safe on pool workers next to rank
/// threads.
template <typename T>
void run_fft_lines(const Fft1d<T>& plan, std::complex<T>* data,
                   const LineLayout& lay, FftDirection dir, int shards,
                   std::vector<typename Fft1d<T>::Workspace>& ws) {
  if (lay.lines == 0) return;
  // Lines [l0, l1) as one transform_strided call per run they touch.
  const auto run_range = [&](std::size_t l0, std::size_t l1,
                             typename Fft1d<T>::Workspace* w) {
    while (l0 < l1) {
      const std::size_t off = l0 % lay.run;
      const std::size_t cnt = std::min(lay.run - off, l1 - l0);
      std::complex<T>* base =
          data +
          static_cast<std::ptrdiff_t>(l0 / lay.run) * lay.run_stride +
          static_cast<std::ptrdiff_t>(off) * lay.batch_stride;
      if (w == nullptr) {
        plan.transform_strided(base, lay.stride, cnt, lay.batch_stride, dir);
      } else {
        plan.transform_strided(base, lay.stride, cnt, lay.batch_stride, dir,
                               *w);
      }
      l0 += cnt;
    }
  };
  const std::size_t nshards = std::min<std::size_t>(
      static_cast<std::size_t>(shards < 1 ? 1 : shards), lay.lines);
  if (nshards <= 1) {
    run_range(0, lay.lines, nullptr);
    return;
  }
  while (ws.size() < nshards) ws.push_back(plan.make_workspace());
  const std::size_t per = (lay.lines + nshards - 1) / nshards;
  WorkerPool::global().parallel_for(
      nshards, 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          const std::size_t l0 = std::min(lay.lines, s * per);
          run_range(l0, std::min(lay.lines, l0 + per), &ws[s]);
        }
      },
      static_cast<int>(nshards));
}

}  // namespace lossyfft::detail
