#include "traced.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "dfft/decomp.hpp"

namespace perfbench {

using lossyfft::Box3;
using lossyfft::FftAlgorithm;
using lossyfft::FftDirection;

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kRoundtrip: return "roundtrip";
    case SpanKind::kReshapeWait: return "reshape.wait";
    case SpanKind::kReshape: return "reshape.execute";
    case SpanKind::kFft: return "fft.transform_strided";
    case SpanKind::kEncode: return "codec.compress";
    case SpanKind::kDecode: return "codec.decompress";
  }
  return "?";
}

TracedFft::TracedFft(lossyfft::minimpi::Comm& comm, Grid n,
                     const lossyfft::Fft3dOptions& opt)
    : comm_(comm), slab_(opt.algorithm == FftAlgorithm::kSlab) {
  LFFT_REQUIRE(opt.algorithm == FftAlgorithm::kSlab ||
                   opt.algorithm == FftAlgorithm::kPencil,
               "perfbench: traced pipeline needs a fixed algorithm");
  const int p = comm.size();
  const auto me = static_cast<std::size_t>(comm.rank());
  const auto bricks =
      lossyfft::split_brick(n, lossyfft::proc_grid3_for(p, n));
  brick_ = bricks[me];
  const auto ropts = opt.reshape_options();
  for (int d = 0; d < 3; ++d) {
    fft_[d] = std::make_unique<lossyfft::Fft1d<double>>(
        static_cast<std::size_t>(n[d]));
  }
  const auto make = [&](const std::vector<Box3>& from,
                        const std::vector<Box3>& to) {
    return std::make_unique<lossyfft::Reshape<cd>>(comm, from, to, ropts);
  };
  if (slab_) {
    const auto zslabs = lossyfft::split_brick(n, {1, 1, p});
    const auto xslabs = lossyfft::split_brick(n, {p, 1, 1});
    stage_box_ = {zslabs[me], Box3{}, xslabs[me]};
    reshape_[0] = make(bricks, zslabs);
    reshape_[1] = make(zslabs, xslabs);
    reshape_[2] = make(xslabs, bricks);
    work_a_.resize(static_cast<std::size_t>(zslabs[me].count()));
    work_b_.resize(static_cast<std::size_t>(xslabs[me].count()));
    return;
  }
  std::array<std::vector<Box3>, 3> pencils;
  for (int dir = 0; dir < 3; ++dir) {
    std::array<int, 2> grid = opt.pencil_grid;
    if (grid[0] < 1 || grid[1] < 1) {
      const int d1 = dir == 0 ? 1 : 0;
      const int d2 = dir == 2 ? 1 : 2;
      grid = lossyfft::proc_grid2_for(p, n[d1], n[d2]);
    }
    pencils[dir] = lossyfft::split_pencil(n, dir, grid);
    stage_box_[dir] = pencils[dir][me];
  }
  reshape_[0] = make(bricks, pencils[0]);
  reshape_[1] = make(pencils[0], pencils[1]);
  reshape_[2] = make(pencils[1], pencils[2]);
  reshape_[3] = make(pencils[2], bricks);
  work_a_.resize(static_cast<std::size_t>(
      std::max(stage_box_[0].count(), stage_box_[2].count())));
  work_b_.resize(static_cast<std::size_t>(stage_box_[1].count()));
}

void TracedFft::forward(std::span<const cd> in, std::span<cd> out,
                        Tracer& t) {
  run(in, out, FftDirection::kForward, t);
}

void TracedFft::backward(std::span<const cd> in, std::span<cd> out,
                         Tracer& t) {
  run(in, out, FftDirection::kInverse, t);
}

int TracedFft::pack_elided() const {
  int k = 0;
  for (const auto& r : reshape_) k += r && r->pack_elided() ? 1 : 0;
  return k;
}

lossyfft::osc::ExchangeStats TracedFft::stats() const {
  lossyfft::osc::ExchangeStats s;
  for (const auto& r : reshape_) {
    if (r) s.accumulate(r->stats());
  }
  return s;
}

void TracedFft::reshape(int i, std::span<const cd> in, std::span<cd> out,
                        Tracer& t) {
  if (capture != nullptr) capture->emplace_back(in.begin(), in.end());
  const std::int64_t w0 = Tracer::now();
  comm_.barrier();
  const std::int64_t t0 = Tracer::now();
  reshape_[i]->execute(in, out);
  const std::int64_t t1 = Tracer::now();
  t.add(SpanKind::kReshapeWait, i, w0, t0);
  t.add(SpanKind::kReshape, i, t0, t1);
}

void TracedFft::fft(int dim, const Box3& box, cd* data, FftDirection dir,
                    Tracer& t) {
  if (box.empty()) return;
  const auto sx = static_cast<std::size_t>(box.size[0]);
  const auto sy = static_cast<std::size_t>(box.size[1]);
  const auto sz = static_cast<std::size_t>(box.size[2]);
  const lossyfft::Fft1d<double>& plan = *fft_[dim];
  const std::int64_t t0 = Tracer::now();
  std::size_t lines = 0;
  switch (dim) {
    case 0:  // Contiguous rows, one per (y, z).
      lines = sy * sz;
      plan.transform_strided(data, 1, lines, static_cast<std::ptrdiff_t>(sx),
                             dir);
      break;
    case 1:  // Stride sx inside each z-plane, one line per x.
      lines = sx * sz;
      for (std::size_t z = 0; z < sz; ++z) {
        plan.transform_strided(data + z * sx * sy,
                               static_cast<std::ptrdiff_t>(sx), sx, 1, dir);
      }
      break;
    default:  // Stride sx*sy, one line per (x, y).
      lines = sx * sy;
      plan.transform_strided(data, static_cast<std::ptrdiff_t>(sx * sy),
                             lines, 1, dir);
      break;
  }
  t.add(SpanKind::kFft, dim, t0, Tracer::now(), lines, plan.size());
}

void TracedFft::run(std::span<const cd> in, std::span<cd> out,
                    FftDirection dir, Tracer& t) {
  const auto span_of = [](std::vector<cd>& w, const Box3& b) {
    return std::span<cd>(w.data(), static_cast<std::size_t>(b.count()));
  };
  if (slab_) {
    const Box3& zs = stage_box_[0];
    const Box3& xs = stage_box_[2];
    reshape(0, in, span_of(work_a_, zs), t);
    fft(0, zs, work_a_.data(), dir, t);
    fft(1, zs, work_a_.data(), dir, t);
    reshape(1, span_of(work_a_, zs), span_of(work_b_, xs), t);
    fft(2, xs, work_b_.data(), dir, t);
    reshape(2, span_of(work_b_, xs), out, t);
    return;
  }
  reshape(0, in, span_of(work_a_, stage_box_[0]), t);
  fft(0, stage_box_[0], work_a_.data(), dir, t);
  reshape(1, span_of(work_a_, stage_box_[0]), span_of(work_b_, stage_box_[1]),
          t);
  fft(1, stage_box_[1], work_b_.data(), dir, t);
  reshape(2, span_of(work_b_, stage_box_[1]), span_of(work_a_, stage_box_[2]),
          t);
  fft(2, stage_box_[2], work_a_.data(), dir, t);
  reshape(3, span_of(work_a_, stage_box_[2]), out, t);
}

}  // namespace perfbench
