// The traced run's instrumented copy of the Fft3d pipelines.
//
// TracedFft rebuilds the pencil and slab pipelines of dfft/fft3d.cpp from
// public calls only — split_brick / split_pencil / proc_grid2_for for the
// boxes, Reshape built from Fft3dOptions::reshape_options(), and
// Fft1d::transform_strided for the 1-D stages — and records one Span per
// call. Before every Reshape::execute it places a barrier of its own, so
// the time a rank waits for its peers is measured apart from the exchange
// work. Its output must equal Fft3d's bit for bit on the same input; the
// benchmark checks that on every traced run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dfft/fft3d.hpp"
#include "inputs.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kRoundtrip,    // One forward+backward (recorded by the caller).
  kReshapeWait,  // Barrier before a Reshape::execute.
  kReshape,      // Reshape::execute.
  kFft,          // One 1-D FFT stage: transform_strided over its lines.
  kEncode,       // Codec::compress replayed on a reshape payload.
  kDecode,       // Codec::decompress replayed on the same payload.
};

const char* to_string(SpanKind k);

struct Span {
  SpanKind kind = SpanKind::kRoundtrip;
  std::uint8_t stage = 0;  // Reshape index, FFT dimension, or payload index.
  int rank = 0;
  std::uint32_t roundtrip = 0;  // Parent roundtrip id.
  std::int64_t t0_ns = 0, t1_ns = 0;
  /// kFft: lines transformed; kEncode/kDecode: payload bytes.
  std::uint64_t work = 0;
  /// kFft: line length; kEncode: compressed bytes.
  std::uint64_t aux = 0;

  double ms() const { return static_cast<double>(t1_ns - t0_ns) * 1e-6; }
};

/// Per-rank in-memory span recorder, read out when the run ends.
class Tracer {
 public:
  Tracer(int rank, std::size_t reserve) : rank_(rank) {
    spans_.reserve(reserve);
  }

  static std::int64_t now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void add(SpanKind kind, int stage, std::int64_t t0, std::int64_t t1,
           std::uint64_t work = 0, std::uint64_t aux = 0) {
    spans_.push_back(Span{kind, static_cast<std::uint8_t>(stage), rank_,
                          roundtrip, t0, t1, work, aux});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Id stamped on every span added until it changes.
  std::uint32_t roundtrip = 0;

 private:
  int rank_;
  std::vector<Span> spans_;
};

class TracedFft {
 public:
  /// Collective (builds the reshapes). `opt.algorithm` must be kPencil or
  /// kSlab, with the default brick input/output decomposition.
  TracedFft(lossyfft::minimpi::Comm& comm, Grid n,
            const lossyfft::Fft3dOptions& opt);

  /// Same contract as Fft3d::forward / backward with Scaling::kBackward.
  void forward(std::span<const cd> in, std::span<cd> out, Tracer& t);
  void backward(std::span<const cd> in, std::span<cd> out, Tracer& t);

  std::size_t local_count() const {
    return static_cast<std::size_t>(brick_.count());
  }
  int reshape_count() const { return slab_ ? 3 : 4; }
  /// Reshapes of this rank whose pack stage elided.
  int pack_elided() const;
  /// Summed ExchangeStats of this rank's reshapes.
  lossyfft::osc::ExchangeStats stats() const;

  /// When set, the input of every reshape call is appended here (the
  /// payloads the codec replay re-encodes outside the reshape spans).
  std::vector<std::vector<cd>>* capture = nullptr;

 private:
  void run(std::span<const cd> in, std::span<cd> out,
           lossyfft::FftDirection dir, Tracer& t);
  void reshape(int i, std::span<const cd> in, std::span<cd> out, Tracer& t);
  void fft(int dim, const lossyfft::Box3& box, cd* data,
           lossyfft::FftDirection dir, Tracer& t);

  lossyfft::minimpi::Comm& comm_;
  bool slab_;
  lossyfft::Box3 brick_;
  std::array<lossyfft::Box3, 3> stage_box_;  // Slab: [0] z-slab, [2] x-slab.
  std::array<std::unique_ptr<lossyfft::Reshape<cd>>, 4> reshape_;
  std::array<std::unique_ptr<lossyfft::Fft1d<double>>, 3> fft_;
  std::vector<cd> work_a_, work_b_;
};

}  // namespace perfbench
