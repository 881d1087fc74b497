// Reshape: redistribute a field from one box decomposition to another —
// the generalized all-to-all at the heart of the 3-D FFT (Fig. 1), and the
// operation the paper compresses.
//
// Planning is local: every rank derives the full source and destination box
// lists from the decomposition functions, intersects them, and packs the
// overlaps. Execution is one path — pack, one osc::ExchangePlan exchange,
// unpack — whose plan drives one of two transports:
//   kPairwise — the classical two-sided pairwise exchange (minimpi
//               pairwise all-to-all raw, or the plan's codec-fused
//               rendezvous);
//   kOsc      — the paper's one-sided ring with pipelined compression
//               (Algorithm 3).
//
// The element type E is any trivially-copyable cell: complex<double> for
// the c2c transform, double for the real stage of the r2c transform, and
// the float variants for the FP32 reference runs. The plan moves raw bytes
// of any element size; codecs apply only to double-based elements (the
// wire views them as a stream of doubles).
#pragma once

#include <complex>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "compress/codec.hpp"
#include "dfft/box.hpp"
#include "minimpi/comm.hpp"
#include "osc/exchange_plan.hpp"
#include "osc/osc_alltoall.hpp"
#include "tuner/signature.hpp"

namespace lossyfft {

/// Values are pinned: the C API and the serve wire carry them as numbers
/// (1 was the retired linear two-sided baseline).
enum class ExchangeBackend { kPairwise = 0, kOsc = 2 };

const char* to_string(ExchangeBackend b);

struct ReshapeOptions {
  ExchangeBackend backend = ExchangeBackend::kPairwise;
  /// Wire codec. Only meaningful for double-based fields; nullptr
  /// exchanges raw bytes. (The FP32 reference run computes *and*
  /// communicates in float with no codec, as in Section VI-B.)
  CodecPtr codec;
  int osc_chunks = 8;
  int gpus_per_node = 6;
  /// Per-round synchronization of the one-sided plan. kAuto routes plan
  /// construction through the model-guided tuner (src/tuner/): rank 0
  /// resolves the exchange signature against its calibrated cost model
  /// (or the LOSSYFFT_TUNE_CACHE persistent cache) and broadcasts the
  /// decision — sync mode, one-/two-sided path, worker fan-out and
  /// parity — so all ranks build the identical plan. Results are
  /// byte-identical to any fixed configuration; only speed changes.
  osc::OscSync osc_sync = osc::OscSync::kFence;
  /// Pack elision: when every nonzero sub-volume this rank sends occupies
  /// one contiguous run of its source field (subvolume_contiguous), the
  /// pack stage is a pure identity copy — skip it. Send displacements
  /// become field-linear offsets, the exchange reads straight out of `in`,
  /// and sendbuf_ is never allocated. The decision is rank-local (every
  /// exchange layer addresses send data through (displacement, count)
  /// subspans; peers only ever learn counts), and results are byte-
  /// identical to the packed path. false forces packing (A/B benches).
  bool pack_elision = true;
  /// Codec/pack worker shards: 1 = serial (default), 0 = the process-wide
  /// pool's full concurrency, k > 1 = fan out to k shards. Pack and unpack
  /// shard their sub-volume copies; the codec is wrapped in a
  /// ParallelCodec that shards each chunk's encode and decode (the
  /// exchange plan itself stays on the rank thread). Parallelism is an
  /// execution detail: packed bytes, wire bytes, and results are bitwise
  /// identical at every setting. The pool itself is created once
  /// per process and sized by LOSSYFFT_WORKERS (default: hardware
  /// concurrency); this knob only says how much of it a reshape uses.
  int workers = 1;
  /// Batch capacity (>= 1): how many same-layout fields one
  /// execute_batch() call may exchange per synchronization epoch. Staging
  /// buffers and (for planned paths) the exchange window are sized for
  /// `batch` consecutive field banks, so a batch of k fields pays the
  /// fence / PSCW handshake cost once instead of k times. 1 (default)
  /// keeps the single-field footprint.
  int batch = 1;
  /// Coded-exchange parity chunks per message group (OscOptions::parity):
  /// m > 0 makes the planned exchange ship m erasure-coded parity frames
  /// alongside each round's data so targets reconstruct up to m missing /
  /// late / corrupt arrivals. Zero-fault coded runs are byte-identical to
  /// uncoded. The coded wire frames doubles, so fields whose per-peer
  /// byte counts are not multiples of 8 (odd float counts) reject it.
  /// Under kAuto the tuner's parity pick overrides a 0 here.
  int exchange_parity = 0;
  /// Deterministic fault-injection plan threaded into the planned
  /// exchange's transport (tests; OscOptions::fault_plan). Must outlive
  /// the Reshape. Installing a plan forces the coded framed wire even at
  /// exchange_parity == 0.
  const minimpi::FaultPlan* fault_plan = nullptr;
};

template <typename E>
inline constexpr bool kReshapeDoubleBased =
    std::is_same_v<E, double> || std::is_same_v<E, std::complex<double>>;

template <typename E>
class Reshape {
 public:
  static_assert(std::is_trivially_copyable_v<E>);

  /// Redistribute from `all_in[r]` to `all_out[r]` over `comm`
  /// (r = comm rank). Box lists must cover disjointly; this rank's boxes
  /// are all_in[comm.rank()] / all_out[comm.rank()].
  ///
  /// The constructor builds the persistent osc::ExchangePlan (cached
  /// window + hoisted offset exchange + pinned codec staging), which makes
  /// construction and destruction *collective*: every rank must create
  /// and destroy its Reshapes in the same order, which Fft3d's symmetric
  /// plan setup already does.
  Reshape(minimpi::Comm& comm, std::vector<Box3> all_in,
          std::vector<Box3> all_out, ReshapeOptions options);

  const Box3& inbox() const { return all_in_[static_cast<std::size_t>(rank_)]; }
  const Box3& outbox() const {
    return all_out_[static_cast<std::size_t>(rank_)];
  }

  /// Execute: `in` holds inbox().count() elements, `out` receives
  /// outbox().count(). Collective.
  void execute(std::span<const E> in, std::span<E> out) {
    execute_batch(in, out, 1);
  }

  /// Redistribute `fields` same-layout fields
  /// (1 <= fields <= options.batch) in one exchange epoch. `in` holds
  /// `fields` consecutive inbox().count()-element images; `out` receives
  /// the matching outbox().count()-element images. Every field is packed
  /// into its staging bank, the plan exchanges all banks under a single
  /// fence / PSCW handshake sequence, and all banks unpack —
  /// synchronization cost is per batch, not per field. Results are
  /// identical to `fields` back-to-back execute() calls. Collective.
  void execute_batch(std::span<const E> in, std::span<E> out, int fields);

  /// Exchange statistics accumulated over all execute() calls on this rank.
  const osc::ExchangeStats& stats() const { return stats_; }

  /// Accumulated per-source arrival lag from the underlying plan
  /// (ExchangePlan::source_lag_seconds).
  std::span<const double> source_lag_seconds() const {
    return plan_->source_lag_seconds();
  }

  /// Resident bytes of this reshape's staging buffers plus its plan's
  /// pinned footprint — the per-reshape cost a byte-budgeted plan cache
  /// charges.
  std::uint64_t footprint_bytes() const {
    return (sendbuf_.capacity() + recvbuf_.capacity()) * sizeof(E) +
           plan_->footprint_bytes();
  }

  /// The tuner decision applied at construction when osc_sync was kAuto;
  /// empty for a fixed configuration.
  const std::optional<tuner::TuneDecision>& tuned_decision() const {
    return tuned_;
  }

  /// True when this rank's pack stage elided (sends go straight from the
  /// source field; sendbuf_ was never allocated).
  bool pack_elided() const { return pack_elided_; }

 private:
  minimpi::Comm& comm_;
  int rank_;
  std::vector<Box3> all_in_;
  std::vector<Box3> all_out_;
  ReshapeOptions options_;

  // Precomputed overlap metadata (counts/displs in elements), hoisted here
  // so execute allocates nothing in steady state. The plan scales the
  // counts to its own wire units once, at construction.
  std::vector<Box3> send_boxes_, recv_boxes_;
  std::vector<std::uint64_t> send_counts_, send_displs_;
  std::vector<std::uint64_t> recv_counts_, recv_displs_;
  std::uint64_t send_total_ = 0, recv_total_ = 0;

  /// Pack/unpack fan-outs: the resolved worker count clamped by the
  /// bytes-per-shard floor (WorkerPool::effective_shards) against this
  /// plan's staging totals, so small reshapes stay serial where fan-out
  /// overhead dominates.
  int pack_shards_ = 1, unpack_shards_ = 1;
  /// Resolved at construction: every send sub-volume is contiguous in the
  /// source field, so execute skips packing and exchanges out of `in`
  /// via field-linear send displacements (sendbuf_ stays unallocated).
  bool pack_elided_ = false;
  /// The tuner's broadcast decision when osc_sync was kAuto (overrides
  /// backend / sync / workers / parity at plan construction).
  std::optional<tuner::TuneDecision> tuned_;

  std::vector<E> sendbuf_, recvbuf_;
  /// The persistent exchange plan. Pins recvbuf_ (`batch` field banks),
  /// and in raw one-sided mode exposes it as the RMA window — declared
  /// after recvbuf_ so the window dies first.
  std::unique_ptr<osc::ExchangePlan> plan_;
  osc::ExchangeStats stats_;
};

extern template class Reshape<float>;
extern template class Reshape<double>;
extern template class Reshape<std::complex<float>>;
extern template class Reshape<std::complex<double>>;

}  // namespace lossyfft
