#include "dfft/reshape.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/worker_pool.hpp"
#include "compress/parallel_codec.hpp"
#include "dfft/decomp.hpp"
#include "tuner/tuner.hpp"

namespace lossyfft {

namespace {

// Copy the sub-volume `sub` of `box`-owned data between the box-local
// buffer and a contiguous staging area (x-fastest within `sub`). Two
// const-correct directions instead of one template over a cast.
template <typename E>
std::size_t subvolume_row_base(const Box3& box, const Box3& sub, int y,
                               int z) {
  return static_cast<std::size_t>(sub.lo[0] - box.lo[0]) +
         static_cast<std::size_t>(box.size[0]) *
             (static_cast<std::size_t>(y - box.lo[1]) +
              static_cast<std::size_t>(box.size[1]) *
                  static_cast<std::size_t>(z - box.lo[2]));
}

template <typename E>
void pack_subvolume(const Box3& box, const Box3& sub, const E* box_data,
                    E* staged) {
  const std::size_t row = static_cast<std::size_t>(sub.size[0]);
  std::size_t s = 0;
  for (int z = sub.lo[2]; z < sub.hi(2); ++z) {
    for (int y = sub.lo[1]; y < sub.hi(1); ++y) {
      std::memcpy(staged + s,
                  box_data + subvolume_row_base<E>(box, sub, y, z),
                  row * sizeof(E));
      s += row;
    }
  }
}

template <typename E>
void unpack_subvolume(const Box3& box, const Box3& sub, E* box_data,
                      const E* staged) {
  const std::size_t row = static_cast<std::size_t>(sub.size[0]);
  std::size_t s = 0;
  for (int z = sub.lo[2]; z < sub.hi(2); ++z) {
    for (int y = sub.lo[1]; y < sub.hi(1); ++y) {
      std::memcpy(box_data + subvolume_row_base<E>(box, sub, y, z),
                  staged + s, row * sizeof(E));
      s += row;
    }
  }
}

int resolve_workers(int requested) {
  if (requested == 0) return WorkerPool::global().concurrency();
  return requested > 1 ? requested : 1;
}

}  // namespace

const char* to_string(ExchangeBackend b) {
  switch (b) {
    case ExchangeBackend::kPairwise: return "pairwise";
    case ExchangeBackend::kOsc: return "osc";
  }
  return "?";
}

template <typename E>
Reshape<E>::Reshape(minimpi::Comm& comm, std::vector<Box3> all_in,
                    std::vector<Box3> all_out, ReshapeOptions options)
    : comm_(comm), rank_(comm.rank()), all_in_(std::move(all_in)),
      all_out_(std::move(all_out)), options_(options) {
  const auto p = static_cast<std::size_t>(comm.size());
  LFFT_REQUIRE(all_in_.size() == p && all_out_.size() == p,
               "reshape: box lists must have comm.size() entries");
  if constexpr (!kReshapeDoubleBased<E>) {
    LFFT_REQUIRE(options_.codec == nullptr,
                 "reshape: codecs only apply to double-based fields");
  }
  LFFT_REQUIRE(options_.batch >= 1, "reshape: batch capacity must be >= 1");

  send_boxes_.resize(p);
  recv_boxes_.resize(p);
  send_counts_.resize(p);
  send_displs_.resize(p);
  recv_counts_.resize(p);
  recv_displs_.resize(p);

  const Box3& my_in = all_in_[static_cast<std::size_t>(rank_)];
  const Box3& my_out = all_out_[static_cast<std::size_t>(rank_)];
  for (std::size_t r = 0; r < p; ++r) {
    send_boxes_[r] = Box3::intersect(my_in, all_out_[r]);
    recv_boxes_[r] = Box3::intersect(all_in_[r], my_out);
    send_counts_[r] = static_cast<std::uint64_t>(send_boxes_[r].count());
    recv_counts_[r] = static_cast<std::uint64_t>(recv_boxes_[r].count());
    send_displs_[r] = send_total_;
    recv_displs_[r] = recv_total_;
    send_total_ += send_counts_[r];
    recv_total_ += recv_counts_[r];
  }
  LFFT_REQUIRE(send_total_ == static_cast<std::uint64_t>(my_in.count()),
               "reshape: output boxes do not tile this rank's inbox");
  LFFT_REQUIRE(recv_total_ == static_cast<std::uint64_t>(my_out.count()),
               "reshape: input boxes do not tile this rank's outbox");
  if (options_.osc_sync == osc::OscSync::kAuto) {
    // Model-guided configuration. Rank 0 resolves the signature through
    // the tuner (memo -> persistent cache -> calibrate + cost model) and
    // broadcasts the POD decision: calibration is timing-based and would
    // diverge across ranks, and plan construction is collective, so all
    // ranks must apply one rank's answer.
    tuner::ExchangeSignature sig;
    sig.p = static_cast<int>(p);
    sig.gpn = options_.gpus_per_node > 0 ? options_.gpus_per_node : 1;
    std::uint64_t largest = 0;
    for (std::size_t r = 0; r < p; ++r) {
      if (static_cast<int>(r) != rank_) {
        largest = std::max(largest, send_counts_[r]);
      }
    }
    sig.pair_bytes = largest * sizeof(E);
    sig.codec = options_.codec;
    tuner::TuneDecision d;
    if (rank_ == 0) d = tuner::Tuner::global().decide(sig);
    comm_.bcast(std::span<tuner::TuneDecision>(&d, 1), 0);
    options_.osc_sync = d.sync();
    options_.workers = d.workers;
    // The tuner's parity pick only fills in an unset knob: an explicit
    // exchange_parity is the caller's resilience requirement. The coded
    // wire frames doubles, so elements narrower than 8 bytes stay uncoded.
    if (options_.exchange_parity == 0 && sizeof(E) % sizeof(double) == 0) {
      options_.exchange_parity = d.parity;
    }
    tuned_ = d;
  }
  const int workers = resolve_workers(options_.workers);
  // Pack elision: when every nonzero sub-volume this rank sends occupies
  // one contiguous run of the source field, packing is an identity copy.
  // Rewrite the send displacements to field-linear element offsets and
  // exchange straight out of `in` — the plan addresses send data
  // exclusively through (displacement, count) subspans and peers only
  // learn counts, so the decision is rank-local and results are
  // byte-identical.
  pack_elided_ = options_.pack_elision;
  for (std::size_t r = 0; r < p && pack_elided_; ++r) {
    if (send_counts_[r] > 0 &&
        !subvolume_contiguous(my_in, send_boxes_[r])) {
      pack_elided_ = false;
    }
  }
  if (pack_elided_) {
    for (std::size_t r = 0; r < p; ++r) {
      send_displs_[r] =
          send_counts_[r] > 0
              ? static_cast<std::uint64_t>(subvolume_row_base<E>(
                    my_in, send_boxes_[r], send_boxes_[r].lo[1],
                    send_boxes_[r].lo[2]))
              : 0;
    }
  }
  // Batched plans stage every field bank at once (the plan pins the whole
  // recv span and the window replicates per field).
  const auto banks = static_cast<std::size_t>(options_.batch);
  if (!pack_elided_) sendbuf_.resize(send_total_ * banks);
  recvbuf_.resize(recv_total_ * banks);
  // Pack/unpack fan-outs clamp against the staging volume: below the
  // bytes-per-shard floor the memcpy loops run serially on the rank
  // thread (submit/steal overhead beats the copies there).
  pack_shards_ =
      pack_elided_
          ? 1
          : WorkerPool::effective_shards(
                options_.workers,
                static_cast<std::size_t>(send_total_) * sizeof(E));
  unpack_shards_ = WorkerPool::effective_shards(
      options_.workers, static_cast<std::size_t>(recv_total_) * sizeof(E));

  // Persistent plan: window + slot offsets + codec staging set up once
  // here (collectively), so execute is pure data movement.
  osc::OscOptions oo;
  oo.codec = options_.codec;
  if (oo.codec && workers > 1) {
    // The only way codec work reaches the pool: shardable codecs split
    // each chunk across it (the plan itself compresses, puts and decodes
    // in order on this rank thread); the rest fall through to serial
    // inside the decorator. Either way the wire bytes match the serial
    // encoder exactly.
    oo.codec = std::make_shared<const ParallelCodec>(
        oo.codec, &WorkerPool::global(), workers);
  }
  oo.chunks = options_.osc_chunks;
  oo.gpus_per_node = options_.gpus_per_node;
  oo.sync = options_.osc_sync;
  oo.batch = options_.batch;
  oo.parity = options_.exchange_parity;
  oo.fault_plan = options_.fault_plan;
  const osc::PlanBackend backend =
      tuned_ ? tuned_->plan_backend()
             : (options_.backend == ExchangeBackend::kOsc
                    ? osc::PlanBackend::kOneSided
                    : osc::PlanBackend::kTwoSided);
  plan_ = std::make_unique<osc::ExchangePlan>(
      comm_, backend, sizeof(E), send_counts_, send_displs_, recv_counts_,
      recv_displs_, std::as_writable_bytes(std::span<E>(recvbuf_)), oo);
}

template <typename E>
void Reshape<E>::execute_batch(std::span<const E> in, std::span<E> out,
                               int fields) {
  LFFT_REQUIRE(fields >= 1 && fields <= options_.batch,
               "reshape: execute_batch fields must be in [1, options.batch]");
  const Box3& my_in = all_in_[static_cast<std::size_t>(rank_)];
  const Box3& my_out = all_out_[static_cast<std::size_t>(rank_)];
  const auto nf = static_cast<std::size_t>(fields);
  const auto in_ext = static_cast<std::size_t>(my_in.count());
  const auto out_ext = static_cast<std::size_t>(my_out.count());
  LFFT_REQUIRE(in.size() == nf * in_ext,
               "reshape: input must hold `fields` field images");
  LFFT_REQUIRE(out.size() == nf * out_ext,
               "reshape: output must hold `fields` field images");
  const Stopwatch watch;
  const auto p = send_boxes_.size();

  // Pack every field into its staging bank; (field, destination) items
  // write disjoint slices, so the whole batch fans out at once. An elided
  // pack skips this wholesale: the field banks in `in` already have the
  // bank stride (in_ext == send_total_) and the field-linear displacements
  // the exchange addresses with.
  if (!pack_elided_) {
    const auto pack_item = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) {
        const std::size_t f = k / p;
        const std::size_t r = k % p;
        if (send_counts_[r] == 0) continue;
        pack_subvolume(my_in, send_boxes_[r], in.data() + f * in_ext,
                       sendbuf_.data() + f * send_total_ + send_displs_[r]);
      }
    };
    if (pack_shards_ > 1) {
      WorkerPool::global().parallel_for(nf * p, 1, pack_item, pack_shards_);
    } else {
      pack_item(0, nf * p);
    }
  }

  // One exchange: all field banks travel under a single fence / PSCW
  // handshake sequence.
  const std::span<const E> send =
      pack_elided_ ? in : std::span<const E>(sendbuf_.data(), nf * send_total_);
  stats_.accumulate(plan_->execute_batch(
      std::as_bytes(send),
      std::as_writable_bytes(std::span<E>(recvbuf_.data(), nf * recv_total_)),
      fields));

  // Unpack: (field, source) items read disjoint staging slices and write
  // disjoint sub-volumes of `out`.
  const auto unpack_item = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t f = k / p;
      const std::size_t r = k % p;
      if (recv_counts_[r] == 0) continue;
      unpack_subvolume(my_out, recv_boxes_[r], out.data() + f * out_ext,
                       recvbuf_.data() + f * recv_total_ + recv_displs_[r]);
    }
  };
  if (unpack_shards_ > 1) {
    WorkerPool::global().parallel_for(nf * p, 1, unpack_item, unpack_shards_);
  } else {
    unpack_item(0, nf * p);
  }
  stats_.seconds += watch.seconds();
}

template class Reshape<float>;
template class Reshape<double>;
template class Reshape<std::complex<float>>;
template class Reshape<std::complex<double>>;

}  // namespace lossyfft
