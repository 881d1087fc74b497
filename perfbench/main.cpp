// perfbench_e2e: the repository's end-to-end benchmark (see README.md in
// this directory for every metric's definition).
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//   perfbench_e2e --smoke
//
// Each workload is a closed loop: one caller issues a forward+backward
// roundtrip and waits for it before issuing the next. The untraced run
// (--trace 0) reports the end-to-end metrics; the traced run (--trace 1)
// replays the workload through the benchmark's own instrumented copy of
// the pipeline (traced.hpp) and reports the per-layer metrics. The last
// stdout line is one JSON object: correct, attempted, failed, metrics.
// Exit status is nonzero when any correctness check fails.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_dispatch.hpp"
#include "common/stopwatch.hpp"
#include "compress/planner.hpp"
#include "dfft/fft3d.hpp"
#include "inputs.hpp"
#include "minimpi/runtime.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "steal.hpp"
#include "traced.hpp"

namespace perfbench {
namespace {

using lossyfft::CodecFamily;
using lossyfft::Fft3d;
using lossyfft::Fft3dOptions;
using lossyfft::FftAlgorithm;
using lossyfft::minimpi::Comm;
using lossyfft::osc::ExchangeStats;
using lossyfft::osc::OscSync;

// ---------------------------------------------------------------- workloads

/// One transform signature: grid, world size, decomposition, sync, codec.
struct Signature {
  Grid n;
  int ranks;
  FftAlgorithm algorithm;
  OscSync sync;
  int family;  // CodecFamily, or -1 for exact (no codec).
  double e_tol;
  InputKind input;
};

struct Workload {
  std::string name;
  std::string why;
  bool served = false;
  /// In-process: the one signature. Served: one entry per client
  /// connection (sessions with equal signatures share a cached plan).
  std::vector<Signature> sigs;
};

constexpr int kFamilyExact = -1;

std::vector<Workload> workloads(bool smoke) {
  const auto g = [smoke](int full, int tiny) {
    return Grid{smoke ? tiny : full, smoke ? tiny : full, smoke ? tiny : full};
  };
  const int trunc = static_cast<int>(CodecFamily::kTruncation);
  const int zfpx = static_cast<int>(CodecFamily::kZfpx);
  const Signature served_trunc{g(32, 8), 2, FftAlgorithm::kPencil,
                               OscSync::kFence, trunc, 1e-6,
                               InputKind::kWhiteNoise};
  const Signature served_exact{smoke ? Grid{10, 8, 6} : Grid{40, 32, 24},
                               2,
                               FftAlgorithm::kPencil,
                               OscSync::kFence,
                               kFamilyExact,
                               1e-6,
                               InputKind::kWhiteNoise};
  return {
      {"pencil64-trunc",
       "paper Algorithm 1+3 path: pencil reshapes, fence exchange and the "
       "fixed-rate bittrim codec next to power-of-two FFTs",
       false,
       {{g(64, 16), 2, FftAlgorithm::kPencil, OscSync::kFence, trunc, 1e-6,
         InputKind::kWhiteNoise}}},
      // Runnable by name and in --smoke, but not listed in BENCHMARK.json:
      // its single rank's time moves with the host's state (README.md).
      {"local48-raw",
       "one rank, no codec: the mixed-radix 1-D FFT is nearly all the work, "
       "so codec and exchange changes should not move it",
       false,
       {{g(48, 12), 1, FftAlgorithm::kPencil, OscSync::kFence, kFamilyExact,
         0.0, InputKind::kWhiteNoise}}},
      {"slab64x32-zfpx-smooth",
       "slab pipeline, per-source PSCW and the variable-rate zfpx codec on a "
       "smooth nonzero-mean field",
       false,
       {{smoke ? Grid{16, 16, 8} : Grid{64, 64, 32}, 2, FftAlgorithm::kSlab,
         OscSync::kPscw, zfpx, 1e-6, InputKind::kSmooth}}},
      {"served-2sig",
       "in-process lossyfftd, 2-rank world, 4 connections over two "
       "signatures: protocol, scheduler and plan-cache hits",
       true,
       {served_trunc, served_trunc, served_exact, served_exact}},
  };
}

/// Every option spelled out: no autotune, no kAuto, serial fan-outs.
Fft3dOptions options_for(const Signature& s) {
  Fft3dOptions o;
  o.backend = lossyfft::ExchangeBackend::kOsc;
  o.codec = s.family == kFamilyExact
                ? nullptr
                : lossyfft::plan_codec(s.e_tol,
                                       static_cast<CodecFamily>(s.family));
  o.osc_chunks = 8;
  o.gpus_per_node = 6;
  o.scaling = lossyfft::Scaling::kBackward;
  o.algorithm = s.algorithm;
  o.pencil_grid = {0, 0};
  o.osc_sync = s.sync;
  o.reshape_workers = 1;
  o.fft_workers = 1;
  o.batch_fields = 1;
  o.autotune = false;
  o.pack_elision = true;
  o.exchange_parity = 0;
  o.fault_plan = nullptr;
  return o;
}

lossyfft::serve::SessionConfig session_config(const Signature& s) {
  lossyfft::serve::SessionConfig c;
  c.n = s.n;
  c.family = s.family;
  c.e_tol = s.e_tol;
  c.backend = static_cast<std::uint8_t>(lossyfft::ExchangeBackend::kOsc);
  c.sync = s.sync == OscSync::kFence ? 0 : 1;
  c.parity = 0;
  c.qos.rate = 0.0;
  c.qos.priority = 3;
  c.qos.max_inflight = 4;
  return c;
}

constexpr int kServedGpusPerNode = 2;

/// The daemon plans through serve::fft_options_for; library-direct
/// comparisons must use the same translation.
Fft3dOptions served_options(const Signature& s) {
  return lossyfft::serve::fft_options_for(session_config(s),
                                          kServedGpusPerNode);
}

/// Roundtrip error bound of the repository's accuracy tests: 20 * e_tol
/// for tolerance-planned codecs (fft3d_test), 1e-13 for exact wires
/// (accuracy_test).
double error_bound(const Signature& s) {
  return s.family == kFamilyExact ? 1e-13 : 20.0 * s.e_tol;
}

std::size_t elems(Grid n) {
  return static_cast<std::size_t>(n[0]) * n[1] * n[2];
}

std::string grid_str(Grid n) {
  return std::to_string(n[0]) + "x" + std::to_string(n[1]) + "x" +
         std::to_string(n[2]);
}

// ----------------------------------------------------------------- helpers

/// Distinct input fields per run; samples cycle through them.
constexpr int kFields = 4;

std::vector<std::vector<cd>> make_fields(const Signature& s,
                                         std::uint64_t seed) {
  std::vector<std::vector<cd>> f;
  for (int k = 0; k < kFields; ++k) {
    f.push_back(make_field(s.input, s.n, seed * 1000003ULL + 17ULL * k + 1));
  }
  return f;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, k == 0 ? 0 : k - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double rel_l2(std::span<const cd> a, std::span<const cd> b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += std::norm(a[i] - b[i]);
    den += std::norm(b[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

bool all_finite(std::span<const cd> v) {
  for (const cd& x : v) {
    if (!std::isfinite(x.real()) || !std::isfinite(x.imag())) return false;
  }
  return true;
}

/// Exact single-rank forward spectrum: the reference every workload's
/// forward output is checked against.
std::vector<cd> reference_spectrum(Grid n, const std::vector<cd>& field) {
  std::vector<cd> spec(elems(n));
  lossyfft::minimpi::run_ranks(1, [&](Comm& comm) {
    Fft3dOptions o;
    o.backend = lossyfft::ExchangeBackend::kOsc;
    o.algorithm = FftAlgorithm::kPencil;
    Fft3d<double> ref(comm, n, o);
    ref.forward(field, spec);
  });
  return spec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --------------------------------------------------------- metric records

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // Human-readable lines.

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

// -------------------------------------------------------- closed loops

/// Per-rank record of one closed loop: sample start/end stamps, plus (on
/// every rank, identical after the allreduce) the sample's error and
/// non-finite count.
struct LoopLog {
  std::vector<std::int64_t> t0, t1;
  std::vector<double> err, nonfinite;
  ExchangeStats before, after;
};

/// Wall time of sample i: first rank's start to slowest rank's end.
std::vector<double> sample_ms(const std::vector<LoopLog>& logs) {
  std::vector<double> ms(logs[0].t0.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::int64_t a = logs[0].t0[i], b = logs[0].t1[i];
    for (const LoopLog& l : logs) {
      a = std::min(a, l.t0[i]);
      b = std::max(b, l.t1[i]);
    }
    ms[i] = static_cast<double>(b - a) * 1e-6;
  }
  return ms;
}

/// Samples the reported quantiles rest on: at least 12 beyond p90.
constexpr std::size_t kMinSamples = 120;
/// Quiet windows (seconds) the reported quantiles rest on, at least.
constexpr std::size_t kMinQuietWindows = 3;

struct LoopSpec {
  double seconds = 1.0;
  int min_samples = 1;
  double max_seconds = 1.0;  // Hard stop even below the minimums.
  int warmup = 2;
  /// When set, also run until kMinSamples samples fell into at least
  /// kMinQuietWindows quiet windows (steal.hpp).
  const StealMonitor* quiet = nullptr;
};

/// Roundtrip check folded into one allreduce: rel L2 of back vs in, and
/// the count of non-finite values in the spectrum and the result.
std::pair<double, double> roundtrip_check(Comm& comm, std::span<const cd> in,
                                          std::span<const cd> spec,
                                          std::span<const cd> back) {
  double s[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < in.size(); ++i) {
    s[0] += std::norm(back[i] - in[i]);
    s[1] += std::norm(in[i]);
  }
  s[2] = (all_finite(spec) ? 0.0 : 1.0) + (all_finite(back) ? 0.0 : 1.0);
  comm.allreduce(std::span<double>(s, 3), lossyfft::minimpi::ReduceOp::kSum);
  const double err = s[1] > 0.0 ? std::sqrt(s[0] / s[1]) : std::sqrt(s[0]);
  return {err, s[2]};
}

/// Run `roundtrip(i)` as a closed loop until rank 0 has measured
/// spec.seconds and the minimums of `spec`, or spec.max_seconds.
/// Collective.
template <typename RoundtripFn, typename StatsFn>
void closed_loop(Comm& comm, const LoopSpec& spec, LoopLog& log,
                 const RoundtripFn& roundtrip, const StatsFn& stats) {
  for (int i = 0; i < spec.warmup; ++i) roundtrip(-1 - i);
  log.before = stats();
  lossyfft::Stopwatch sw;
  std::optional<QuietCounter> quiet;
  if (comm.rank() == 0 && spec.quiet != nullptr) {
    quiet.emplace(*spec.quiet, Tracer::now());
  }
  for (int i = 0;; ++i) {
    int go = 0;
    if (comm.rank() == 0) {
      const double el = sw.seconds();
      bool more = el < spec.seconds || i < spec.min_samples;
      if (quiet) {
        quiet->update(Tracer::now(), static_cast<std::size_t>(i));
        more = more || !quiet->enough(kMinSamples, kMinQuietWindows);
      }
      go = more && el < spec.max_seconds ? 1 : 0;
    }
    comm.bcast(std::span<int>(&go, 1), 0);
    if (go == 0) break;
    comm.barrier();
    log.t0.push_back(Tracer::now());
    const auto [err, nonfinite] = roundtrip(i);
    log.t1.push_back(Tracer::now());
    log.err.push_back(err);
    log.nonfinite.push_back(nonfinite);
  }
  log.after = stats();
}

/// Count failed samples (non-finite anywhere, or error above the bound)
/// into the report; returns the worst error.
double tally_samples(const LoopLog& log, double bound, Report& rep,
                     const std::string& what) {
  double worst = 0.0;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < log.err.size(); ++i) {
    const double e = log.err[i];
    if (!std::isfinite(e) || log.nonfinite[i] > 0 || e > bound) ++bad;
    if (std::isfinite(worst)) worst = std::isfinite(e) ? std::max(worst, e) : e;
  }
  rep.attempted += log.err.size();
  rep.failed += bad;
  if (bad > 0) {
    std::ostringstream os;
    os << what << ": " << bad << " of " << log.err.size()
       << " roundtrips non-finite or above the error bound " << bound;
    rep.fail(os.str());
  }
  return worst;
}

// ------------------------------------------------- per-layer (traced) data

/// Everything one traced in-process phase leaves behind.
struct TraceData {
  int ranks = 1;
  std::vector<Span> spans;                  // Traced roundtrips, all ranks.
  std::vector<Span> replay;                 // Codec replay, all ranks.
  std::vector<std::vector<ExchangeStats>> rt_stats;  // [rank][roundtrip].
  int pack_elided = 0;                      // Summed over ranks.
  int reshape_calls = 0;                    // Per roundtrip, all ranks.
  std::uint64_t footprint = 0;              // Fft3d bytes, all ranks.
  std::vector<double> untraced_ms, traced_ms;
};

using LayerValues = std::map<std::string, double>;

ExchangeStats delta(const ExchangeStats& a, const ExchangeStats& b) {
  ExchangeStats d;
  d.payload_bytes = b.payload_bytes - a.payload_bytes;
  d.wire_bytes = b.wire_bytes - a.wire_bytes;
  d.rounds = b.rounds - a.rounds;
  d.messages = b.messages - a.messages;
  d.seconds = b.seconds - a.seconds;
  d.chunks_reconstructed = b.chunks_reconstructed - a.chunks_reconstructed;
  d.straggler_waits = b.straggler_waits - a.straggler_waits;
  d.skew_seconds = b.skew_seconds - a.skew_seconds;
  return d;
}

/// Per-layer values of one traced phase. Times are per roundtrip and per
/// rank (mean over ranks), median over roundtrips; counts are per
/// roundtrip summed over ranks.
LayerValues layer_values(const TraceData& td) {
  LayerValues out;
  const std::size_t nrt = td.traced_ms.size();
  const auto p = static_cast<std::size_t>(td.ranks);
  // [roundtrip][rank] accumulators.
  struct Acc {
    double fft = 0, wait = 0, reshape = 0, rt = 0, lines = 0, flops = 0;
  };
  std::vector<std::vector<Acc>> acc(nrt, std::vector<Acc>(p));
  double fft_s = 0.0, flops = 0.0;
  for (const Span& s : td.spans) {
    if (s.roundtrip >= nrt) continue;
    Acc& a = acc[s.roundtrip][static_cast<std::size_t>(s.rank)];
    switch (s.kind) {
      case SpanKind::kRoundtrip: a.rt += s.ms(); break;
      case SpanKind::kReshapeWait: a.wait += s.ms(); break;
      case SpanKind::kReshape: a.reshape += s.ms(); break;
      case SpanKind::kFft: {
        const double n = static_cast<double>(s.aux);
        const double f =
            n > 1 ? 5.0 * n * std::log2(n) * static_cast<double>(s.work) : 0;
        a.fft += s.ms();
        a.lines += static_cast<double>(s.work);
        flops += f;
        fft_s += s.ms() * 1e-3;
        break;
      }
      default: break;
    }
  }
  const auto rank_mean = [&](auto field) {
    std::vector<double> per_rt(nrt);
    for (std::size_t i = 0; i < nrt; ++i) {
      double s = 0.0;
      for (const Acc& a : acc[i]) s += field(a);
      per_rt[i] = s / static_cast<double>(p);
    }
    return median(per_rt);
  };
  out["fft.busy_ms"] = rank_mean([](const Acc& a) { return a.fft; });
  out["fft.lines"] =
      rank_mean([](const Acc& a) { return a.lines; }) * static_cast<double>(p);
  out["fft.gflops"] = fft_s > 0 ? flops / fft_s * 1e-9 : 0.0;
  out["reshape.busy_ms"] = rank_mean([](const Acc& a) { return a.reshape; });
  out["reshape.wait_ms"] = rank_mean([](const Acc& a) { return a.wait; });
  out["reshape.calls"] = td.reshape_calls;
  out["reshape.pack_elided"] = td.pack_elided;
  out["roundtrip.self_ms"] = rank_mean(
      [](const Acc& a) { return a.rt - a.fft - a.wait - a.reshape; });
  out["plan.footprint_mb"] =
      static_cast<double>(td.footprint) / (1024.0 * 1024.0);

  // Exchange counters: per-roundtrip ExchangeStats deltas.
  std::vector<double> ex_ms(nrt), msgs(nrt), rounds(nrt), payload(nrt),
      wire(nrt), skew(nrt), retries(nrt);
  for (std::size_t i = 0; i < nrt; ++i) {
    for (std::size_t r = 0; r < p; ++r) {
      const ExchangeStats& d = td.rt_stats[r][i];
      ex_ms[i] += d.seconds * 1e3 / static_cast<double>(p);
      skew[i] += d.skew_seconds * 1e3 / static_cast<double>(p);
      rounds[i] += static_cast<double>(d.rounds) / static_cast<double>(p);
      msgs[i] += d.messages;
      payload[i] += static_cast<double>(d.payload_bytes);
      wire[i] += static_cast<double>(d.wire_bytes);
      retries[i] +=
          static_cast<double>(d.chunks_reconstructed + d.straggler_waits);
    }
  }
  out["exchange.ms"] = median(ex_ms);
  out["exchange.messages"] = median(msgs);
  out["exchange.rounds"] = median(rounds);
  out["exchange.payload_bytes"] = median(payload);
  out["exchange.wire_bytes"] = median(wire);
  out["exchange.skew_ms"] = median(skew);
  out["exchange.retries"] = median(retries);

  // Codec replay: one rep = every captured payload of one roundtrip.
  std::map<std::pair<int, std::uint32_t>, std::array<double, 2>> rep_ms;
  double in_bytes = 0, out_bytes = 0, enc_s = 0, dec_s = 0;
  for (const Span& s : td.replay) {
    auto& slot = rep_ms[{s.rank, s.roundtrip}];
    if (s.kind == SpanKind::kEncode) {
      slot[0] += s.ms();
      enc_s += s.ms() * 1e-3;
      in_bytes += static_cast<double>(s.work);
      out_bytes += static_cast<double>(s.aux);
    } else {
      slot[1] += s.ms();
      dec_s += s.ms() * 1e-3;
    }
  }
  std::vector<double> enc, dec;
  for (const auto& [key, ms] : rep_ms) {
    enc.push_back(ms[0]);
    dec.push_back(ms[1]);
  }
  out["codec.encode_ms"] = median(enc);
  out["codec.decode_ms"] = median(dec);
  out["codec.encode_gbs"] = enc_s > 0 ? in_bytes / enc_s * 1e-9 : 0.0;
  out["codec.decode_gbs"] = dec_s > 0 ? in_bytes / dec_s * 1e-9 : 0.0;
  out["codec.ratio"] = out_bytes > 0 ? in_bytes / out_bytes : 1.0;

  const double untraced = median(td.untraced_ms);
  out["trace.roundtrip_ms_p50"] = median(td.traced_ms);
  out["trace.overhead_ms"] = median(td.traced_ms) - untraced;
  out["trace.untraced_ms_p50"] = untraced;
  return out;
}

/// Replay the codec on captured reshape payloads, outside any reshape
/// span: compress + decompress each payload, one rep per pass, until
/// `seconds` have passed on this rank (at least 3 reps). Returns false if
/// a decoded value is not finite.
bool codec_replay(const lossyfft::Codec& codec,
                  const std::vector<std::vector<cd>>& payloads,
                  double seconds, Tracer& t) {
  bool finite = true;
  std::vector<std::byte> wire;
  std::vector<double> back;
  lossyfft::Stopwatch sw;
  for (std::uint32_t rep = 0; rep < 3 || sw.seconds() < seconds; ++rep) {
    t.roundtrip = rep;
    for (std::size_t k = 0; k < payloads.size(); ++k) {
      const std::span<const double> in(
          reinterpret_cast<const double*>(payloads[k].data()),
          payloads[k].size() * 2);
      wire.resize(codec.max_compressed_bytes(in.size()));
      back.resize(in.size());
      const std::int64_t t0 = Tracer::now();
      const std::size_t bytes = codec.compress(in, wire);
      const std::int64_t t1 = Tracer::now();
      codec.decompress(std::span<const std::byte>(wire.data(), bytes), back);
      const std::int64_t t2 = Tracer::now();
      t.add(SpanKind::kEncode, static_cast<int>(k), t0, t1, in.size_bytes(),
            bytes);
      t.add(SpanKind::kDecode, static_cast<int>(k), t1, t2, in.size_bytes());
      for (double v : back) finite = finite && std::isfinite(v);
    }
  }
  return finite;
}

// -------------------------------------------------- in-process workloads

struct InProcess {
  std::vector<double> rt_ms;
  LoopLog log0;  // Rank 0's log (errors are identical on every rank).
  std::uint64_t wire_bytes = 0;  // Timed samples, summed over ranks.
  std::vector<std::int64_t> start_ns;  // Sample starts (rank 0).
  std::int64_t t_begin = 0, t_end = 0;  // Timed loop span.
  std::vector<StealMonitor::Reading> steal;
  std::vector<double> setup_s;
  std::vector<cd> spectrum;  // Global forward spectrum of field 0.
  std::uint64_t footprint = 0;
  bool bit_identical = true;
  bool replay_finite = true;
  TraceData trace;
};

struct Budget {
  double seconds;
  int setup_reps;
};

/// Run one in-process signature. Untraced: setup reps, then the timed
/// closed loop. Traced: the bit-identity check, an untraced loop, a traced
/// loop and the codec replay, splitting the budget 35/50/15.
InProcess run_inprocess(const Signature& sig, const Fft3dOptions& opt,
                        const std::vector<std::vector<cd>>& fields,
                        const Budget& b, bool trace) {
  const int p = sig.ranks;
  const auto pu = static_cast<std::size_t>(p);
  InProcess res;
  res.spectrum.assign(elems(sig.n), cd{});
  std::vector<LoopLog> logs(pu), tlogs(pu);
  std::vector<std::vector<std::int64_t>> setup_t0(pu), setup_t1(pu);
  std::vector<std::uint64_t> footprint(pu), wire(pu);
  std::vector<Tracer> tracers, replayers;
  for (int r = 0; r < p; ++r) {
    tracers.emplace_back(r, trace ? 1u << 16 : 0u);
    replayers.emplace_back(r, trace ? 1u << 12 : 0u);
  }
  std::vector<std::vector<ExchangeStats>> rt_stats(pu);
  std::vector<int> elided(pu, 0);
  std::vector<char> identical(pu, 1), replay_ok(pu, 1);
  int reshapes = 0;

  StealMonitor monitor;
  lossyfft::minimpi::run_ranks(p, [&](Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    std::unique_ptr<Fft3d<double>> fft;
    for (int rep = 0; rep < b.setup_reps; ++rep) {
      fft.reset();
      comm.barrier();
      setup_t0[r].push_back(Tracer::now());
      fft = std::make_unique<Fft3d<double>>(comm, sig.n, opt);
      setup_t1[r].push_back(Tracer::now());
    }
    footprint[r] = fft->footprint_bytes();
    std::vector<std::vector<cd>> in;
    for (const auto& f : fields) in.push_back(cut_box(f, sig.n, fft->inbox()));
    std::vector<cd> spec(fft->output_count()), back(fft->local_count());

    fft->forward(in[0], spec);
    paste_box(spec, sig.n, fft->outbox(), res.spectrum);

    const auto fft_roundtrip = [&](int i) {
      const auto& x = in[static_cast<std::size_t>(i < 0 ? 0 : i % kFields)];
      fft->forward(x, spec);
      fft->backward(spec, back);
      return roundtrip_check(comm, x, spec, back);
    };
    const auto fft_stats = [&] { return fft->stats(); };
    if (!trace) {
      closed_loop(comm, {b.seconds, 0, 2.0 * b.seconds, 2, &monitor},
                  logs[r], fft_roundtrip, fft_stats);
      wire[r] = logs[r].after.wire_bytes - logs[r].before.wire_bytes;
      return;
    }

    // Traced run. The copy must reproduce Fft3d bit for bit.
    TracedFft tf(comm, sig.n, opt);
    Tracer scratch(comm.rank(), 64);
    std::vector<cd> tspec(spec.size()), tback(back.size());
    fft->forward(in[1], spec);
    fft->backward(spec, back);
    tf.forward(in[1], tspec, scratch);
    tf.backward(tspec, tback, scratch);
    identical[r] =
        std::memcmp(spec.data(), tspec.data(), spec.size() * sizeof(cd)) ==
                0 &&
        std::memcmp(back.data(), tback.data(), back.size() * sizeof(cd)) == 0;
    elided[r] = tf.pack_elided();
    if (r == 0) reshapes = 2 * tf.reshape_count() * p;

    closed_loop(comm, {0.35 * b.seconds, 5, 0.35 * b.seconds + 5.0, 2},
                logs[r], fft_roundtrip, fft_stats);

    Tracer& t = tracers[r];
    ExchangeStats last = tf.stats();
    const auto traced_roundtrip = [&](int i) {
      const auto& x = in[static_cast<std::size_t>(i < 0 ? 0 : i % kFields)];
      t.roundtrip = static_cast<std::uint32_t>(i < 0 ? 1u << 30 : i);
      const std::int64_t t0 = Tracer::now();
      tf.forward(x, tspec, t);
      tf.backward(tspec, tback, t);
      t.add(SpanKind::kRoundtrip, 0, t0, Tracer::now());
      const ExchangeStats now = tf.stats();
      if (i >= 0) rt_stats[r].push_back(delta(last, now));
      last = now;
      return roundtrip_check(comm, x, tspec, tback);
    };
    closed_loop(comm, {0.5 * b.seconds, 5, 0.5 * b.seconds + 5.0, 2},
                tlogs[r], traced_roundtrip, [&] { return tf.stats(); });

    if (opt.codec) {
      std::vector<std::vector<cd>> payloads;
      tf.capture = &payloads;
      tf.forward(in[0], tspec, scratch);
      tf.backward(tspec, tback, scratch);
      tf.capture = nullptr;
      replay_ok[r] =
          codec_replay(*opt.codec, payloads, 0.15 * b.seconds, replayers[r]);
    }
  });

  monitor.stop();
  res.steal = monitor.readings();
  for (int rep = 0; rep < b.setup_reps; ++rep) {
    std::int64_t a = setup_t0[0][rep], z = setup_t1[0][rep];
    for (std::size_t r = 0; r < pu; ++r) {
      a = std::min(a, setup_t0[r][rep]);
      z = std::max(z, setup_t1[r][rep]);
    }
    res.setup_s.push_back(static_cast<double>(z - a) * 1e-9);
  }
  for (std::uint64_t f : footprint) res.footprint += f;
  for (std::uint64_t w : wire) res.wire_bytes += w;
  res.rt_ms = sample_ms(logs);
  res.log0 = logs[0];
  res.start_ns = logs[0].t0;
  if (!logs[0].t0.empty()) {
    res.t_begin = logs[0].t0.front();
    res.t_end = logs[0].t1.back();
  }
  if (trace) {
    TraceData& td = res.trace;
    td.ranks = p;
    td.untraced_ms = res.rt_ms;
    td.traced_ms = sample_ms(tlogs);
    td.rt_stats = rt_stats;
    td.footprint = res.footprint;
    td.reshape_calls = reshapes;
    for (std::size_t r = 0; r < pu; ++r) {
      td.pack_elided += elided[r];
      res.bit_identical = res.bit_identical && identical[r];
      res.replay_finite = res.replay_finite && replay_ok[r];
      td.spans.insert(td.spans.end(), tracers[r].spans().begin(),
                      tracers[r].spans().end());
      td.replay.insert(td.replay.end(), replayers[r].spans().begin(),
                       replayers[r].spans().end());
    }
    // Traced-loop errors join the failure tally too.
    res.log0.err.insert(res.log0.err.end(), tlogs[0].err.begin(),
                        tlogs[0].err.end());
    res.log0.nonfinite.insert(res.log0.nonfinite.end(),
                              tlogs[0].nonfinite.begin(),
                              tlogs[0].nonfinite.end());
  }
  return res;
}

/// Spectrum check: the forward output of field 0 against the exact
/// single-rank reference, within the workload's error bound.
void check_spectrum(const Signature& sig, const std::vector<cd>& field,
                    const std::vector<cd>& spectrum, Report& rep,
                    const std::string& what) {
  const std::vector<cd> ref = reference_spectrum(sig.n, field);
  const double err = rel_l2(spectrum, ref);
  std::ostringstream os;
  os << "spectrum_check " << what << " rel_l2 " << err << " bound "
     << error_bound(sig);
  rep.notes.push_back(os.str());
  if (!(err <= error_bound(sig)) || !all_finite(spectrum)) {
    rep.fail(what + ": forward spectrum off the exact reference");
  }
}

void write_spans(const std::string& path, const TraceData& td) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "name,stage,rank,roundtrip,start_ns,end_ns,work,aux\n");
  const auto dump = [&](const std::vector<Span>& spans) {
    for (const Span& s : spans) {
      std::fprintf(f, "%s,%d,%d,%u,%lld,%lld,%llu,%llu\n", to_string(s.kind),
                   s.stage, s.rank, s.roundtrip,
                   static_cast<long long>(s.t0_ns),
                   static_cast<long long>(s.t1_ns),
                   static_cast<unsigned long long>(s.work),
                   static_cast<unsigned long long>(s.aux));
    }
  };
  dump(td.spans);
  dump(td.replay);
  std::fclose(f);
}

void add_layer_metrics(Report& rep, const LayerValues& lv) {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"fft.busy_ms", "ms"},          {"fft.lines", "count"},
      {"fft.gflops", "Gflop/s-model"}, {"reshape.busy_ms", "ms"},
      {"reshape.wait_ms", "ms"},      {"reshape.calls", "count"},
      {"reshape.pack_elided", "count"}, {"roundtrip.self_ms", "ms"},
      {"plan.footprint_mb", "MiB"},   {"codec.encode_ms", "ms"},
      {"codec.decode_ms", "ms"},      {"codec.encode_gbs", "GB/s"},
      {"codec.decode_gbs", "GB/s"},   {"codec.ratio", "x"},
      {"exchange.ms", "ms"},          {"exchange.messages", "count"},
      {"exchange.rounds", "count"},   {"exchange.payload_bytes", "bytes"},
      {"exchange.wire_bytes", "bytes"}, {"exchange.skew_ms", "ms"},
      {"exchange.retries", "count"},  {"trace.roundtrip_ms_p50", "ms"},
      {"trace.untraced_ms_p50", "ms"}, {"trace.overhead_ms", "ms"},
  };
  for (const auto& [name, unit] : kUnits) {
    const auto it = lv.find(name);
    rep.add(name, it == lv.end() ? 0.0 : it->second, unit);
  }
}

void add_serve_zeros(Report& rep) {
  rep.add("serve.submit_ms", 0.0, "ms");
  rep.add("serve.wait_ms", 0.0, "ms");
  rep.add("serve.overhead_ms", 0.0, "ms");
  rep.add("serve.cache_hit_rate", 0.0, "ratio");
  rep.add("serve.cache_hits", 0.0, "count");
  rep.add("serve.cache_misses", 0.0, "count");
  rep.add("serve.jobs_failed", 0.0, "count");
}

/// Latency and throughput over the quiet 1-second windows of the timed
/// loop, topped up with the least-stolen others when those hold fewer
/// than kMinSamples samples or kMinQuietWindows windows (steal.hpp).
void add_latency(Report& rep, const std::vector<std::int64_t>& start_ns,
                 const std::vector<double>& all_ms, std::int64_t t_begin,
                 std::int64_t t_end,
                 const std::vector<StealMonitor::Reading>& steal) {
  const QuietSelection sel =
      select_quiet(start_ns, all_ms, t_begin, t_end, steal, kMinSamples,
                   kMinQuietWindows);
  const std::vector<double>& ms = sel.ms;
  rep.notes.push_back(sel.describe());
  rep.add("roundtrip_ms_p50", quantile(ms, 0.5), "ms");
  rep.add("roundtrip_ms_p90", quantile(ms, 0.9), "ms");
  rep.add("roundtrips_per_s",
          sel.seconds > 0 ? static_cast<double>(ms.size()) / sel.seconds : 0.0,
          "1/s");
  const std::size_t n = ms.size();
  const auto k90 = static_cast<std::size_t>(
      std::ceil(0.9 * static_cast<double>(n)));
  std::ostringstream os;
  os << "samples " << n << " beyond_p90 " << (n - std::min(n, k90));
  rep.notes.push_back(os.str());
  if (n - std::min(n, k90) < 10) {
    rep.notes.push_back("warning: fewer than 10 samples beyond p90");
  }
}

void run_inprocess_workload(const Workload& w, std::uint64_t seed,
                            const Budget& b, bool trace,
                            const std::string& trace_path, Report& rep) {
  const Signature& sig = w.sigs[0];
  const Fft3dOptions opt = options_for(sig);
  const auto fields = make_fields(sig, seed);
  InProcess res = run_inprocess(sig, opt, fields, b, trace);
  const double worst =
      tally_samples(res.log0, error_bound(sig), rep, w.name);
  check_spectrum(sig, fields[0], res.spectrum, rep, w.name);
  {
    std::ostringstream os;
    os << "codec " << (opt.codec ? opt.codec->name() : "none") << " bound "
       << error_bound(sig) << " working_set_bytes "
       << res.footprint + 3 * elems(sig.n) * sizeof(cd);
    rep.notes.push_back(os.str());
  }
  if (!trace) {
    add_latency(rep, res.start_ns, res.rt_ms, res.t_begin, res.t_end,
                res.steal);
    rep.add("setup_s", median(res.setup_s), "s");
    rep.add("roundtrip_err", worst, "rel_l2");
    rep.add("wire_bytes_per_roundtrip",
            res.rt_ms.empty() ? 0.0
                              : static_cast<double>(res.wire_bytes) /
                                    static_cast<double>(res.rt_ms.size()),
            "bytes");
    return;
  }
  if (!res.bit_identical) {
    rep.fail(w.name + ": traced pipeline output differs from Fft3d");
  } else {
    rep.notes.push_back("traced_copy_bit_identical yes");
  }
  if (!res.replay_finite) rep.fail(w.name + ": codec replay non-finite");
  add_layer_metrics(rep, layer_values(res.trace));
  add_serve_zeros(rep);
  write_spans(trace_path, res.trace);
}

// ------------------------------------------------------- served workload

struct ServedSample {
  std::int64_t start_ns;
  double submit_ms, wait_ms, total_ms, err;
  bool ok;
};

/// Library-direct roundtrip of `field` on the daemon's world size and
/// options: what every served result must equal byte for byte.
std::vector<cd> direct_roundtrip(const Signature& sig,
                                 const std::vector<cd>& field) {
  std::vector<cd> out(field.size());
  lossyfft::minimpi::run_ranks(sig.ranks, [&](Comm& comm) {
    Fft3d<double> fft(comm, sig.n, served_options(sig));
    const auto in = cut_box(field, sig.n, fft.inbox());
    std::vector<cd> spec(fft.output_count()), back(fft.local_count());
    fft.forward(in, spec);
    fft.backward(spec, back);
    paste_box(back, sig.n, fft.inbox(), out);
  });
  return out;
}

void run_served_workload(const Workload& w, std::uint64_t seed,
                         const Budget& b, bool trace,
                         const std::string& socket_path,
                         const std::string& trace_path, Report& rep) {
  using lossyfft::serve::Client;
  using lossyfft::serve::Daemon;
  using lossyfft::serve::DaemonOptions;
  using lossyfft::serve::TransformDir;
  const std::size_t conns = w.sigs.size();
  // Distinct signatures in first-seen order, and each connection's index.
  std::vector<Signature> uniq;
  std::vector<std::size_t> sig_of(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    std::size_t k = 0;
    while (k < uniq.size() && !(uniq[k].n == w.sigs[c].n &&
                                uniq[k].family == w.sigs[c].family)) {
      ++k;
    }
    if (k == uniq.size()) uniq.push_back(w.sigs[c]);
    sig_of[c] = k;
  }
  std::vector<std::vector<std::vector<cd>>> fields;
  std::vector<std::vector<cd>> direct;
  for (std::size_t k = 0; k < uniq.size(); ++k) {
    fields.push_back(make_fields(uniq[k], seed + 7919ULL * k));
    direct.push_back(direct_roundtrip(uniq[k], fields[k][0]));
  }

  DaemonOptions dopt;
  dopt.socket_path = socket_path;
  dopt.ranks = uniq[0].ranks;
  dopt.gpus_per_node = kServedGpusPerNode;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<double> setup_s;
  bool open_ok = true;
  // Set-up: daemon start until every session is open and has run its
  // first job, which is when a cache miss builds the plan.
  for (int rep_i = 0; rep_i < b.setup_reps; ++rep_i) {
    for (auto& c : clients) c->close();
    clients.clear();
    if (daemon) daemon->stop();
    daemon = std::make_unique<Daemon>(dopt);
    lossyfft::Stopwatch sw;
    daemon->start();
    std::vector<cd> out;
    for (std::size_t c = 0; c < conns; ++c) {
      clients.push_back(std::make_unique<Client>());
      const auto o =
          clients[c]->open(socket_path, session_config(w.sigs[c]));
      open_ok = open_ok && o.ok;
    }
    for (std::size_t c = 0; c < conns && open_ok; ++c) {
      const auto& f = fields[sig_of[c]][0];
      out.assign(f.size(), cd{});
      open_ok = clients[c]->transform(TransformDir::kRoundtrip, f, out).ok;
    }
    setup_s.push_back(sw.seconds());
  }
  if (!open_ok) {
    rep.fail(w.name + ": a session failed to open or warm up");
    return;
  }

  // Checks through the daemon: forward spectrum vs the exact reference.
  for (std::size_t k = 0; k < uniq.size(); ++k) {
    std::size_t c = 0;
    while (sig_of[c] != k) ++c;
    std::vector<cd> spec(fields[k][0].size());
    const auto res =
        clients[c]->transform(TransformDir::kForward, fields[k][0], spec);
    if (!res.ok) rep.fail(w.name + ": served forward failed: " + res.error);
    check_spectrum(uniq[k], fields[k][0], spec, rep,
                   w.name + "/" + grid_str(uniq[k].n));
  }

  std::vector<double> wire0(conns), jobs0(conns);
  const auto tenant = [&](std::size_t c, const char* key) {
    Client::Stats st;
    clients[c]->stats(&st);
    return st.values[key];
  };
  for (std::size_t c = 0; c < conns; ++c) {
    wire0[c] = tenant(c, "tenant_wire_bytes");
    jobs0[c] = tenant(c, "tenant_jobs_done");
  }

  const double loop_s = trace ? 0.4 * b.seconds : b.seconds;
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::vector<ServedSample>> samples(conns);
  std::vector<char> identity_ok(conns, 1);
  std::vector<std::thread> threads;
  StealMonitor monitor;
  const std::int64_t t_begin = Tracer::now();
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t k = sig_of[c];
      const double bound = error_bound(uniq[k]);
      std::vector<cd> out(fields[k][0].size());
      for (std::uint64_t j = 0; !stop.load(); ++j) {
        const auto& in = fields[k][j % kFields];
        const std::uint64_t id = 1000 + j;
        const std::int64_t t0 = Tracer::now();
        std::string reason;
        const bool sent =
            clients[c]->submit(id, TransformDir::kRoundtrip, in, &reason);
        const std::int64_t t1 = Tracer::now();
        const auto res = sent ? clients[c]->wait(id, out) : Client::Result{};
        const std::int64_t t2 = Tracer::now();
        const double err = res.ok ? rel_l2(out, in) : NAN;
        const bool ok = res.ok && std::isfinite(err) && err <= bound &&
                        all_finite(out);
        if (ok && j % kFields == 0 &&
            std::memcmp(out.data(), direct[k].data(),
                        out.size() * sizeof(cd)) != 0) {
          identity_ok[c] = 0;
        }
        completed.fetch_add(1);
        samples[c].push_back({t0, (t1 - t0) * 1e-6,
                              (t2 - t1) * 1e-6, (t2 - t0) * 1e-6, err, ok});
      }
    });
  }
  // Same stopping rule as closed_loop, with every connection's samples.
  {
    lossyfft::Stopwatch el;
    QuietCounter quiet(monitor, t_begin);
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      quiet.update(Tracer::now(), completed.load());
      const bool more =
          el.seconds() < loop_s ||
          (!trace && !quiet.enough(kMinSamples, kMinQuietWindows));
      if (!more || el.seconds() >= 2.0 * loop_s) break;
    }
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  const std::int64_t t_end = Tracer::now();
  monitor.stop();

  std::vector<double> total_ms, submit_ms, wait_ms;
  std::vector<std::int64_t> start_ns;
  std::vector<std::vector<double>> per_sig_ms(uniq.size());
  double worst = 0.0;
  std::uint64_t bad = 0, done = 0;
  for (std::size_t c = 0; c < conns; ++c) {
    for (const ServedSample& s : samples[c]) {
      total_ms.push_back(s.total_ms);
      start_ns.push_back(s.start_ns);
      submit_ms.push_back(s.submit_ms);
      wait_ms.push_back(s.wait_ms);
      per_sig_ms[sig_of[c]].push_back(s.total_ms);
      if (!s.ok) ++bad;
      worst = std::isfinite(s.err) && std::isfinite(worst)
                  ? std::max(worst, s.err)
                  : NAN;
    }
    done += samples[c].size();
    if (!identity_ok[c]) {
      rep.fail(w.name + ": served result differs from library-direct run");
    }
  }
  rep.attempted += done;
  rep.failed += bad;
  if (bad > 0) {
    rep.fail(w.name + ": " + std::to_string(bad) +
             " served roundtrips failed, were non-finite or broke the bound");
  }
  rep.notes.push_back("served_identical_to_direct " +
                      std::string(std::all_of(identity_ok.begin(),
                                              identity_ok.end(),
                                              [](char v) { return v != 0; })
                                      ? "yes"
                                      : "NO"));
  double wire = 0.0, jobs = 0.0;
  for (std::size_t c = 0; c < conns; ++c) {
    wire += tenant(c, "tenant_wire_bytes") - wire0[c];
    jobs += tenant(c, "tenant_jobs_done") - jobs0[c];
  }
  const auto cache = daemon->cache_counters();
  const auto counters = daemon->counters();
  for (auto& c : clients) c->close();
  clients.clear();
  daemon->stop();
  daemon.reset();

  if (!trace) {
    add_latency(rep, start_ns, total_ms, t_begin, t_end, monitor.readings());
    rep.add("setup_s", median(setup_s), "s");
    rep.add("roundtrip_err", worst, "rel_l2");
    rep.add("wire_bytes_per_roundtrip", jobs > 0 ? wire / jobs : 0.0,
            "bytes");
    return;
  }

  // Traced: replay each signature in process, untraced then traced, for
  // the layers under the daemon and the served-minus-in-process overhead.
  std::vector<LayerValues> lvs;
  double overhead = 0.0, footprint = 0.0;
  TraceData all;
  for (std::size_t k = 0; k < uniq.size(); ++k) {
    const Budget sb{0.3 * b.seconds, 1};
    InProcess res = run_inprocess(uniq[k], served_options(uniq[k]),
                                  fields[k], sb, true);
    tally_samples(res.log0, error_bound(uniq[k]), rep,
                  w.name + "/in-process");
    if (!res.bit_identical) {
      rep.fail(w.name + ": traced pipeline output differs from Fft3d");
    }
    if (!res.replay_finite) rep.fail(w.name + ": codec replay non-finite");
    lvs.push_back(layer_values(res.trace));
    overhead += (median(per_sig_ms[k]) - median(res.trace.untraced_ms)) /
                static_cast<double>(uniq.size());
    footprint += static_cast<double>(res.footprint);
    all.spans.insert(all.spans.end(), res.trace.spans.begin(),
                     res.trace.spans.end());
    all.replay.insert(all.replay.end(), res.trace.replay.begin(),
                      res.trace.replay.end());
  }
  LayerValues avg;
  for (const auto& [name, v] : lvs[0]) {
    double s = 0.0;
    for (const LayerValues& lv : lvs) s += lv.at(name);
    avg[name] = s / static_cast<double>(lvs.size());
  }
  avg["plan.footprint_mb"] = footprint / (1024.0 * 1024.0);
  add_layer_metrics(rep, avg);
  rep.add("serve.submit_ms", median(submit_ms), "ms");
  rep.add("serve.wait_ms", median(wait_ms), "ms");
  rep.add("serve.overhead_ms", overhead, "ms");
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  rep.add("serve.cache_hit_rate",
          lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0,
          "ratio");
  rep.add("serve.cache_hits", static_cast<double>(cache.hits), "count");
  rep.add("serve.cache_misses", static_cast<double>(cache.misses), "count");
  rep.add("serve.jobs_failed", static_cast<double>(counters.jobs_failed),
          "count");
  write_spans(trace_path, all);
}

// ------------------------------------------------------------------ output

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void print_report(const Report& rep) {
  for (const std::string& n : rep.notes) std::printf("%s\n", n.c_str());
  const double ff = rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                            static_cast<double>(rep.attempted)
                                      : 0.0;
  std::printf("failed_frac %.6g (%llu/%llu)\n", ff,
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));
  for (const Metric& m : rep.metrics) {
    std::printf("metric %-26s %s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
  std::ostringstream js;
  js << "{\"correct\": " << (rep.correct ? "true" : "false")
     << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    js << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

/// CPUs the benchmark runs on. With four busy threads on a 4-vCPU guest
/// the host steals CPU time in bursts and run-to-run medians swing by
/// tens of percent; two pinned CPUs (one per rank thread) keep them
/// steady. The shared WorkerPool gets one worker, so codec and pack work
/// stays on the rank threads (LOSSYFFT_WORKERS is read at pool creation).
constexpr int kCpus = 2;

/// Restrict this process (and every thread it starts later) to the first
/// kCpus CPUs it may run on; returns how many it runs on.
int pin_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 0;
  cpu_set_t mine;
  CPU_ZERO(&mine);
  int k = 0;
  for (int c = 0; c < CPU_SETSIZE && k < kCpus; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &mine);
      ++k;
    }
  }
  if (sched_setaffinity(0, sizeof mine, &mine) != 0) return CPU_COUNT(&allowed);
  return k;
}

long last_level_cache_bytes() {
  for (const int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                         _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return v;
  }
  return 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string socket = "perfbench.sock";
  std::string trace_out;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
  int cpus = 0;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() == "1";
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--socket") a.socket = val();
    else if (k == "--trace-out") a.trace_out = val();
    else if (k == "--commit") a.commit = val();
    else if (k == "--src-digest") a.src_digest = val();
    else return false;
  }
  return a.smoke || !a.workload.empty();
}

void stamp_env(const Args& a, const Workload& w) {
  std::printf(
      "env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"simd\": \"%s\", \"build_type\": "
      "\"%s\", \"commit\": \"%s\", \"src_digest\": \"%s\", "
      "\"cpus_used\": %d, \"pool_workers\": \"%s\", \"llc_bytes\": %ld}\n",
      w.name.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, std::thread::hardware_concurrency(),
      lossyfft::simd_level_name(), PERFBENCH_BUILD_TYPE, a.commit.c_str(),
      a.src_digest.c_str(), a.cpus, std::getenv("LOSSYFFT_WORKERS"),
      last_level_cache_bytes());
  for (const Signature& s : w.sigs) {
    std::printf("signature grid %s ranks %d algorithm %s sync %s family %d "
                "e_tol %g input %s\n",
                grid_str(s.n).c_str(), s.ranks,
                s.algorithm == FftAlgorithm::kSlab ? "slab" : "pencil",
                s.sync == OscSync::kFence ? "fence" : "pscw", s.family,
                s.e_tol, to_string(s.input));
  }
  std::printf("why %s\n", w.why.c_str());
}

Report run_workload(const Workload& w, const Args& a, const Budget& b) {
  Report rep;
  stamp_env(a, w);
  try {
    if (w.served) {
      run_served_workload(w, a.seed, b, a.trace, a.socket, a.trace_out, rep);
    } else {
      run_inprocess_workload(w, a.seed, b, a.trace, a.trace_out, rep);
    }
  } catch (const std::exception& e) {
    rep.fail(w.name + ": exception: " + e.what());
  }
  if (!a.trace) {
    const double ok =
        rep.attempted > 0
            ? 1.0 - static_cast<double>(rep.failed) /
                        static_cast<double>(rep.attempted)
            : 0.0;
    rep.add("ok_frac", ok, "ratio");
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
  }
  if (rep.attempted == 0) rep.fail(w.name + ": no roundtrip completed");
  return rep;
}

/// Smoke mode: tiny grids, a fraction of a second per phase, every
/// workload untraced and traced, every correctness check.
int smoke(Args a) {
  bool all_ok = true;
  std::uint64_t attempted = 0, failed = 0;
  for (const Workload& w : workloads(true)) {
    for (const bool trace : {false, true}) {
      a.trace = trace;
      const Report rep = run_workload(w, a, {0.3, 2});
      for (const std::string& n : rep.notes) std::printf("  %s\n", n.c_str());
      std::printf("smoke %-20s trace %d: %s (%zu metrics)\n", w.name.c_str(),
                  trace ? 1 : 0, rep.correct ? "ok" : "FAILED",
                  rep.metrics.size());
      all_ok = all_ok && rep.correct;
      attempted += rep.attempted;
      failed += rep.failed;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {}}\n",
              all_ok ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--socket PATH] [--trace-out PATH]\n"
                 "       perfbench_e2e --smoke\n");
    return 2;
  }
  setenv("LOSSYFFT_WORKERS", "1", 1);
  // Keep freed memory in the heap: otherwise each plan construction
  // page-faults fresh buffers or reuses old ones at random, and setup_s
  // flips between two modes run to run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  a.cpus = pin_cpus();
  if (a.smoke) return smoke(a);
  for (const Workload& w : workloads(false)) {
    if (w.name != a.workload) continue;
    const Report rep = run_workload(w, a, {a.seconds, w.served ? 9 : 31});
    print_report(rep);
    return rep.correct ? 0 : 1;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
  return 2;
}
