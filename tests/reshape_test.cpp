#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compress/truncate.hpp"
#include "dfft/decomp.hpp"
#include "dfft/reshape.hpp"
#include "minimpi/runtime.hpp"

namespace lossyfft {
namespace {

using minimpi::Comm;
using minimpi::run_ranks;

// Global-index fingerprint: value at global (x, y, z) is unique, so any
// misplaced element is detected after redistribution.
std::complex<double> fingerprint(int x, int y, int z) {
  return {x + 100.0 * y + 10000.0 * z, 0.5 * x - 0.25 * y + z};
}

std::vector<std::complex<double>> fill_box(const Box3& b) {
  std::vector<std::complex<double>> v(static_cast<std::size_t>(b.count()));
  std::size_t i = 0;
  for (int z = b.lo[2]; z < b.hi(2); ++z)
    for (int y = b.lo[1]; y < b.hi(1); ++y)
      for (int x = b.lo[0]; x < b.hi(0); ++x) v[i++] = fingerprint(x, y, z);
  return v;
}

void expect_box(const Box3& b, std::span<const std::complex<double>> v,
                double tol) {
  std::size_t i = 0;
  for (int z = b.lo[2]; z < b.hi(2); ++z)
    for (int y = b.lo[1]; y < b.hi(1); ++y)
      for (int x = b.lo[0]; x < b.hi(0); ++x) {
        const auto want = fingerprint(x, y, z);
        EXPECT_NEAR(std::abs(v[i] - want), 0.0, tol)
            << "(" << x << "," << y << "," << z << ")";
        ++i;
      }
}

struct RCase {
  std::array<int, 3> n;
  int ranks;
  ExchangeBackend backend;
};

class ReshapeSweep : public ::testing::TestWithParam<RCase> {};

TEST_P(ReshapeSweep, BrickToPencilDeliversEveryElement) {
  const auto c = GetParam();
  run_ranks(c.ranks, [&](Comm& comm) {
    const auto bricks = split_brick(c.n, proc_grid3(c.ranks));
    for (int dir = 0; dir < 3; ++dir) {
      const auto pencils = split_pencil(c.n, dir, c.ranks);
      ReshapeOptions o;
      o.backend = c.backend;
      o.gpus_per_node = 3;
      Reshape<std::complex<double>> rs(comm, bricks, pencils, o);
      const auto in = fill_box(rs.inbox());
      std::vector<std::complex<double>> out(
          static_cast<std::size_t>(rs.outbox().count()));
      rs.execute(in, out);
      expect_box(rs.outbox(), out, 0.0);
    }
  });
}

TEST_P(ReshapeSweep, PencilToPencilChain) {
  const auto c = GetParam();
  run_ranks(c.ranks, [&](Comm& comm) {
    const auto xp = split_pencil(c.n, 0, c.ranks);
    const auto yp = split_pencil(c.n, 1, c.ranks);
    ReshapeOptions o;
    o.backend = c.backend;
    Reshape<std::complex<double>> rs(comm, xp, yp, o);
    const auto in = fill_box(rs.inbox());
    std::vector<std::complex<double>> out(
        static_cast<std::size_t>(rs.outbox().count()));
    rs.execute(in, out);
    expect_box(rs.outbox(), out, 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ReshapeSweep,
    ::testing::Values(RCase{{8, 8, 8}, 1, ExchangeBackend::kPairwise},
                      RCase{{8, 8, 8}, 4, ExchangeBackend::kPairwise},
                      RCase{{8, 8, 8}, 4, ExchangeBackend::kOsc},
                      RCase{{12, 6, 10}, 6, ExchangeBackend::kPairwise},
                      RCase{{12, 6, 10}, 6, ExchangeBackend::kOsc},
                      RCase{{7, 9, 5}, 5, ExchangeBackend::kPairwise},
                      RCase{{7, 9, 5}, 5, ExchangeBackend::kOsc},
                      RCase{{16, 16, 16}, 8, ExchangeBackend::kOsc}),
    [](const auto& info) {
      const auto& c = info.param;
      return std::string(to_string(c.backend)) + "_p" +
             std::to_string(c.ranks) + "_n" + std::to_string(c.n[0]) + "x" +
             std::to_string(c.n[1]) + "x" + std::to_string(c.n[2]);
    });

TEST(Reshape, RoundTripBrickPencilBrickIsIdentity) {
  run_ranks(6, [](Comm& comm) {
    const std::array<int, 3> n{10, 12, 6};
    const auto bricks = split_brick(n, proc_grid3(6));
    const auto pencils = split_pencil(n, 2, 6);
    ReshapeOptions o;
    Reshape<std::complex<double>> fwd(comm, bricks, pencils, o);
    Reshape<std::complex<double>> bwd(comm, pencils, bricks, o);
    const auto in = fill_box(fwd.inbox());
    std::vector<std::complex<double>> mid(
        static_cast<std::size_t>(fwd.outbox().count()));
    std::vector<std::complex<double>> back(in.size());
    fwd.execute(in, mid);
    bwd.execute(mid, back);
    for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(back[i], in[i]);
  });
}

TEST(Reshape, CompressedExchangeBoundsError) {
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    const auto bricks = split_brick(n, proc_grid3(4));
    const auto pencils = split_pencil(n, 0, 4);
    ReshapeOptions o;
    o.backend = ExchangeBackend::kOsc;
    o.codec = std::make_shared<CastFp32Codec>();
    Reshape<std::complex<double>> rs(comm, bricks, pencils, o);
    const auto in = fill_box(rs.inbox());
    std::vector<std::complex<double>> out(
        static_cast<std::size_t>(rs.outbox().count()));
    rs.execute(in, out);
    // Fingerprint magnitudes reach ~7e4; FP32 keeps ~7 digits.
    expect_box(rs.outbox(), out, 1e-2);
    EXPECT_NEAR(rs.stats().compression_ratio(), 2.0, 1e-9);
  });
}

TEST(Reshape, FloatFieldsExchangeRaw) {
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    const auto bricks = split_brick(n, proc_grid3(4));
    const auto pencils = split_pencil(n, 1, 4);
    Reshape<std::complex<float>> rs(comm, bricks, pencils, ReshapeOptions{});
    const Box3& ib = rs.inbox();
    std::vector<std::complex<float>> in(
        static_cast<std::size_t>(ib.count()));
    std::size_t i = 0;
    for (int z = ib.lo[2]; z < ib.hi(2); ++z)
      for (int y = ib.lo[1]; y < ib.hi(1); ++y)
        for (int x = ib.lo[0]; x < ib.hi(0); ++x)
          in[i++] = {static_cast<float>(x + 8 * y),
                     static_cast<float>(z)};
    std::vector<std::complex<float>> out(
        static_cast<std::size_t>(rs.outbox().count()));
    rs.execute(in, out);
    const Box3& ob = rs.outbox();
    i = 0;
    for (int z = ob.lo[2]; z < ob.hi(2); ++z)
      for (int y = ob.lo[1]; y < ob.hi(1); ++y)
        for (int x = ob.lo[0]; x < ob.hi(0); ++x) {
          EXPECT_EQ(out[i].real(), static_cast<float>(x + 8 * y));
          EXPECT_EQ(out[i].imag(), static_cast<float>(z));
          ++i;
        }
  });
}

TEST(Reshape, EveryTransportRegimeDeliversExactly) {
  // One exchange path at every transport regime: all-eager, the default
  // crossover, and all-rendezvous (zero-copy from the peer's staging).
  // complex<double> fields and float fields with odd per-peer counts
  // (4-byte messages that are not a whole number of doubles) must each
  // land the exact expected redistribution on both backends.
  const std::size_t thresholds[] = {minimpi::kEagerOnlyThreshold, 4096, 0};
  for (const std::size_t threshold : thresholds) {
    minimpi::MinimpiOptions mo;
    mo.rendezvous_threshold = threshold;
    run_ranks(6, mo, [&](Comm& comm) {
      const std::array<int, 3> n{7, 9, 5};
      const auto bricks = split_brick(n, proc_grid3(6));
      const auto pencils = split_pencil(n, 1, 6);
      bool odd = false;
      for (const Box3& a : bricks) {
        for (const Box3& b : pencils) {
          odd |= Box3::intersect(a, b).count() % 2 == 1;
        }
      }
      EXPECT_TRUE(odd) << "the layout must carry odd per-peer counts";
      const auto fvalue = [](int x, int y, int z) {
        return static_cast<float>(x + 16 * y + 256 * z);
      };
      for (const ExchangeBackend backend :
           {ExchangeBackend::kPairwise, ExchangeBackend::kOsc}) {
        SCOPED_TRACE(std::string(to_string(backend)) +
                     " threshold=" + std::to_string(threshold));
        ReshapeOptions o;
        o.backend = backend;
        o.gpus_per_node = 2;
        Reshape<std::complex<double>> crs(comm, bricks, pencils, o);
        Reshape<float> frs(comm, bricks, pencils, o);
        const auto in = fill_box(crs.inbox());
        std::vector<std::complex<double>> out(
            static_cast<std::size_t>(crs.outbox().count()));
        const Box3& ib = frs.inbox();
        std::vector<float> fin(static_cast<std::size_t>(ib.count()));
        std::size_t i = 0;
        for (int z = ib.lo[2]; z < ib.hi(2); ++z)
          for (int y = ib.lo[1]; y < ib.hi(1); ++y)
            for (int x = ib.lo[0]; x < ib.hi(0); ++x) {
              fin[i++] = fvalue(x, y, z);
            }
        std::vector<float> fout(static_cast<std::size_t>(frs.outbox().count()));
        for (int it = 0; it < 2; ++it) {
          std::fill(out.begin(), out.end(), std::complex<double>{-1, -1});
          std::fill(fout.begin(), fout.end(), -1.f);
          crs.execute(in, out);
          frs.execute(std::span<const float>(fin), std::span<float>(fout));
          expect_box(crs.outbox(), out, 0.0);
          const Box3& ob = frs.outbox();
          i = 0;
          for (int z = ob.lo[2]; z < ob.hi(2); ++z)
            for (int y = ob.lo[1]; y < ob.hi(1); ++y)
              for (int x = ob.lo[0]; x < ob.hi(0); ++x) {
                ASSERT_EQ(fout[i], fvalue(x, y, z))
                    << "it=" << it << " (" << x << "," << y << "," << z << ")";
                ++i;
              }
        }
      }
    });
  }
}

TEST(Reshape, PackElisionFiresOnCompatibleGeometryAndMatchesPackedBytewise) {
  // z-pencils {2, 4} -> bricks {2, 2, 2} on a cubic grid: every sub-volume
  // a rank sends spans full x and y of its pencil, so the pack stage is an
  // identity copy and elides — the exchange reads straight out of the
  // field. Results must be bitwise identical to the forced-pack path on
  // every backend (pairwise raw, one-sided raw, codec).
  run_ranks(8, [](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    const auto zp = split_pencil(n, 2, std::array<int, 2>{2, 4});
    const auto bricks = split_brick(n, {2, 2, 2});

    const auto check = [&](ReshapeOptions base) {
      ReshapeOptions packed = base;
      packed.pack_elision = false;
      Reshape<std::complex<double>> er(comm, zp, bricks, base);
      Reshape<std::complex<double>> pr(comm, zp, bricks, packed);
      EXPECT_TRUE(er.pack_elided()) << to_string(base.backend);
      EXPECT_FALSE(pr.pack_elided());
      const auto in = fill_box(er.inbox());
      const auto out_n = static_cast<std::size_t>(er.outbox().count());
      std::vector<std::complex<double>> eout(out_n, {-1, -1});
      std::vector<std::complex<double>> pout(out_n, {-2, -2});
      for (int it = 0; it < 2; ++it) {
        er.execute(in, eout);
        pr.execute(in, pout);
        for (std::size_t i = 0; i < out_n; ++i) {
          ASSERT_EQ(eout[i], pout[i])
              << to_string(base.backend) << " it=" << it << " i=" << i;
        }
      }
      // Elision is an execution detail: stats are unchanged.
      EXPECT_EQ(er.stats().payload_bytes, pr.stats().payload_bytes);
      EXPECT_EQ(er.stats().wire_bytes, pr.stats().wire_bytes);
    };

    ReshapeOptions pairwise;  // Raw two-sided plan.
    check(pairwise);
    ReshapeOptions osc;
    osc.backend = ExchangeBackend::kOsc;
    osc.gpus_per_node = 2;
    check(osc);
    ReshapeOptions codec = osc;
    codec.codec = std::make_shared<CastFp32Codec>();
    check(codec);

    // Incompatible geometry (x-pencils -> y-pencils: sends take a partial
    // x range over multiple rows) keeps packing even with elision enabled.
    Reshape<std::complex<double>> strided(comm, split_pencil(n, 0, 8),
                                          split_pencil(n, 1, 8),
                                          ReshapeOptions{});
    EXPECT_FALSE(strided.pack_elided());
  });
}

TEST(Reshape, PackElisionBatchedExecuteMatchesPerField) {
  // Batched elided exchanges read the field banks of `in` directly (bank
  // stride == send_total_); results must match per-field executes exactly.
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{6, 4, 8};
    const auto zp = split_pencil(n, 2, std::array<int, 2>{2, 2});
    const auto bricks = split_brick(n, {1, 2, 2});
    ReshapeOptions bo;
    bo.backend = ExchangeBackend::kOsc;
    bo.gpus_per_node = 2;
    bo.batch = 3;
    Reshape<std::complex<double>> batched(comm, zp, bricks, bo);
    ReshapeOptions po = bo;
    po.pack_elision = false;
    Reshape<std::complex<double>> packed(comm, zp, bricks, po);
    ASSERT_TRUE(batched.pack_elided());
    const auto in_n = static_cast<std::size_t>(batched.inbox().count());
    const auto out_n = static_cast<std::size_t>(batched.outbox().count());
    std::vector<std::complex<double>> in(3 * in_n);
    Xoshiro256 rng(11 + static_cast<std::uint64_t>(comm.rank()));
    fill_uniform_complex(rng, in);
    std::vector<std::complex<double>> bout(3 * out_n, {-1, -1});
    std::vector<std::complex<double>> pout(3 * out_n, {-2, -2});
    batched.execute_batch(in, bout, 3);
    packed.execute_batch(in, pout, 3);
    for (std::size_t i = 0; i < bout.size(); ++i) {
      ASSERT_EQ(bout[i], pout[i]) << i;
    }
  });
}

TEST(Reshape, FloatWithCodecRejected) {
  run_ranks(2, [](Comm& comm) {
    const std::array<int, 3> n{4, 4, 4};
    ReshapeOptions o;
    o.codec = std::make_shared<CastFp32Codec>();
    EXPECT_THROW(Reshape<std::complex<float>>(comm, split_brick(n, proc_grid3(2)),
                                split_pencil(n, 0, 2), o),
                 Error);
    comm.barrier();
  });
}

TEST(Reshape, MismatchedSpansRejected) {
  run_ranks(2, [](Comm& comm) {
    const std::array<int, 3> n{4, 4, 4};
    Reshape<std::complex<double>> rs(comm, split_brick(n, proc_grid3(2)),
                       split_pencil(n, 0, 2), ReshapeOptions{});
    std::vector<std::complex<double>> wrong(3), out(
        static_cast<std::size_t>(rs.outbox().count()));
    EXPECT_THROW(rs.execute(wrong, out), Error);
    comm.barrier();
  });
}

TEST(Reshape, RandomDecompositionsRoundTrip) {
  // Property: for ANY pair of tilings of the grid (not just bricks and
  // pencils), reshape A->B followed by B->A is the identity. Random
  // brick-grid tilings with uneven splits exercise degenerate overlaps.
  const std::array<int, 3> n{12, 10, 8};
  const int p = 6;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    // Random process-grid tiling: pick a random factorization of p and
    // (deterministically) uneven interval splits.
    Xoshiro256 rng(seed);
    const std::array<std::array<int, 3>, 4> grids = {
        std::array<int, 3>{6, 1, 1}, {1, 6, 1}, {2, 3, 1}, {3, 1, 2}};
    const auto ga = grids[rng.below(4)];
    const auto gb = grids[rng.below(4)];
    const auto boxes_a = split_brick(n, ga);
    const auto boxes_b = split_brick(n, gb);
    run_ranks(p, [&](Comm& comm) {
      ReshapeOptions o;
      o.backend = seed % 2 == 0 ? ExchangeBackend::kOsc
                                : ExchangeBackend::kPairwise;
      Reshape<std::complex<double>> fwd(comm, boxes_a, boxes_b, o);
      Reshape<std::complex<double>> bwd(comm, boxes_b, boxes_a, o);
      const auto in = fill_box(fwd.inbox());
      std::vector<std::complex<double>> mid(
          static_cast<std::size_t>(fwd.outbox().count()));
      std::vector<std::complex<double>> back(in.size());
      fwd.execute(in, mid);
      expect_box(fwd.outbox(), mid, 0.0);
      bwd.execute(mid, back);
      for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(back[i], in[i]);
      }
    });
  }
}

TEST(Reshape, RecordsExchangeTime) {
  run_ranks(2, [](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    Reshape<std::complex<double>> rs(comm, split_brick(n, proc_grid3(2)),
                                     split_pencil(n, 0, 2), ReshapeOptions{});
    const auto in = fill_box(rs.inbox());
    std::vector<std::complex<double>> out(
        static_cast<std::size_t>(rs.outbox().count()));
    rs.execute(in, out);
    EXPECT_GT(rs.stats().seconds, 0.0);
  });
}

TEST(Reshape, StatsAccumulatePayload) {
  run_ranks(4, [](Comm& comm) {
    const std::array<int, 3> n{8, 8, 8};
    Reshape<std::complex<double>> rs(comm, split_brick(n, proc_grid3(4)),
                       split_pencil(n, 0, 4), ReshapeOptions{});
    const auto in = fill_box(rs.inbox());
    std::vector<std::complex<double>> out(
        static_cast<std::size_t>(rs.outbox().count()));
    rs.execute(in, out);
    rs.execute(in, out);
    // Two executions, each moving the rank's whole inbox (16 bytes/elem).
    EXPECT_EQ(rs.stats().payload_bytes,
              2ull * static_cast<std::uint64_t>(rs.inbox().count()) * 16);
  });
}

}  // namespace
}  // namespace lossyfft
