/**
 * @file
 * Tests for the FRI polynomial commitment: commitment construction,
 * honest prove/verify round trips across configurations, and soundness
 * checks (tampered openings, wrong points, corrupted proofs must fail),
 * and the batched proof-of-work grind against a sequential reference.
 */

#include <gtest/gtest.h>

#include <variant>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "fri/fri.h"
#include "hash/goldilocks_simd.h"
#include "obs/obs.h"

namespace unizk {
namespace {

std::vector<std::vector<Fp>>
randomValues(size_t num_polys, size_t n, uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<std::vector<Fp>> vals(num_polys);
    for (auto &v : vals) {
        v.resize(n);
        for (auto &x : v)
            x = randomFp(rng);
    }
    return vals;
}

/** Everything needed to drive one honest FRI round trip. */
struct FriFixture
{
    FriConfig cfg;
    std::unique_ptr<PolynomialBatch> batch_a;
    std::unique_ptr<PolynomialBatch> batch_b;
    std::vector<Fp2> points;
    std::vector<std::vector<Fp2>> openings;
    FriProof proof;

    FriFixture(size_t n, size_t polys_a, size_t polys_b, FriConfig config,
               TraceRecorder *recorder = nullptr)
        : cfg(config)
    {
        ProverContext ctx;
        ctx.recorder = recorder;
        batch_a = std::make_unique<PolynomialBatch>(
            PolynomialBatch::fromValues(randomValues(polys_a, n, 1), cfg,
                                        ctx, "a"));
        batch_b = std::make_unique<PolynomialBatch>(
            PolynomialBatch::fromValues(randomValues(polys_b, n, 2), cfg,
                                        ctx, "b"));

        Challenger challenger;
        const Fp2 zeta = challenger.challengeExt();
        const Fp g = Fp::primitiveRootOfUnity(log2Exact(n));
        points = {zeta, zeta * g};

        for (const Fp2 &z : points) {
            std::vector<Fp2> row;
            for (const auto *b : {batch_a.get(), batch_b.get()})
                for (const Fp2 &v : b->evalAllExt(z))
                    row.push_back(v);
            openings.push_back(std::move(row));
        }
        for (const auto &row : openings)
            for (const Fp2 &v : row) {
                challenger.observe(v.limb(0));
                challenger.observe(v.limb(1));
            }

        proof = friProve({batch_a.get(), batch_b.get()}, points, openings,
                         challenger, cfg, ctx);
    }

    std::vector<FriBatchInfo>
    batchInfos() const
    {
        return {{batch_a->cap(), batch_a->polyCount()},
                {batch_b->cap(), batch_b->polyCount()}};
    }

    bool
    verify(const std::vector<std::vector<Fp2>> &open,
           const FriProof &p) const
    {
        Challenger challenger;
        const Fp2 zeta = challenger.challengeExt();
        (void)zeta;
        for (const auto &row : open)
            for (const Fp2 &v : row) {
                challenger.observe(v.limb(0));
                challenger.observe(v.limb(1));
            }
        return friVerify(batchInfos(), batch_a->degreeBound(), points,
                         open, p, challenger, cfg);
    }
};

TEST(PolynomialBatch, LeavesMatchNaiveEvaluation)
{
    const size_t n = 16;
    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    auto values = randomValues(3, n, 7);
    const auto orig = values;
    PolynomialBatch batch =
        PolynomialBatch::fromValues(std::move(values), cfg, ctx, "t");

    EXPECT_EQ(batch.polyCount(), 3u);
    EXPECT_EQ(batch.degreeBound(), n);
    EXPECT_EQ(batch.ldeSize(), n * cfg.blowup());

    // The committed polynomial must interpolate the original values on
    // the subgroup H: check p(w^i) = values[i] via coefficients.
    const Fp w = Fp::primitiveRootOfUnity(log2Exact(n));
    for (size_t p = 0; p < 3; ++p) {
        const Polynomial poly(batch.coefficients(p));
        for (size_t i = 0; i < n; i += 5)
            EXPECT_EQ(poly.eval(w.pow(i)), orig[p][i]);
    }

    // Leaf i holds all polys' values at LDE point shift*w_big^rev(i).
    const size_t lde = batch.ldeSize();
    const Fp w_big = Fp::primitiveRootOfUnity(log2Exact(lde));
    for (size_t i : {size_t{0}, size_t{1}, lde - 1}) {
        const Fp x = cfg.shift() * w_big.pow(reverseBits(i,
                                                         log2Exact(lde)));
        for (size_t p = 0; p < 3; ++p) {
            const Polynomial poly(batch.coefficients(p));
            EXPECT_EQ(batch.ldeValue(p, i), poly.eval(x));
        }
    }
}

TEST(PolynomialBatch, EvalExtMatchesBaseFieldEval)
{
    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    PolynomialBatch batch = PolynomialBatch::fromValues(
        randomValues(2, 8, 9), cfg, ctx, "t");
    const Fp x(12345);
    const Polynomial poly(batch.coefficients(1));
    EXPECT_EQ(batch.evalExt(1, Fp2(x)), Fp2(poly.eval(x)));
}

TEST(PolynomialBatch, RecordsKernels)
{
    TraceRecorder recorder;
    ProverContext ctx;
    ctx.recorder = &recorder;
    const FriConfig cfg = FriConfig::testing();
    PolynomialBatch::fromValues(randomValues(2, 16, 10), cfg, ctx, "t");
    // iNTT + LDE NTT + transpose + merkle
    ASSERT_EQ(recorder.trace().size(), 4u);
    EXPECT_STREQ(kernelPayloadName(recorder.trace().ops[0].payload), "ntt");
    EXPECT_STREQ(kernelPayloadName(recorder.trace().ops[3].payload),
                 "merkle");
}

TEST(Fri, HonestProofVerifies)
{
    FriFixture f(64, 3, 2, FriConfig::testing());
    EXPECT_TRUE(f.verify(f.openings, f.proof));
}

TEST(Fri, HonestProofVerifiesLargerDomain)
{
    FriConfig cfg = FriConfig::testing();
    cfg.numQueries = 10;
    FriFixture f(256, 5, 4, cfg);
    EXPECT_TRUE(f.verify(f.openings, f.proof));
}

TEST(Fri, StarkyBlowupConfigVerifies)
{
    FriConfig cfg = FriConfig::testing();
    cfg.blowupBits = 1; // Starky's blowup factor of 2
    cfg.numQueries = 12;
    FriFixture f(128, 4, 1, cfg);
    EXPECT_TRUE(f.verify(f.openings, f.proof));
}

TEST(Fri, NoFoldingLayersWhenDegreeSmall)
{
    FriConfig cfg = FriConfig::testing();
    cfg.finalPolyLen = 64;
    FriFixture f(32, 2, 1, cfg); // n < finalPolyLen: zero layers
    EXPECT_TRUE(f.proof.layerCaps.empty());
    EXPECT_TRUE(f.verify(f.openings, f.proof));
}

TEST(Fri, TamperedOpeningFails)
{
    FriFixture f(64, 3, 2, FriConfig::testing());
    auto bad = f.openings;
    bad[0][1] += Fp2::one();
    EXPECT_FALSE(f.verify(bad, f.proof));
}

TEST(Fri, TamperedFinalPolyFails)
{
    FriFixture f(64, 3, 2, FriConfig::testing());
    auto bad = f.proof;
    bad.finalPoly[0] += Fp2::one();
    EXPECT_FALSE(f.verify(f.openings, bad));
}

TEST(Fri, TamperedLayerCapFails)
{
    FriFixture f(64, 3, 2, FriConfig::testing());
    auto bad = f.proof;
    ASSERT_FALSE(bad.layerCaps.empty());
    bad.layerCaps[0][0].elems[0] += Fp::one();
    EXPECT_FALSE(f.verify(f.openings, bad));
}

TEST(Fri, TamperedQueryValueFails)
{
    FriFixture f(64, 3, 2, FriConfig::testing());
    auto bad = f.proof;
    bad.queries[0].initial[0].values[0] += Fp::one();
    EXPECT_FALSE(f.verify(f.openings, bad));
}

TEST(Fri, TamperedPowNonceFails)
{
    FriFixture f(64, 3, 2, FriConfig::testing());
    auto bad = f.proof;
    bad.powNonce += 1;
    // Either the PoW check itself or a downstream query index change
    // must reject.
    EXPECT_FALSE(f.verify(f.openings, bad));
}

TEST(Fri, WrongQueryCountFails)
{
    FriFixture f(64, 3, 2, FriConfig::testing());
    auto bad = f.proof;
    bad.queries.pop_back();
    EXPECT_FALSE(f.verify(f.openings, bad));
}

TEST(Fri, ProofSizeIsPositiveAndGrowsWithQueries)
{
    FriConfig few = FriConfig::testing();
    FriConfig many = FriConfig::testing();
    many.numQueries = few.numQueries * 2;
    FriFixture a(64, 3, 2, few);
    FriFixture b(64, 3, 2, many);
    EXPECT_GT(a.proof.byteSize(), 0u);
    EXPECT_GT(b.proof.byteSize(), a.proof.byteSize());
}

/**
 * The verifier's rule, one nonce at a time: the first nonce below
 * @p limit whose digest has @p bits leading zero bits, else @p limit.
 */
uint64_t
sequentialGrind(Fp challenge, uint32_t bits,
                uint64_t limit = ~uint64_t{0})
{
    if (bits == 0)
        return 0;
    uint64_t nonce = 0;
    while (nonce < limit &&
           fpHighBits(hashNoPad({challenge, Fp(nonce)}).elems[0], bits) != 0)
        ++nonce;
    return nonce;
}

TEST(Fri, GrindMatchesSequentialReference)
{
    struct Probe
    {
        Fp challenge;
        uint32_t bits;
        uint64_t nonce;
    };
    std::vector<Probe> probes;
    SplitMix64 rng(12);
    for (int i = 0; i < 32; ++i) {
        const Fp challenge = randomFp(rng);
        for (uint32_t bits : {0u, 1u, 4u, 8u, 12u})
            probes.push_back({challenge, bits, sequentialGrind(challenge,
                                                               bits)});
    }
    // Seeded searches for 8-bit answers at the edges of the search
    // layout (64-nonce chunks, 256-nonce blocks at 8 bits): nonce 0,
    // the last nonce of the first chunk and the first of the second,
    // the first nonce of the second block, and the first nonce of the
    // second block's second chunk.
    for (const auto &[lo, hi] : {std::pair<uint64_t, uint64_t>{0, 1},
                                 {63, 64},
                                 {64, 65},
                                 {256, 258},
                                 {320, 322}}) {
        for (;;) {
            const Fp challenge = randomFp(rng);
            const uint64_t nonce = sequentialGrind(challenge, 8, hi);
            if (nonce >= lo && nonce < hi) {
                probes.push_back({challenge, 8, nonce});
                break;
            }
        }
    }

    const unsigned prev_threads = globalThreadCount();
    const SimdLevel prev_level = activeSimdLevel();
    for (SimdLevel level : {SimdLevel::Scalar, SimdLevel::Avx2}) {
        if (!setSimdLevel(level))
            continue; // not available on this build or CPU
        for (unsigned threads : {1u, 2u, 8u}) {
            setGlobalThreadCount(threads);
            for (const Probe &p : probes) {
                EXPECT_EQ(friGrind(p.challenge, p.bits), p.nonce)
                    << simdLevelName(level) << " threads=" << threads
                    << " bits=" << p.bits
                    << " challenge=" << p.challenge;
            }
        }
    }
    setGlobalThreadCount(prev_threads);
    ASSERT_TRUE(setSimdLevel(prev_level));
}

TEST(Fri, PowCountsAreNoncePlusOne)
{
    FriConfig cfg = FriConfig::testing();
    cfg.powBits = 8;
    const bool was_enabled = obs::enabled();
    obs::setEnabled(true);
    obs::resetAll();
    TraceRecorder recorder;
    FriFixture f(64, 3, 2, cfg, &recorder);
    [[maybe_unused]] const auto counters = obs::counterSnapshot();
    obs::setEnabled(was_enabled);

    // The logical count: the overshoot past the nonce is not counted.
    uint64_t pow_permutations = 0;
    for (const KernelOp &op : recorder.trace().ops) {
        const auto *hash = std::get_if<HashKernel>(&op.payload);
        if (hash && op.label == "FRI: proof-of-work")
            pow_permutations += hash->permutations;
    }
    EXPECT_EQ(pow_permutations, f.proof.powNonce + 1);
#if !defined(UNIZK_OBS_DISABLE)
    ASSERT_EQ(counters.count("fri.pow_iterations"), 1u);
    EXPECT_EQ(counters.at("fri.pow_iterations"), f.proof.powNonce + 1);
#endif
    EXPECT_TRUE(f.verify(f.openings, f.proof));
}

TEST(Fri, ConfigSecurityAccounting)
{
    EXPECT_EQ(FriConfig::plonky2().conjecturedSecurityBits(), 100u);
    EXPECT_EQ(FriConfig::starky().conjecturedSecurityBits(), 100u);
    EXPECT_EQ(FriConfig::plonky2().blowup(), 8u);  // paper: k >= 8
    EXPECT_EQ(FriConfig::starky().blowup(), 2u);   // paper: k = 2
}

} // namespace
} // namespace unizk
