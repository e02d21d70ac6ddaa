/**
 * @file
 * Batched FRI polynomial commitment opening (Fast Reed-Solomon IOP of
 * Proximity), the PCS used by both Plonky2 and Starky (paper Fig. 1,
 * right).
 *
 * Protocol outline:
 *  1. All committed polynomials are batched with powers of a challenge
 *     alpha into B(X); the openings at each point z_j give the DEEP
 *     quotient G(X) = sum_j alpha_j * (B(X) - B(z_j)) / (X - z_j),
 *     which is low-degree iff every claimed opening is correct.
 *  2. Commit phase: G is committed and repeatedly folded in half with
 *     verifier challenges (arity 2), each folded layer committed, until
 *     the residual polynomial is short enough to send in the clear.
 *  3. Proof-of-work grinding.
 *  4. Query phase: random domain positions are opened through all
 *     layers; the verifier checks Merkle paths, recomputes G at the
 *     query point from the initial openings, and checks every folding
 *     step down to the final polynomial.
 */

#ifndef UNIZK_FRI_FRI_H
#define UNIZK_FRI_FRI_H

#include <cstdint>
#include <vector>

#include "fri/polynomial_batch.h"
#include "hash/challenger.h"

namespace unizk {

/** One opened (pair, path) in a folded layer. */
struct FriLayerOpening
{
    std::array<Fp2, 2> pair;
    MerkleProof proof;
};

/** Opened leaf of an initial (polynomial batch) tree. */
struct FriInitialOpening
{
    std::vector<Fp> values;
    MerkleProof proof;
};

/** Everything opened for one query index. */
struct FriQueryRound
{
    std::vector<FriInitialOpening> initial; ///< one per batch
    std::vector<FriLayerOpening> layers;    ///< one per folded layer
};

struct FriProof
{
    std::vector<MerkleCap> layerCaps;
    std::vector<Fp2> finalPoly; ///< coefficients, low to high
    uint64_t powNonce = 0;
    std::vector<FriQueryRound> queries;

    /** Proof size in bytes (for Table 5 style reporting). */
    size_t byteSize() const;
};

/**
 * Prove the openings of all polynomials in @p batches at each point of
 * @p points. @p openings[j][k] must equal the k-th polynomial's value at
 * points[j], where k runs over all batches' polynomials in order; they
 * must already have been observed into @p challenger by the caller.
 */
FriProof friProve(const std::vector<const PolynomialBatch *> &batches,
                  const std::vector<Fp2> &points,
                  const std::vector<std::vector<Fp2>> &openings,
                  Challenger &challenger, const FriConfig &cfg,
                  const ProverContext &ctx);

/**
 * Proof-of-work grind: the smallest nonce whose hashNoPad({challenge,
 * nonce}) digest has @p bits leading zero bits (0 when @p bits is 0).
 * Nonces are searched in blocks, in order; each block is one pool
 * region of 64-nonce chunks hashed through Poseidon::permuteBatch, so
 * the nonce is the same at every thread count and SIMD level. The
 * work past the answer, at most one block (<= 4096 permutations), is
 * not part of the logical nonce + 1 count.
 */
uint64_t friGrind(Fp challenge, uint32_t bits);

/** Verifier-side view of one committed batch. */
struct FriBatchInfo
{
    MerkleCap cap;
    size_t polyCount = 0;
};

/**
 * Verify a FRI opening proof. @p degree_bound is the common degree
 * bound n of the committed polynomials; the challenger must be in the
 * same state as the prover's was when friProve was called.
 */
bool friVerify(const std::vector<FriBatchInfo> &batches,
               size_t degree_bound, const std::vector<Fp2> &points,
               const std::vector<std::vector<Fp2>> &openings,
               const FriProof &proof, Challenger &challenger,
               const FriConfig &cfg);

} // namespace unizk

#endif // UNIZK_FRI_FRI_H
