/**
 * @file
 * Compile-time verification of the Goldilocks field constants.
 *
 * Every proof, benchmark table, and simulator figure in this repository
 * rests on the handful of constants in goldilocks.h. A bad edit there
 * (wrong modulus digit, wrong generator, wrong 2-adicity) would not
 * crash anything -- it would silently produce wrong proofs and wrong
 * Table 3 rows. The static_asserts below make any such edit a compile
 * error instead.
 *
 * All checks run during constant evaluation only; this header generates
 * no code. It is included by goldilocks.cpp (so the checks are always
 * compiled into the library build) and by ntt.cpp (whose twiddle tables
 * depend on the subgroup structure verified here).
 */

#ifndef UNIZK_FIELD_FIELD_CHECKS_H
#define UNIZK_FIELD_FIELD_CHECKS_H

#include <cstdint>

#include "field/goldilocks.h"

namespace unizk {
namespace selfcheck {

/** x generates a subgroup of order exactly 2^k. */
constexpr bool
isPrimitiveRootOfOrderPow2(Fp x, uint32_t k)
{
    // x^(2^k) must be 1 and x^(2^(k-1)) must not be (for k >= 1).
    Fp acc = x;
    for (uint32_t i = 0; i < k; ++i) {
        if (i == k - 1 && acc.isOne())
            return false; // order divides 2^(k-1): too small
        acc = acc.squared();
    }
    return acc.isOne();
}

/** The prime factors of p - 1 = 2^32 * 3 * 5 * 17 * 257 * 65537. */
inline constexpr uint64_t orderPrimeFactors[] = {2, 3, 5, 17, 257, 65537};

/** g has order exactly p - 1 (i.e. generates the full group). */
constexpr bool
generatesFullMultiplicativeGroup(Fp g)
{
    const uint64_t order = Fp::modulus - 1;
    if (!g.pow(order).isOne())
        return false;
    for (uint64_t q : orderPrimeFactors) {
        if (g.pow(order / q).isOne())
            return false; // order divides (p-1)/q: not a generator
    }
    return true;
}

// --- The modulus is the Goldilocks prime 2^64 - 2^32 + 1. -----------------
static_assert(Fp::modulus == 0xFFFFFFFFFFFFFFFFULL - 0xFFFFFFFFULL + 1,
              "modulus is not 2^64 - 2^32 + 1");
static_assert(Fp::modulus == 0xFFFFFFFF00000001ULL,
              "modulus literal mismatch");

// --- 2-adicity: p - 1 = 2^32 * odd, and the factor list is consistent. ----
static_assert((Fp::modulus - 1) % (uint64_t{1} << Fp::twoAdicity) == 0,
              "2^twoAdicity does not divide p - 1");
static_assert(((Fp::modulus - 1) >> Fp::twoAdicity) % 2 == 1,
              "twoAdicity is not maximal");
static_assert((Fp::modulus - 1) ==
                  (uint64_t{1} << 32) * 3 * 5 * 17 * 257 * 65537,
              "prime factorization of p - 1 is wrong");

// --- The multiplicative generator really generates the full group. --------
static_assert(generatesFullMultiplicativeGroup(
                  Fp(Fp::multiplicativeGenerator)),
              "multiplicativeGenerator does not have order p - 1");

// --- Two-adic roots of unity are consistent with twoAdicity. --------------
static_assert(isPrimitiveRootOfOrderPow2(
                  Fp::primitiveRootOfUnity(Fp::twoAdicity),
                  Fp::twoAdicity),
              "primitiveRootOfUnity(32) does not have order 2^32");
static_assert(Fp::primitiveRootOfUnity(0) == Fp::one(),
              "order-1 root must be 1");
static_assert(Fp::primitiveRootOfUnity(1) == Fp(Fp::modulus - 1),
              "order-2 root must be -1");
static_assert(Fp::primitiveRootOfUnity(31) ==
                  Fp::primitiveRootOfUnity(32).squared(),
              "root tower is inconsistent: w_31 != w_32^2");
static_assert(Fp::primitiveRootOfUnity(15) ==
                  Fp::primitiveRootOfUnity(16).squared(),
              "root tower is inconsistent: w_15 != w_16^2");

// --- Branchless primitives agree with the operators on every carry -------
// --- pattern (no wrap, 2^64 wrap, >= p, borrow). The NTT butterflies ------
// --- run exclusively on these, so a divergence would silently corrupt -----
// --- every proof. ---------------------------------------------------------
constexpr bool
branchlessOpsMatchOperators()
{
    const Fp cases[] = {Fp::zero(),
                        Fp::one(),
                        Fp(2),
                        Fp(0xFFFFFFFFULL),          // 2^32 - 1
                        Fp(0x100000000ULL),         // 2^32
                        Fp(Fp::modulus - 1),        // -1
                        Fp(Fp::modulus - 0xFFFFFFFFULL),
                        Fp(0x123456789ABCDEFULL),
                        Fp(Fp::modulus / 2),
                        Fp(Fp::modulus / 2 + 1)};
    for (const Fp a : cases) {
        for (const Fp b : cases) {
            if (Fp::addBranchless(a, b) != a + b)
                return false;
            if (Fp::subBranchless(a, b) != a - b)
                return false;
            if (Fp::mulBranchless(a, b) != a * b)
                return false;
            // Both products share reduce128; pin it to the % oracle.
            const auto prod =
                static_cast<unsigned __int128>(a.value()) * b.value();
            if ((a * b).value() != prod % Fp::modulus)
                return false;
        }
    }
    return true;
}

static_assert(branchlessOpsMatchOperators(),
              "branchless field primitives diverge from the operators");

// --- Field arithmetic spot checks (exercised at compile time). ------------
static_assert((Fp(7).inverse() * Fp(7)).isOne(), "inverse(7)*7 != 1");
static_assert(Fp(Fp::modulus - 1) * Fp(Fp::modulus - 1) == Fp::one(),
              "(-1)^2 != 1");
static_assert(Fp(Fp::modulus - 1) + Fp::one() == Fp::zero(),
              "(p-1) + 1 != 0");
static_assert(Fp::reduce128(
                  static_cast<unsigned __int128>(Fp::modulus) *
                  Fp::modulus) == 0,
              "reduce128(p^2) != 0");
static_assert(Fp::reduce128(~static_cast<unsigned __int128>(0)) ==
                  static_cast<uint64_t>(~static_cast<unsigned __int128>(0) %
                                        Fp::modulus),
              "reduce128(2^128 - 1) is wrong");

} // namespace selfcheck
} // namespace unizk

#endif // UNIZK_FIELD_FIELD_CHECKS_H
