/**
 * @file
 * Bit-exactness contract of the vectorised hot kernel (common/simd.hh,
 * DESIGN.md §13): the SIMD perceptron dot product must equal its scalar
 * reference on any input.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/simd.hh"

namespace pubs
{
namespace
{

#if PUBS_SIMD_COMPILED

TEST(SimdKernels, PerceptronDotMatchesScalarReference)
{
    Rng rng(12345);
    for (int trial = 0; trial < 2000; ++trial) {
        // The production shapes: up to 64 history bits, weights
        // saturated to [-128, 127] by the perceptron update rule.
        unsigned n = 1 + (unsigned)rng.below(64);
        int16_t w[64];
        for (unsigned i = 0; i < n; ++i)
            w[i] = (int16_t)((int)rng.below(256) - 128);
        uint64_t history = rng.next();
        ASSERT_EQ(simd::perceptronDotSimd(w, n, history),
                  simd::perceptronDotScalar(w, n, history))
            << "n=" << n << " history=" << history;
    }
}

#endif // PUBS_SIMD_COMPILED

} // namespace
} // namespace pubs
