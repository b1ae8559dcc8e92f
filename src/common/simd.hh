/**
 * @file
 * SSE2 kernel for the perceptron dot product, the one hot loop whose
 * vector form measured faster than its scalar loop (DESIGN.md §13). It
 * is pure integer arithmetic and bit-identical to the scalar reference:
 * it accumulates int16 partial sums per lane (bounded by 64 terms x
 * |w| <= 128 = 8192, far from int16 overflow) and reduces them in int32
 * — integer addition is associative, so the lane-major order cannot
 * change the sum.
 *
 * The target decides: wherever the compiler targets SSE2 (every x86-64
 * build) the vector kernel is compiled and used; elsewhere the scalar
 * reference is the kernel.
 */

#ifndef PUBS_COMMON_SIMD_HH
#define PUBS_COMMON_SIMD_HH

#include <cstdint>

#if defined(__SSE2__)
#define PUBS_SIMD_COMPILED 1
#include <immintrin.h>
#else
#define PUBS_SIMD_COMPILED 0
#endif

namespace pubs::simd
{

/**
 * Scalar reference for the perceptron dot product over @p n history
 * bits: sum of (+w[i] if history bit i set else -w[i]). The branchless
 * form matches the original predictor loop exactly. It is the kernel on
 * targets without SSE2.
 */
inline int
perceptronDotScalar(const int16_t *w, unsigned n, uint64_t history)
{
    int y = 0;
    for (unsigned i = 0; i < n; ++i) {
        int m = -(int)((history >> i) & 1);
        y += ((int)w[i] ^ ~m) + (m + 1);
    }
    return y;
}

#if PUBS_SIMD_COMPILED

/**
 * SSE2 dot product. Each lane holds the signed contribution of one
 * weight; lanes accumulate in int16 (|sum| <= ceil(64/8) x 128 per
 * lane) and reduce via _mm_madd_epi16 into int32.
 */
inline int
perceptronDotSimd(const int16_t *w, unsigned n, uint64_t history)
{
    unsigned i = 0;
    int y = 0;
    if (i + 8 <= n) {
        const __m128i bitsel = _mm_set_epi16((short)0x0080, 0x0040, 0x0020,
                                             0x0010, 0x0008, 0x0004, 0x0002,
                                             0x0001);
        __m128i acc = _mm_setzero_si128();
        for (; i + 8 <= n; i += 8) {
            __m128i wv = _mm_loadu_si128((const __m128i *)(w + i));
            __m128i h = _mm_set1_epi16((short)((history >> i) & 0xff));
            __m128i m = _mm_cmpeq_epi16(_mm_and_si128(h, bitsel), bitsel);
            __m128i pos = _mm_and_si128(wv, m);
            __m128i neg = _mm_andnot_si128(m, wv);
            acc = _mm_add_epi16(acc, _mm_sub_epi16(pos, neg));
        }
        __m128i sums = _mm_madd_epi16(acc, _mm_set1_epi16(1)); // 4 x int32
        sums = _mm_add_epi32(
            sums, _mm_shuffle_epi32(sums, _MM_SHUFFLE(1, 0, 3, 2)));
        sums = _mm_add_epi32(
            sums, _mm_shuffle_epi32(sums, _MM_SHUFFLE(2, 3, 0, 1)));
        y += _mm_cvtsi128_si32(sums);
    }
    for (; i < n; ++i) {
        int m = -(int)((history >> i) & 1);
        y += ((int)w[i] ^ ~m) + (m + 1);
    }
    return y;
}

#endif // PUBS_SIMD_COMPILED

/** The target's perceptron dot product (see the scalar reference). */
inline int
perceptronDot(const int16_t *w, unsigned n, uint64_t history)
{
#if PUBS_SIMD_COMPILED
    return perceptronDotSimd(w, n, history);
#else
    return perceptronDotScalar(w, n, history);
#endif
}

} // namespace pubs::simd

#endif // PUBS_COMMON_SIMD_HH
