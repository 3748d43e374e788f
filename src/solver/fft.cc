#include "solver/fft.hh"

#include "runtime/simd.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <numbers>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace varsched
{

namespace
{

using Cx = std::complex<double>;

/**
 * Butterfly arithmetic on one complex value held as two doubles. The
 * product v = h·w is spelled the way GCC lowers a std::complex
 * multiply (re = a·c − b·d, im = a·d + b·c), without its NaN-recovery
 * call (inputs are finite). The portable fallback of Sse2Ops.
 */
struct ScalarOps
{
    struct Value
    {
        double re, im;
    };
    using Twiddle = Value;

    static Value load(const double *p) { return {p[0], p[1]}; }
    static void store(double *p, Value x)
    {
        p[0] = x.re;
        p[1] = x.im;
    }
    static Twiddle twiddle(const double *p) { return load(p); }

    static Value
    product(Value h, Twiddle w)
    {
        return {h.re * w.re - h.im * w.im, h.re * w.im + h.im * w.re};
    }

    /** lo ← u + v, hi ← u − v with v = hi·w. */
    static void
    butterfly(Value &lo, Value &hi, Twiddle w)
    {
        const Value v = product(hi, w);
        hi = {lo.re - v.re, lo.im - v.im};
        lo = {lo.re + v.re, lo.im + v.im};
    }

    /** lo ← u + hi·w only (the other output is never read). */
    static void
    butterflyLow(Value &lo, Value hi, Twiddle w)
    {
        const Value v = product(hi, w);
        lo = {lo.re + v.re, lo.im + v.im};
    }
};

#if defined(__SSE2__)
/**
 * ScalarOps two lanes at a time: [re, im] in one SSE2 register and
 * the twiddle pre-split as [c, c] and [−d, d], so
 *   v = [a, b]·[c, c] + [b, a]·[−d, d] = [a·c − b·d, b·c + a·d].
 * Every lane is the scalar expression exactly (x + (−y) is x − y,
 * and IEEE addition and multiplication commute), and this file is
 * built without FMA fusion — so results are bit-identical to
 * ScalarOps.
 */
struct Sse2Ops
{
    using Value = __m128d;
    struct Twiddle
    {
        __m128d re, im;
    };

    static Value load(const double *p) { return _mm_loadu_pd(p); }
    static void store(double *p, Value x) { _mm_storeu_pd(p, x); }

    static Twiddle
    twiddle(const double *p)
    {
        const __m128d w = _mm_loadu_pd(p);
        return {_mm_unpacklo_pd(w, w),
                _mm_xor_pd(_mm_unpackhi_pd(w, w), _mm_set_pd(0.0, -0.0))};
    }

    static Value
    product(Value h, Twiddle w)
    {
        const __m128d swapped = _mm_shuffle_pd(h, h, 1);
        return _mm_add_pd(_mm_mul_pd(h, w.re), _mm_mul_pd(swapped, w.im));
    }

    static void
    butterfly(Value &lo, Value &hi, Twiddle w)
    {
        const Value v = product(hi, w);
        hi = _mm_sub_pd(lo, v);
        lo = _mm_add_pd(lo, v);
    }

    static void
    butterflyLow(Value &lo, Value hi, Twiddle w)
    {
        lo = _mm_add_pd(lo, product(hi, w));
    }
};
using StageOps = Sse2Ops;
#else
using StageOps = ScalarOps;
#endif

// The stage kernels walk twiddle index k in the outer loop and the
// blocks in the inner one, so each factor is loaded (and, for
// Sse2Ops, split) once per stage rather than once per block; the
// early stages have few factors and many blocks.

/** Full stage of half-width @p h over interleaved re/im doubles. */
template <typename Ops>
void
radix2Stage(double *d, std::size_t n, std::size_t h, const Cx *tw)
{
    const double *w = reinterpret_cast<const double *>(tw);
    for (std::size_t k = 0; k < h; ++k) {
        const typename Ops::Twiddle t = Ops::twiddle(w + 2 * k);
        for (std::size_t base = 0; base < n; base += 2 * h) {
            double *lo = d + 2 * (base + k);
            double *hi = lo + 2 * h;
            typename Ops::Value u = Ops::load(lo);
            typename Ops::Value v = Ops::load(hi);
            Ops::butterfly(u, v, t);
            Ops::store(lo, u);
            Ops::store(hi, v);
        }
    }
}

/**
 * Pruned stage of half-width @p h when only offsets < @p keep (<= h)
 * of each block are read later: the lower half-butterfly
 * lo[k] ← lo[k] + hi[k]·w_k for k < keep, nothing else.
 */
template <typename Ops>
void
radix2StageLow(double *d, std::size_t n, std::size_t h, const Cx *tw,
               std::size_t keep)
{
    const double *w = reinterpret_cast<const double *>(tw);
    for (std::size_t k = 0; k < keep; ++k) {
        const typename Ops::Twiddle t = Ops::twiddle(w + 2 * k);
        for (std::size_t base = 0; base < n; base += 2 * h) {
            double *lo = d + 2 * (base + k);
            typename Ops::Value u = Ops::load(lo);
            Ops::butterflyLow(u, Ops::load(lo + 2 * h), t);
            Ops::store(lo, u);
        }
    }
}

/**
 * Two full stages fused (radix-2²): half-widths @p h then 2h. Each
 * group of four points is loaded once, runs the two stage-h
 * butterflies and then the two stage-2h ones, and is stored once —
 * the same four butterflies, with the same operands, as two separate
 * radix-2 passes.
 */
template <typename Ops>
void
radix4Stages(double *d, std::size_t n, std::size_t h, const Cx *twA,
             const Cx *twB)
{
    const double *wa = reinterpret_cast<const double *>(twA);
    const double *wb = reinterpret_cast<const double *>(twB);
    for (std::size_t k = 0; k < h; ++k) {
        const typename Ops::Twiddle a = Ops::twiddle(wa + 2 * k);
        const typename Ops::Twiddle b0 = Ops::twiddle(wb + 2 * k);
        const typename Ops::Twiddle b1 = Ops::twiddle(wb + 2 * (h + k));
        for (std::size_t base = 0; base < n; base += 4 * h) {
            double *p0 = d + 2 * (base + k);
            double *p1 = p0 + 2 * h;
            double *p2 = p1 + 2 * h;
            double *p3 = p2 + 2 * h;
            typename Ops::Value x0 = Ops::load(p0);
            typename Ops::Value x1 = Ops::load(p1);
            typename Ops::Value x2 = Ops::load(p2);
            typename Ops::Value x3 = Ops::load(p3);
            Ops::butterfly(x0, x1, a);
            Ops::butterfly(x2, x3, a);
            Ops::butterfly(x0, x2, b0);
            Ops::butterfly(x1, x3, b1);
            Ops::store(p0, x0);
            Ops::store(p1, x1);
            Ops::store(p2, x2);
            Ops::store(p3, x3);
        }
    }
}

/**
 * Blocked out-of-place transpose: dst (cols x rows) = src (rows x
 * cols) transposed. 32x32 tiles keep both the source row walk and the
 * destination row walk inside the cache for the large (512²+)
 * circulant-embedding grids.
 */
void
transposeBlocked(const Cx *src, Cx *dst, std::size_t rows,
                 std::size_t cols)
{
    constexpr std::size_t kBlock = 32;
    for (std::size_t rb = 0; rb < rows; rb += kBlock) {
        const std::size_t rEnd = std::min(rows, rb + kBlock);
        for (std::size_t cb = 0; cb < cols; cb += kBlock) {
            const std::size_t cEnd = std::min(cols, cb + kBlock);
            for (std::size_t r = rb; r < rEnd; ++r)
                for (std::size_t c = cb; c < cEnd; ++c)
                    dst[c * rows + r] = src[r * cols + c];
        }
    }
}

} // namespace

bool
isPowerOfTwo(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

std::size_t
nextPowerOfTwo(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

FftPlan::FftPlan(std::size_t n) : n_(n), rev_(n)
{
    assert(isPowerOfTwo(n));
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        rev_[i] = static_cast<std::uint32_t>(j);
    }

    // Forward factors w[k] = exp(-2πik/n), k < n/2; stage h reads
    // every (n / 2h)-th of them.
    std::vector<Cx> base(n / 2);
    for (std::size_t k = 0; k < n / 2; ++k) {
        const double ang = -2.0 * std::numbers::pi *
            static_cast<double>(k) / static_cast<double>(n);
        base[k] = Cx(std::cos(ang), std::sin(ang));
    }
    for (std::vector<Cx> &t : tw_)
        t.resize(n - 1);
    for (std::size_t h = 1; 2 * h <= n; h *= 2) {
        const std::size_t stride = n / (2 * h);
        for (std::size_t k = 0; k < h; ++k) {
            tw_[0][h - 1 + k] = base[k * stride];
            tw_[1][h - 1 + k] = std::conj(base[k * stride]);
        }
    }
}

const FftPlan &
FftPlan::forLength(std::size_t n)
{
    static thread_local std::map<std::size_t, FftPlan> cache;
    return cache.try_emplace(n, n).first->second;
}

void
FftPlan::permute(Cx *data) const
{
    for (std::size_t i = 1; i < n_; ++i) {
        const std::size_t j = rev_[i];
        if (i < j)
            std::swap(data[i], data[j]);
    }
}

void
FftPlan::transformPermuted(Cx *data, bool inverse, std::size_t keep) const
{
    assert(keep >= 1);
    keep = std::min(keep, n_);
    // A stage of half-width h must produce every offset below
    // min(keep, 2h) of each block: the full stage when keep > h, the
    // lower half-butterflies for offsets < keep otherwise (the vector
    // path runs those as whole butterflies; the upper results it also
    // writes are never read).
#if defined(VARSCHED_SIMD_AVX2)
    if (simd::enabled()) {
        for (std::size_t h = 1; 2 * h <= n_; h *= 2) {
            const Cx *tw = stageTwiddles(inverse, h);
            const std::size_t count = std::min(h, keep);
            for (std::size_t base = 0; base < n_; base += 2 * h)
                simd::butterflyStage(data + base, data + base + h, tw,
                                     count);
        }
        return;
    }
#endif
    double *d = reinterpret_cast<double *>(data);
    std::size_t h = 1;
    for (; 4 * h <= n_ && keep > 2 * h; h *= 4)
        radix4Stages<StageOps>(d, n_, h, stageTwiddles(inverse, h),
                               stageTwiddles(inverse, 2 * h));
    for (; 2 * h <= n_; h *= 2) {
        if (keep > h) {
            radix2Stage<StageOps>(d, n_, h, stageTwiddles(inverse, h));
        } else {
            radix2StageLow<StageOps>(d, n_, h, stageTwiddles(inverse, h),
                                     keep);
        }
    }
}

void
fft(Cx *data, std::size_t n, bool inverse, std::size_t keep)
{
    assert(isPowerOfTwo(n));
    if (n <= 1)
        return;
    const FftPlan &plan = FftPlan::forLength(n);
    plan.permute(data);
    plan.transformPermuted(data, inverse, keep);
}

void
fft(Cx *data, std::size_t n, bool inverse)
{
    fft(data, n, inverse, n);
}

void
fft(std::vector<Cx> &data, bool inverse)
{
    fft(data.data(), data.size(), inverse);
}

void
fft2d(std::vector<Cx> &data, std::size_t rows, std::size_t cols,
      bool inverse)
{
    assert(isPowerOfTwo(rows) && isPowerOfTwo(cols));
    assert(data.size() == rows * cols);

    for (std::size_t r = 0; r < rows; ++r)
        fft(data.data() + r * cols, cols, inverse);

    // Column pass: transpose so former columns are contiguous rows,
    // transform them in place, transpose back. The two blocked
    // transposes are far cheaper than strided gathers on the big
    // embedding grids.
    std::vector<Cx> scratch(rows * cols);
    transposeBlocked(data.data(), scratch.data(), rows, cols);
    for (std::size_t c = 0; c < cols; ++c)
        fft(scratch.data() + c * rows, rows, inverse);
    transposeBlocked(scratch.data(), data.data(), cols, rows);
}

} // namespace varsched
