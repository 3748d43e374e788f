/**
 * @file
 * In-place radix-2 complex FFT, a 2D wrapper, and the per-length plan
 * both run on. Used by the circulant-embedding Gaussian random field
 * generator to synthesise large spatially-correlated Vth/Leff maps
 * (the paper uses 1M points per die, far beyond what dense Cholesky
 * can factor).
 */

#ifndef VARSCHED_SOLVER_FFT_HH
#define VARSCHED_SOLVER_FFT_HH

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace varsched
{

/** True iff n is a power of two (and nonzero). */
bool isPowerOfTwo(std::size_t n);

/** Smallest power of two >= n. */
std::size_t nextPowerOfTwo(std::size_t n);

/**
 * Precomputed tables for length-n radix-2 transforms: the bit-reversal
 * index of every position and, per butterfly stage, a contiguous run
 * of twiddle factors with the transform direction already applied
 * (the inverse tables hold the conjugates). The stage with half-width
 * h reads w_k = exp(∓2πi·k/(2h)) for k < h, all taken from one
 * length-n table so every stage sees the same rounded factors.
 *
 * Butterflies are explicit real arithmetic in the order GCC expands a
 * std::complex product (re = a·c − b·d, im = a·d + b·c), so the
 * transform is bit-identical to the textbook radix-2 loop over
 * std::complex values for finite inputs; only the NaN-recovery call
 * of the library multiply is gone. Consecutive pairs of full stages
 * run fused (radix-2²: four points loaded once for two stages, each
 * butterfly unchanged).
 */
class FftPlan
{
  public:
    /** @param n Transform length, a power of two. */
    explicit FftPlan(std::size_t n);

    /**
     * The calling thread's plan for length @p n, built on first use.
     * thread_local: pool workers transform concurrently and only a few
     * distinct lengths occur per thread.
     */
    static const FftPlan &forLength(std::size_t n);

    std::size_t size() const { return n_; }

    /** Position that input index @p i takes after bit reversal. */
    std::size_t bitReverse(std::size_t i) const { return rev_[i]; }

    /** In-place bit-reversal permutation of @p data (length size()). */
    void permute(std::complex<double> *data) const;

    /**
     * The butterfly stages of the transform on @p data, which must
     * already be in bit-reversed order (see permute()). Only outputs
     * [0, keep) are produced: stages wider than @p keep compute just
     * the butterfly halves those outputs depend on, bit-identical to
     * the full transform there; entries at and after @p keep are left
     * in an unspecified intermediate state.
     */
    void transformPermuted(std::complex<double> *data, bool inverse,
                           std::size_t keep) const;

  private:
    const std::complex<double> *
    stageTwiddles(bool inverse, std::size_t half) const
    {
        return tw_[inverse ? 1 : 0].data() + (half - 1);
    }

    std::size_t n_;
    std::vector<std::uint32_t> rev_;
    /** [forward, inverse]; stage half-width h starts at offset h - 1. */
    std::vector<std::complex<double>> tw_[2];
};

/**
 * In-place radix-2 FFT through the thread's cached FftPlan.
 *
 * @param data Sequence whose length must be a power of two.
 * @param inverse When true computes the unscaled inverse transform;
 *        callers divide by N to invert exactly.
 */
void fft(std::vector<std::complex<double>> &data, bool inverse);

/** fft() on a raw span of @p n complex values (n a power of two). */
void fft(std::complex<double> *data, std::size_t n, bool inverse);

/**
 * fft() when only the leading @p keep outputs will be read: the last
 * stages skip the butterfly halves that feed only discarded outputs.
 * Outputs [0, keep) are bit-identical to the full transform; the rest
 * of @p data is left unspecified.
 */
void fft(std::complex<double> *data, std::size_t n, bool inverse,
         std::size_t keep);

/**
 * In-place 2D FFT of row-major data with power-of-two dimensions.
 * Rows are transformed in place; the column pass runs as
 * blocked-transpose → contiguous row transforms → transpose back, so
 * every 1D transform walks unit-stride memory.
 */
void fft2d(std::vector<std::complex<double>> &data, std::size_t rows,
           std::size_t cols, bool inverse);

} // namespace varsched

#endif // VARSCHED_SOLVER_FFT_HH
