/**
 * @file
 * Reference implementations the library's fast paths are checked
 * against. None of them runs in the library itself: each is the plain
 * element-by-element (or iterative) evaluation a batched or factored
 * kernel replaced, kept here so the agreement contracts stay tested.
 *
 *  - maxDelayScalarRef: per-path gateDelay() calls, the pre-SoA
 *    CoreTiming::maxDelay(); the batch kernel must agree within
 *    1e-12 relative.
 *  - corePowerSampledRef: per-sample subthresholdCoreEquivalent()
 *    calls, the pre-fold LeakageModel::corePowerSampled(); the Taylor
 *    fold reassociates this sum and must agree within 1e-13
 *    relative.
 *  - solveCG: conjugate gradients, the iterative solve the thermal
 *    model's cached Cholesky factor replaced.
 *  - fftRadix2 / fft2dCornerRadix2: the textbook radix-2 FFT over
 *    std::complex values (strided twiddle reads, conjugated per
 *    butterfly for the inverse) and the cropped 2-D transform field
 *    synthesis used to run; FftPlan and the fused synthesis must be
 *    bit-equal to them on the scalar path.
 */

#ifndef VARSCHED_TESTS_ORACLES_HH
#define VARSCHED_TESTS_ORACLES_HH

#include <algorithm>
#include <cassert>
#include <cmath>
#include <complex>
#include <cstddef>
#include <numbers>
#include <vector>

#include "power/leakage.hh"
#include "solver/matrix.hh"
#include "timing/alphapower.hh"
#include "timing/critpath.hh"
#include "varius/varmap.hh"

namespace varsched::oracle
{

/**
 * Scalar reference for CoreTiming::maxDelay() of a core built by
 * buildCoreTiming() on @p map: the worst per-path gateDelay(),
 * converted to seconds through the same calibration the constructor
 * applies (one nominal-path delay = one nominal-frequency cycle).
 */
inline double
maxDelayScalarRef(const CoreTiming &timing, const VariationMap &map,
                  double v, double tempC,
                  const DelayParams &delayParams = {},
                  const CritPathParams &cpParams = {})
{
    const double delayScale =
        1.0 / (cpParams.nominalFreqHz *
               nominalPathDelay(delayParams, cpParams,
                                map.params().vthMean,
                                map.params().leffMean));
    const std::vector<double> &vth = timing.pathVth();
    const std::vector<double> &leff = timing.pathLeff();
    double worst = 0.0;
    for (std::size_t i = 0; i < vth.size(); ++i)
        worst = std::max(worst, gateDelay(leff[i], vth[i], v, tempC,
                                          delayParams) *
                                    delayScale);
    return worst;
}

/**
 * Scalar reference for LeakageModel::corePowerSampled(): one
 * subthresholdCoreEquivalent() call per sample in sample order, the
 * analytic random-Vth boost, plus gate leakage.
 */
inline double
corePowerSampledRef(const LeakageModel &model,
                    const std::vector<double> &vthSamples,
                    double sigmaRandom, double v, double tempC,
                    double vthShift = 0.0)
{
    const LeakageParams &params = model.params();
    const double thermalVoltage = 8.617333e-5 * (tempC + 273.15);
    const double nvt = params.slopeFactor * thermalVoltage;
    const double randomBoost =
        std::exp(sigmaRandom * sigmaRandom / (2.0 * nvt * nvt));

    double sum = 0.0;
    for (const double vth : vthSamples)
        sum += model.subthresholdCoreEquivalent(vth + vthShift, v, tempC);
    const double subthreshold =
        randomBoost * sum / static_cast<double>(vthSamples.size());

    const double vr = v / params.nominalVdd;
    const double gate = params.nominalCoreGateW * vr * vr * vr * vr;

    return subthreshold + gate;
}

/**
 * Solve the symmetric positive-definite system A·x = b by conjugate
 * gradients.
 *
 * @param tol Relative residual tolerance.
 * @param maxIter Iteration cap (0 means 10·n + 100).
 */
inline std::vector<double>
solveCG(const Matrix &a, const std::vector<double> &b, double tol = 1e-10,
        std::size_t maxIter = 0)
{
    assert(a.rows() == a.cols() && a.rows() == b.size());
    const std::size_t n = b.size();
    if (maxIter == 0)
        maxIter = 10 * n + 100;

    std::vector<double> x(n, 0.0), r = b, p = b, ap(n);
    double rr = 0.0;
    for (double v : r)
        rr += v * v;
    const double rr0 = rr > 0.0 ? rr : 1.0;

    for (std::size_t it = 0; it < maxIter && rr / rr0 > tol * tol; ++it) {
        for (std::size_t i = 0; i < n; ++i) {
            double s = 0.0;
            for (std::size_t j = 0; j < n; ++j)
                s += a(i, j) * p[j];
            ap[i] = s;
        }
        double pap = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            pap += p[i] * ap[i];
        if (std::abs(pap) < 1e-300)
            break;
        const double alpha = rr / pap;
        for (std::size_t i = 0; i < n; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        double rrNew = 0.0;
        for (double v : r)
            rrNew += v * v;
        const double beta = rrNew / rr;
        for (std::size_t i = 0; i < n; ++i)
            p[i] = r[i] + beta * p[i];
        rr = rrNew;
    }
    return x;
}

/**
 * In-place iterative radix-2 FFT (length a power of two): bit-reversal
 * swaps, then one pass per stage reading w[k * n/len] from a length-n
 * table of exp(-2πik/n), conjugated for the unscaled inverse.
 */
inline void
fftRadix2(std::complex<double> *data, std::size_t n, bool inverse)
{
    if (n <= 1)
        return;
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(data[i], data[j]);
    }

    std::vector<std::complex<double>> tw(n / 2);
    for (std::size_t k = 0; k < n / 2; ++k) {
        const double ang = -2.0 * std::numbers::pi *
            static_cast<double>(k) / static_cast<double>(n);
        tw[k] = std::complex<double>(std::cos(ang), std::sin(ang));
    }
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len / 2;
        const std::size_t stride = n / len;
        for (std::size_t i = 0; i < n; i += len) {
            std::complex<double> *lo = data + i;
            std::complex<double> *hi = data + i + half;
            for (std::size_t k = 0; k < half; ++k) {
                const std::complex<double> &t = tw[k * stride];
                const std::complex<double> w = inverse ? std::conj(t) : t;
                const std::complex<double> u = lo[k];
                const std::complex<double> v = hi[k] * w;
                lo[k] = u + v;
                hi[k] = u - v;
            }
        }
    }
}

/**
 * 2-D FFT of a row-major rows x cols grid of which only the top-left
 * keepRows x keepCols corner is returned (row-major, keepCols wide):
 * every row transformed, then only the kept columns.
 */
inline std::vector<std::complex<double>>
fft2dCornerRadix2(std::vector<std::complex<double>> data, std::size_t rows,
                  std::size_t cols, bool inverse, std::size_t keepRows,
                  std::size_t keepCols)
{
    for (std::size_t r = 0; r < rows; ++r)
        fftRadix2(data.data() + r * cols, cols, inverse);
    std::vector<std::complex<double>> column(rows);
    std::vector<std::complex<double>> corner(keepRows * keepCols);
    for (std::size_t c = 0; c < keepCols; ++c) {
        for (std::size_t r = 0; r < rows; ++r)
            column[r] = data[r * cols + c];
        fftRadix2(column.data(), rows, inverse);
        for (std::size_t r = 0; r < keepRows; ++r)
            corner[r * keepCols + c] = column[r];
    }
    return corner;
}

} // namespace varsched::oracle

#endif // VARSCHED_TESTS_ORACLES_HH
