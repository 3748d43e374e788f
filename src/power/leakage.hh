/**
 * @file
 * Static (leakage) power model in the HotLeakage tradition.
 *
 * Subthreshold leakage follows the BSIM-style form
 *   Isub ∝ T^2 · exp((-Vth + eta·V) / (n·vT)),   vT = kT/q,
 * which captures the three couplings the paper's algorithms exploit:
 * exponential growth as local Vth drops (why low-Vth cores leak),
 * super-linear growth with supply voltage (why DVFS saves so much),
 * and exponential growth with temperature (why VarP&AppP tries to
 * even out power density). Gate leakage is a smaller V^2 term.
 *
 * The per-transistor *random* Vth component is folded in analytically:
 * averaging exp(-dV/(n vT)) over dV ~ N(0, sigma_ran) multiplies
 * leakage by exp(sigma_ran^2 / (2 (n vT)^2)) — with-variation chips
 * leak more than nominal even at unchanged mean Vth, as Section 3
 * notes.
 *
 * The systematic component is integrated over a core's sample points
 * through a LeakageFold: the samples are reduced once to a Taylor
 * series in beta = 1/(n vT), so a (V, T) query costs one exp() instead
 * of one per sample.
 */

#ifndef VARSCHED_POWER_LEAKAGE_HH
#define VARSCHED_POWER_LEAKAGE_HH

#include <array>
#include <cstddef>
#include <vector>

#include "floorplan/floorplan.hh"
#include "varius/varmap.hh"

namespace varsched
{

/** Leakage model parameters and calibration anchors. */
struct LeakageParams
{
    /** DIBL coefficient eta: effective Vth drop per volt of Vdd. */
    double dibl = 0.15;
    /** Subthreshold slope factor n. */
    double slopeFactor = 3.0;
    /** Reference temperature for calibration, Celsius. */
    double refTempC = 60.0;
    /** Nominal Vth at the reference temperature, volts. */
    double nominalVth = 0.250;
    /** Nominal supply, volts. */
    double nominalVdd = 1.0;
    /**
     * Calibration anchor: subthreshold leakage of one *variation-free*
     * core at (nominalVdd, refTempC), watts. Chosen so static power is
     * roughly a third of a nominal core's total, per 32 nm ITRS-era
     * projections.
     */
    double nominalCoreSubthresholdW = 3.8;
    /** Gate-leakage of one core at nominalVdd, watts (scales as V^2). */
    double nominalCoreGateW = 0.50;
    /**
     * Leakage of each L2 block at (nominalVdd, refTempC), watts. L2
     * arrays use high-Vth/low-leak cells, so density is far below the
     * cores' despite the larger area.
     */
    double nominalL2BlockW = 1.2;
    /** Vth temperature coefficient, V/K (Vth falls as T rises). */
    double vthTempCoeff = 0.00035;
    /** Grid sample points per core edge when integrating the map. */
    std::size_t samplesPerEdge = 6;
};

/**
 * A core's systematic-Vth samples vth_i reduced for leakage queries.
 *
 * Leakage averages exp(-beta vth_i) over the samples, with
 * beta = 1/(n vT(T)). Factoring out the sample mean v̄ leaves
 *   sum_i exp(-beta d_i) = sum_k c_k beta^k,  d_i = vth_i - v̄,
 *   c_k = sum_i (-d_i)^k / k!,
 * so once the c_k are stored, every (V, T) query is one polynomial
 * evaluation and one exp() of the mean's exponent. Truncating after
 * order kOrder leaves a relative error of at most
 * (beta r)^(K+1) / (K+1)! * e^(2 beta r), r = max |d_i| (the
 * Lagrange remainder against a sum no smaller than n e^(-beta r)):
 * 1.4e-19 at kMaxBetaRadius, checked against 1e-16 at compile time.
 * Past kMaxBetaRadius sumExp() sums the per-sample exponentials
 * instead. The fold reassociates the per-sample sum, so results
 * differ from it by rounding only.
 */
class LeakageFold
{
  public:
    /** Taylor order K. */
    static constexpr std::size_t kOrder = 20;
    /** Largest beta * radius the series serves (bound < 1e-16). */
    static constexpr double kMaxBetaRadius = 1.0;

    /** Fold @p vthSamples (at least one). */
    explicit LeakageFold(const std::vector<double> &vthSamples);

    /** Mean v̄ of the samples, volts. */
    double meanVth() const { return meanVth_; }
    /** max |vth_i - v̄|, volts. */
    double radius() const { return radius_; }
    /** Number of samples folded. */
    std::size_t size() const { return deviations_.size(); }

    /**
     * sum_i exp(-beta (vth_i - v̄)): the Taylor polynomial by Horner
     * while beta * radius() <= kMaxBetaRadius, else the per-sample
     * sum.
     */
    double sumExp(double beta) const;

  private:
    double meanVth_ = 0.0;
    double radius_ = 0.0;
    std::array<double, kOrder + 1> coeffs_{}; ///< c_0 .. c_K.
    std::vector<double> deviations_; ///< d_i, for the fallback.
};

/** Leakage evaluator bound to a parameter set. */
class LeakageModel
{
  public:
    explicit LeakageModel(const LeakageParams &params = {});

    /**
     * Subthreshold power of a *uniform* region with the given local
     * Vth (60 C value), normalised so that vth == nominalVth at
     * (nominalVdd, refTempC) yields exactly
     * nominalCoreSubthresholdW — i.e. units of "one core".
     */
    double subthresholdCoreEquivalent(double vth60, double v,
                                      double tempC) const;

    /**
     * Total static power of core @p coreId on die @p map: integrates
     * the systematic Vth field over the core tile, folds the random
     * component analytically, and adds gate leakage.
     *
     * @param v Core supply voltage.
     * @param tempC Core temperature, Celsius.
     * @param vthShift Uniform Vth offset applied to the whole core
     *        (a per-core body bias; 0 for an unbiased die).
     */
    double corePower(const VariationMap &map, const Floorplan &plan,
                     std::size_t coreId, double v, double tempC,
                     double vthShift = 0.0) const;

    /**
     * The systematic-Vth samples corePower() integrates over. The
     * sample positions depend only on the floorplan and the map is
     * frozen at manufacture, so callers that query leakage millions
     * of times per die (the tick loop) can sample and fold once and
     * evaluate through corePowerFolded().
     */
    std::vector<double> sampleCoreVth(const VariationMap &map,
                                      const Floorplan &plan,
                                      std::size_t coreId) const;

    /**
     * corePower() on pre-sampled Vth values: folds them on the fly,
     * so it is bit-identical to corePower() given sampleCoreVth()
     * output and the map's vthSigmaRandom(), and to corePowerFolded()
     * on the same fold.
     */
    double corePowerSampled(const std::vector<double> &vthSamples,
                            double sigmaRandom, double v, double tempC,
                            double vthShift = 0.0) const;

    /**
     * The one core-leakage kernel:
     *   pref * exp(a0) * fold.sumExp(beta) / n + gate,
     *   a0 = beta (eta V - (v̄ + vthShift - dVth(T)))
     *        + sigmaRandom^2 beta^2 / 2,
     * which folds the random-Vth boost into the mean's exponent. It
     * reassociates the per-sample sum the tests keep as an oracle and
     * agrees with it within 1e-13 relative.
     */
    double corePowerFolded(const LeakageFold &fold, double sigmaRandom,
                           double v, double tempC,
                           double vthShift = 0.0) const;

    /** Static power of one L2 block at the given operating point. */
    double l2BlockPower(const VariationMap &map, const Floorplan &plan,
                        std::size_t l2Index, double v, double tempC) const;

    /** Parameters in use. */
    const LeakageParams &params() const { return params_; }

  private:
    /** exp-argument helper: (-vth(T) + eta*v) / (n*vT(T)). */
    double expArg(double vth60, double v, double tempC) const;

    LeakageParams params_;
    double norm_; ///< Normalisation so nominal core == anchor watts.
};

} // namespace varsched

#endif // VARSCHED_POWER_LEAKAGE_HH
