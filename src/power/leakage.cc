#include "power/leakage.hh"

#include "runtime/simd.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace varsched
{

namespace
{

/** Thermal voltage kT/q in volts at the given Celsius temperature. */
double
thermalVoltage(double tempC)
{
    return 8.617333e-5 * (tempC + 273.15);
}

/** The fold's truncation bound x^(K+1) / (K+1)! * e^(2x). */
constexpr double
truncationBound(std::size_t order, double x)
{
    double term = 1.0;
    for (std::size_t k = 1; k <= order + 1; ++k)
        term *= x / static_cast<double>(k);
    double e2x = 0.0, t = 1.0;
    for (int k = 1; k < 60; ++k) {
        e2x += t;
        t *= 2.0 * x / k;
    }
    return term * e2x;
}

static_assert(truncationBound(LeakageFold::kOrder,
                              LeakageFold::kMaxBetaRadius) < 1e-16,
              "fold order too low for its beta * radius threshold");

} // namespace

LeakageFold::LeakageFold(const std::vector<double> &vthSamples)
{
    assert(!vthSamples.empty());
    double sum = 0.0;
    for (const double vth : vthSamples)
        sum += vth;
    meanVth_ = sum / static_cast<double>(vthSamples.size());

    deviations_.reserve(vthSamples.size());
    for (const double vth : vthSamples) {
        const double d = vth - meanVth_;
        deviations_.push_back(d);
        radius_ = std::max(radius_, std::abs(d));
        // (-d)^k / k! by recurrence, accumulated into c_k.
        double term = 1.0;
        coeffs_[0] += term;
        for (std::size_t k = 1; k <= kOrder; ++k) {
            term *= -d / static_cast<double>(k);
            coeffs_[k] += term;
        }
    }
}

double
LeakageFold::sumExp(double beta) const
{
    if (beta * radius_ <= kMaxBetaRadius) {
        double p = coeffs_[kOrder];
        for (std::size_t k = kOrder; k-- > 0;)
            p = p * beta + coeffs_[k];
        return p;
    }

    // Outside the series' range: the per-sample sum.
    const std::size_t n = deviations_.size();
    static thread_local std::vector<double> args;
    static thread_local std::vector<double> expValues;
    args.resize(n);
    expValues.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        args[i] = -beta * deviations_[i];
    simd::expSweep(args.data(), expValues.data(), n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        sum += expValues[i];
    return sum;
}

LeakageModel::LeakageModel(const LeakageParams &params) : params_(params)
{
    // Normalise the T^2 * exp(...) kernel so a variation-free core at
    // the calibration corner emits exactly the anchor wattage.
    const double tRefK = params_.refTempC + 273.15;
    const double arg = (-params_.nominalVth +
                        params_.dibl * params_.nominalVdd) /
        (params_.slopeFactor * thermalVoltage(params_.refTempC));
    const double kernel =
        params_.nominalVdd * tRefK * tRefK * std::exp(arg);
    norm_ = params_.nominalCoreSubthresholdW / kernel;
}

double
LeakageModel::expArg(double vth60, double v, double tempC) const
{
    const double vth = vth60 - params_.vthTempCoeff *
        (tempC - params_.refTempC);
    return (-vth + params_.dibl * v) /
        (params_.slopeFactor * thermalVoltage(tempC));
}

double
LeakageModel::subthresholdCoreEquivalent(double vth60, double v,
                                         double tempC) const
{
    const double tK = tempC + 273.15;
    return norm_ * v * tK * tK * std::exp(expArg(vth60, v, tempC));
}

std::vector<double>
LeakageModel::sampleCoreVth(const VariationMap &map, const Floorplan &plan,
                            std::size_t coreId) const
{
    const Rect &tile = plan.coreRect(coreId);
    const std::size_t n = params_.samplesPerEdge;
    assert(n >= 1);

    std::vector<double> samples;
    samples.reserve(n * n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const double x = tile.x +
                (static_cast<double>(i) + 0.5) / static_cast<double>(n) *
                    tile.w;
            const double y = tile.y +
                (static_cast<double>(j) + 0.5) / static_cast<double>(n) *
                    tile.h;
            samples.push_back(map.vthAt(x, y));
        }
    }
    return samples;
}

double
LeakageModel::corePower(const VariationMap &map, const Floorplan &plan,
                        std::size_t coreId, double v, double tempC,
                        double vthShift) const
{
    return corePowerSampled(sampleCoreVth(map, plan, coreId),
                            map.vthSigmaRandom(), v, tempC, vthShift);
}

double
LeakageModel::corePowerSampled(const std::vector<double> &vthSamples,
                               double sigmaRandom, double v, double tempC,
                               double vthShift) const
{
    return corePowerFolded(LeakageFold(vthSamples), sigmaRandom, v,
                           tempC, vthShift);
}

double
LeakageModel::corePowerFolded(const LeakageFold &fold, double sigmaRandom,
                              double v, double tempC,
                              double vthShift) const
{
    // exp((-vth_i + eta V) / (n vT)) = exp(a0) exp(-beta d_i): the
    // mean's exponent carries the temperature shift, the body bias
    // and the analytic random-Vth boost
    // E[exp(dV/(n vT))] = exp(sigma^2 / (2 (n vT)^2)).
    const double beta =
        1.0 / (params_.slopeFactor * thermalVoltage(tempC));
    const double dVth =
        params_.vthTempCoeff * (tempC - params_.refTempC);
    const double vth = (fold.meanVth() + vthShift) - dVth;
    const double a0 = beta * (params_.dibl * v - vth) +
        sigmaRandom * sigmaRandom * beta * beta / 2.0;
    const double tK = tempC + 273.15;
    const double pref = norm_ * v * tK * tK;
    const double subthreshold = pref * std::exp(a0) *
        fold.sumExp(beta) / static_cast<double>(fold.size());

    // Gate (tunnelling) leakage falls very steeply with voltage;
    // model it as V^4 (between the V^4-V^5 dependence of thin-oxide
    // tunnelling models).
    const double vr = v / params_.nominalVdd;
    const double gate = params_.nominalCoreGateW * vr * vr * vr * vr;

    return subthreshold + gate;
}

double
LeakageModel::l2BlockPower(const VariationMap &map, const Floorplan &plan,
                           std::size_t l2Index, double v, double tempC) const
{
    const std::size_t blockIdx = plan.l2Blocks().at(l2Index);
    const Rect &r = plan.blocks()[blockIdx].rect;

    // Sample the systematic field at the block centre and scale the
    // L2 anchor wattage by the subthreshold kernel's ratio between the
    // local operating point and the calibration corner; L2 arrays use
    // high-Vth cells, which the (smaller) anchor wattage reflects.
    const double vthLocal = map.vthAt(r.cx(), r.cy());
    const double here =
        subthresholdCoreEquivalent(vthLocal, v, tempC);
    const double anchor =
        subthresholdCoreEquivalent(params_.nominalVth, params_.nominalVdd,
                                   params_.refTempC);
    return params_.nominalL2BlockW * here / anchor;
}

} // namespace varsched
