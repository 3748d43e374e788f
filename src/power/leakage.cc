#include "power/leakage.hh"

#include "runtime/simd.hh"

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

} // namespace

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
    // Analytic fold of the per-transistor random component:
    // E[exp(dV/(n vT))] = exp(sigma^2 / (2 (n vT)^2)).
    const double nvt = params_.slopeFactor * thermalVoltage(tempC);
    const double randomBoost =
        std::exp(sigmaRandom * sigmaRandom / (2.0 * nvt * nvt));

    // Batched fold: every (V, T)-invariant of the per-sample kernel is
    // hoisted, the exp arguments are computed as one contiguous
    // (autovectorizable) sweep, and only the exp() fold itself runs
    // through libm. Each subexpression keeps the exact shape of
    // expArg()/subthresholdCoreEquivalent(), and the summation order
    // is unchanged, so the result is bit-identical to the per-sample
    // scalar fold.
    const std::size_t n = vthSamples.size();
    const double dVth =
        params_.vthTempCoeff * (tempC - params_.refTempC);
    const double dibl = params_.dibl * v;
    const double tK = tempC + 273.15;
    const double pref = norm_ * v * tK * tK;

    static thread_local std::vector<double> args;
    static thread_local std::vector<double> expValues;
    args.resize(n);
    expValues.resize(n);
    const double *vthData = vthSamples.data();
    for (std::size_t i = 0; i < n; ++i) {
        const double vth = (vthData[i] + vthShift) - dVth;
        args[i] = (-vth + dibl) / nvt;
    }
    // simd::expSweep's scalar fallback is the same std::exp loop this
    // fold always ran, and the single-accumulator summation order is
    // unchanged either way.
    simd::expSweep(args.data(), expValues.data(), n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        sum += pref * expValues[i];
    const double subthreshold =
        randomBoost * sum / static_cast<double>(n);

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
