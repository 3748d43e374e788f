#include "chip/sensors.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace varsched
{

ChipEvaluator::ChipEvaluator(const Die &die) : die_(&die)
{
}

double
ChipEvaluator::ipcOf(const AppProfile &app, const CoreWork &work,
                     double freqHz)
{
    const double cpi = app.cpiExe * work.cpiScale +
        app.memMpi * work.missScale * 100.0e-9 * freqHz;
    return cpi > 0.0 ? 1.0 / cpi : 0.0;
}

const ActivityVector &
ChipEvaluator::calibratedActivity(const AppProfile &app) const
{
    for (std::size_t i = 0; i < actKeys_.size(); ++i) {
        if (actKeys_[i].first == &app &&
            actKeys_[i].second == app.dynPowerW)
            return actVals_[i];
    }
    actKeys_.emplace_back(&app, app.dynPowerW);
    actVals_.push_back(die_->dynamicModel().calibrateActivity(
        app.activityShape, app.dynPowerW));
    return actVals_.back();
}

double
ChipEvaluator::dynamicPower(const CoreWork &work, double v, double f) const
{
    assert(work.app != nullptr);
    return die_->dynamicModel().corePower(calibratedActivity(*work.app),
                                          v, f) *
        work.activityScale;
}

ChipCondition
ChipEvaluator::evaluate(const std::vector<CoreWork> &work,
                        const std::vector<int> &levels,
                        double freqCapHz,
                        const ChipCondition *warmStart) const
{
    ChipCondition cond;
    evaluateInto(cond, work, levels, freqCapHz, warmStart);
    return cond;
}

int
ChipEvaluator::evaluateInto(ChipCondition &out,
                            const std::vector<CoreWork> &work,
                            const std::vector<int> &levels,
                            double freqCapHz,
                            const ChipCondition *warmStart) const
{
    const std::size_t n = die_->numCores();
    assert(work.size() == n && levels.size() == n);

    // Seed the fixed point before touching `out` — warmStart may
    // alias it. A warm seed starts the iteration from the previous
    // settled temperatures; the cold seed is the leakage reference.
    std::vector<double> &coreTemps = coreTempScratch_;
    std::vector<double> &l2Temps = l2TempScratch_;
    bool warmSeeded = false;
    if (warmStart != nullptr && warmStart->coreTempC.size() == n &&
        warmStart->l2TempC.size() == 2) {
        coreTemps.assign(warmStart->coreTempC.begin(),
                         warmStart->coreTempC.end());
        l2Temps.assign(warmStart->l2TempC.begin(),
                       warmStart->l2TempC.end());
        warmSeeded = true;
    } else {
        coreTemps.assign(n, die_->params().leakage.refTempC);
        l2Temps.assign(2, die_->params().leakage.refTempC);
    }

    out.corePowerW.assign(n, 0.0);
    out.coreTempC.assign(n, die_->params().thermal.ambientC);
    out.coreFreqHz.assign(n, 0.0);
    out.coreIpc.assign(n, 0.0);
    out.coreMips.assign(n, 0.0);
    out.totalPowerW = 0.0;
    out.totalMips = 0.0;

    // Frequency, IPC, and dynamic power are temperature-independent
    // in the model (frequency was binned hot); only leakage couples
    // to temperature, so the fixed point iterates leakage <-> thermal.
    std::vector<double> &dynW = dynWScratch_;
    dynW.assign(n, 0.0);
    double l2AccessesPerSec = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
        if (work[c].app == nullptr)
            continue;
        const auto level = static_cast<std::size_t>(levels[c]);
        const double v = die_->voltage(level);
        double f = die_->freqAt(c, level);
        if (freqCapHz > 0.0)
            f = std::min(f, freqCapHz);
        out.coreFreqHz[c] = f;
        out.coreIpc[c] = ipcOf(*work[c].app, work[c], f);
        out.coreMips[c] = out.coreIpc[c] * f / 1.0e6;
        dynW[c] = dynamicPower(work[c], v, f);
        l2AccessesPerSec += work[c].app->l2Mpi * work[c].missScale *
            out.coreIpc[c] * f;
    }
    const double l2DynW =
        die_->dynamicModel().l2Power(l2AccessesPerSec);

    // Leakage-temperature fixed point (Su et al.).
    std::vector<double> &corePowers = corePowerScratch_;
    std::vector<double> &l2Powers = l2PowerScratch_;
    corePowers.assign(n, 0.0);
    l2Powers.assign(2, 0.0);
    double spreaderC = die_->params().thermal.ambientC;
    double sinkC = die_->params().thermal.ambientC;

    int iters = 0;
    while (iters < 25) {
        ++iters;
        for (std::size_t c = 0; c < n; ++c) {
            if (work[c].app == nullptr) {
                corePowers[c] = 0.0; // power-gated when idle
                continue;
            }
            const auto level = static_cast<std::size_t>(levels[c]);
            corePowers[c] = dynW[c] +
                die_->leakagePower(c, die_->voltage(level),
                                   coreTemps[c]);
        }
        for (std::size_t b = 0; b < 2; ++b) {
            l2Powers[b] = l2DynW / 2.0 +
                die_->l2LeakagePower(b, 1.0, l2Temps[b]);
        }

        ThermalResult &thermal = thermalScratch_;
        die_->thermalModel().solveInto(thermal, corePowers, l2Powers);
        spreaderC = thermal.spreaderC;
        sinkC = thermal.sinkC;

        // Under-relaxed update with a hard junction clamp: keeps the
        // leakage-temperature iteration stable even at operating
        // points that would physically run away (the clamp plays the
        // role of the thermal throttle every real chip has).
        constexpr double kRelax = 0.7;
        constexpr double kMaxJunctionC = 150.0;
        double maxDelta = 0.0;
        for (std::size_t c = 0; c < n; ++c) {
            const double target =
                std::min(thermal.coreTempC[c], kMaxJunctionC);
            const double next =
                coreTemps[c] + kRelax * (target - coreTemps[c]);
            maxDelta = std::max(maxDelta, std::abs(next - coreTemps[c]));
            coreTemps[c] = next;
        }
        for (std::size_t b = 0; b < 2; ++b) {
            const double target =
                std::min(thermal.l2TempC[b], kMaxJunctionC);
            const double next =
                l2Temps[b] + kRelax * (target - l2Temps[b]);
            maxDelta = std::max(maxDelta, std::abs(next - l2Temps[b]));
            l2Temps[b] = next;
        }
        // A cold start approaches the fixed point from the reference
        // temperature side; a warm seed can approach from the other
        // side (e.g. hot previous operating point), so stopping at the
        // same threshold would leave twice the gap between the two
        // answers. The tighter warm threshold (one or two extra
        // iterations, still far below the ~25 cold ones) keeps warm
        // results within 0.1 C / 0.1% power of the cold fixed point.
        if (maxDelta < (warmSeeded ? 0.01 : 0.05))
            break;
    }

    out.corePowerW = corePowers;
    out.coreTempC = coreTemps;
    out.l2TempC = l2Temps;
    out.spreaderC = spreaderC;
    out.sinkC = sinkC;
    out.l2PowerW = l2Powers[0] + l2Powers[1];
    out.totalPowerW = out.l2PowerW;
    for (std::size_t c = 0; c < n; ++c) {
        out.totalPowerW += corePowers[c];
        out.totalMips += out.coreMips[c];
    }
    return iters;
}

ChipCondition
ChipEvaluator::evaluateTransient(const std::vector<CoreWork> &work,
                                 const std::vector<int> &levels,
                                 const ChipCondition &previous,
                                 double dtMs, double freqCapHz) const
{
    const std::size_t n = die_->numCores();
    assert(work.size() == n && levels.size() == n);
    assert(previous.coreTempC.size() == n);

    ChipCondition cond;
    cond.corePowerW.assign(n, 0.0);
    cond.coreFreqHz.assign(n, 0.0);
    cond.coreIpc.assign(n, 0.0);
    cond.coreMips.assign(n, 0.0);

    // Performance and dynamic power at the commanded point.
    std::vector<double> dynW(n, 0.0);
    double l2AccessesPerSec = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
        if (work[c].app == nullptr)
            continue;
        const auto level = static_cast<std::size_t>(levels[c]);
        const double v = die_->voltage(level);
        double f = die_->freqAt(c, level);
        if (freqCapHz > 0.0)
            f = std::min(f, freqCapHz);
        cond.coreFreqHz[c] = f;
        cond.coreIpc[c] = ipcOf(*work[c].app, work[c], f);
        cond.coreMips[c] = cond.coreIpc[c] * f / 1.0e6;
        dynW[c] = dynamicPower(work[c], v, f);
        l2AccessesPerSec += work[c].app->l2Mpi * work[c].missScale *
            cond.coreIpc[c] * f;
    }
    const double l2DynW =
        die_->dynamicModel().l2Power(l2AccessesPerSec);

    // Powers at the *previous* temperatures (leakage lags thermally).
    std::vector<double> corePowers(n, 0.0);
    std::vector<double> l2Powers(2, 0.0);
    for (std::size_t c = 0; c < n; ++c) {
        if (work[c].app == nullptr)
            continue;
        const auto level = static_cast<std::size_t>(levels[c]);
        corePowers[c] = dynW[c] +
            die_->leakagePower(c, die_->voltage(level),
                               previous.coreTempC[c]);
    }
    const std::vector<double> prevL2 = previous.l2TempC.size() == 2
        ? previous.l2TempC
        : std::vector<double>(2, die_->params().thermal.ambientC);
    for (std::size_t b = 0; b < 2; ++b) {
        l2Powers[b] = l2DynW / 2.0 +
            die_->l2LeakagePower(b, 1.0, prevL2[b]);
    }

    // Advance the thermal RC network from the previous state.
    ThermalResult state;
    state.coreTempC = previous.coreTempC;
    state.l2TempC = prevL2;
    state.spreaderC = previous.spreaderC > 0.0
        ? previous.spreaderC
        : die_->params().thermal.ambientC;
    state.sinkC = previous.sinkC > 0.0
        ? previous.sinkC
        : die_->params().thermal.ambientC;
    die_->thermalModel().transientStep(state, corePowers, l2Powers,
                                       dtMs);

    cond.corePowerW = corePowers;
    cond.coreTempC = state.coreTempC;
    cond.l2TempC = state.l2TempC;
    cond.spreaderC = state.spreaderC;
    cond.sinkC = state.sinkC;
    cond.l2PowerW = l2Powers[0] + l2Powers[1];
    cond.totalPowerW = cond.l2PowerW;
    for (std::size_t c = 0; c < n; ++c) {
        cond.totalPowerW += corePowers[c];
        cond.totalMips += cond.coreMips[c];
    }
    return cond;
}

double
ChipSnapshot::powerAt(const std::vector<int> &levels) const
{
    assert(levels.size() == cores.size());
    double p = uncorePowerW;
    for (std::size_t i = 0; i < cores.size(); ++i)
        p += cores[i].powerW[static_cast<std::size_t>(levels[i])];
    return p;
}

double
ChipSnapshot::mipsAt(const std::vector<int> &levels) const
{
    assert(levels.size() == cores.size());
    double m = 0.0;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        const auto l = static_cast<std::size_t>(levels[i]);
        m += cores[i].ipc[l] * cores[i].freqHz[l] / 1.0e6;
    }
    return m;
}

double
ChipSnapshot::weightedAt(const std::vector<int> &levels) const
{
    assert(levels.size() == cores.size());
    double w = 0.0;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        const auto l = static_cast<std::size_t>(levels[i]);
        w += cores[i].ipc[l] * cores[i].freqHz[l] / 1.0e6 /
            cores[i].refMips;
    }
    return w;
}

bool
ChipSnapshot::feasible(const std::vector<int> &levels) const
{
    double p = uncorePowerW;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        const double cp =
            cores[i].powerW[static_cast<std::size_t>(levels[i])];
        if (cp > pcoreMaxW + 1e-9)
            return false;
        p += cp;
    }
    return p <= ptargetW + 1e-9;
}

ChipSnapshot
buildSnapshot(const ChipEvaluator &evaluator,
              const std::vector<CoreWork> &work,
              const ChipCondition &current, double ptargetW,
              double pcoreMaxW, Rng *noise, SensorTamper *tamper)
{
    const Die &die = evaluator.die();
    ChipSnapshot snap;
    snap.ptargetW = ptargetW;
    snap.pcoreMaxW = pcoreMaxW;
    snap.uncorePowerW = current.l2PowerW;
    for (std::size_t l = 0; l < die.numLevels(); ++l)
        snap.voltage.push_back(die.voltage(l));

    auto jitter = [&](double x) {
        return noise ? x * (1.0 + 0.01 * noise->normal()) : x;
    };

    std::size_t threadId = 0;
    for (std::size_t c = 0; c < die.numCores(); ++c) {
        if (work[c].app == nullptr)
            continue;
        CoreSnapshot cs;
        cs.coreId = c;
        cs.threadId = threadId++;
        cs.refMips = work[c].app->ipcAt4GHz * 4.0e9 / 1.0e6;
        for (std::size_t l = 0; l < die.numLevels(); ++l) {
            const double v = die.voltage(l);
            const double f = die.freqAt(c, l);
            cs.freqHz.push_back(f);
            cs.ipc.push_back(
                jitter(ChipEvaluator::ipcOf(*work[c].app, work[c], f)));
            // Sensor power: dynamic + leakage at the *current*
            // (frozen) temperature of this core.
            double p = jitter(evaluator.dynamicPower(work[c], v, f) +
                die.leakagePower(c, v, current.coreTempC[c]));
            if (tamper)
                p = tamper->tamperPower(c, l, p);
            cs.powerW.push_back(p);
        }
        snap.cores.push_back(std::move(cs));
    }
    return snap;
}

} // namespace varsched
