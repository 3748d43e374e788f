/**
 * @file
 * varsched benchmark program. One process runs one workload:
 *
 *   vsbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--trace-file <path>]
 *
 * It sets up (several times, reporting the median), runs whole rounds
 * of the workload until the time is up, re-runs the first round
 * through a second path of public calls and checks that both give
 * the same digest of every simulated statistic, checks the paper's
 * orderings, and prints the metrics. With --trace 1 the timed rounds
 * run under the program's span tracer and the run reports per-layer
 * numbers instead, from the trace, the metrics registry and an
 * outside-in pass over the layers' public calls. The last line of
 * standard output is one JSON object; see README.md.
 *
 * It only calls the library's public functions. It never
 * reads the library's environment knobs for its own sizes.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chip/die.hh"
#include "chip/sensors.hh"
#include "cmpsim/workload.hh"
#include "core/experiment.hh"
#include "core/linopt.hh"
#include "core/pmalgo.hh"
#include "core/sann.hh"
#include "core/sched.hh"
#include "core/system.hh"
#include "runtime/arena.hh"
#include "runtime/metrics.hh"
#include "runtime/threadpool.hh"
#include "runtime/trace.hh"
#include "timing/critpath.hh"
#include "varius/field.hh"
#include "varius/varmap.hh"

#include "gridpoints.hh"
#include "trace_stats.hh"

extern char **environ;

using namespace varsched;
using vsbench::SpanStats;
using vsbench::TraceSummary;
using vsbench::summarizeTrace;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** CPU time of @p clock (a CLOCK_*_CPUTIME_ID), ms. */
double
cpuMs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

// ---------------------------------------------------------------
// Statistics helpers.

/** Linear-interpolated percentile (q in [0, 1]); 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
average(const std::vector<double> &v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
            static_cast<double>(v.size());
}

double
largest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

std::size_t
beyond(std::size_t n, double p)
{
    return static_cast<std::size_t>(
        std::floor(static_cast<double>(n) * (1.0 - p / 100.0) + 1e-9));
}

/** FNV-1a over the bit patterns of the values fed in. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 0x100000001B3ULL;
        }
    }
    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/** Every simulated statistic of a batch, in a fixed order. */
void
digestBatch(Digest &d, const BatchResult &r)
{
    for (const ConfigMetrics &a : r.absolute) {
        for (const Summary *s :
             {&a.mips, &a.weightedIpc, &a.powerW, &a.freqHz, &a.ed2,
              &a.weightedEd2, &a.deviation, &a.worstAging,
              &a.lifetimeYears}) {
            d.add(static_cast<std::uint64_t>(s->count()));
            d.add(s->mean());
            d.add(s->min());
            d.add(s->max());
        }
    }
    for (const RelativeMetrics &m : r.relative) {
        for (const Summary *s :
             {&m.mips, &m.weightedIpc, &m.weightedProgress, &m.powerW,
              &m.freqHz, &m.ed2, &m.weightedEd2}) {
            d.add(s->mean());
            d.add(s->min());
            d.add(s->max());
        }
    }
    d.add(r.exactTicks);
    d.add(r.sampledTicks);
    d.add(r.estErrMax);
    d.add(r.phaseInvalidations);
}

/** A paper ordering or sanity condition on the outputs. */
struct Check
{
    std::string what;
    bool ok = false;
};

// ---------------------------------------------------------------
// Workloads.

/**
 * What one timed round did. The unit of work is a die: a die
 * manufactured and binned, or a die run through a whole thread sweep.
 */
struct RoundOut
{
    std::size_t units = 0;  ///< Dies attempted.
    std::size_t failed = 0; ///< Dies whose work threw.
    double simMs = 0.0;     ///< Simulated milliseconds.
    std::uint64_t digest = 0;
    std::uint64_t exactTicks = 0;
    std::uint64_t sampledTicks = 0;
    std::uint64_t invalidations = 0;
    double estErrMax = 0.0;
    std::vector<double> unitMs; ///< Host ms per die.
    std::vector<double> unitCpuMs; ///< CPU ms per die, all threads.
    double cpuMs = 0.0;            ///< CPU ms of the round, all threads.
};

/** Sampled-vs-exact accuracy of the reference rounds' runs. */
struct Accuracy
{
    std::vector<double> err;    ///< max(|dP|/P, |dE|/E) per run.
    std::vector<double> ed2;    ///< |dED2|/ED2 per run.
    std::vector<double> estErr; ///< The engine's own est_err per run.
    std::size_t capBreaches = 0;
};

/** Digest of the reference rounds' digests. */
std::uint64_t
combine(const std::vector<std::uint64_t> &digests)
{
    Digest d;
    for (std::uint64_t v : digests)
        d.add(v);
    return d.value();
}

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Worker threads; fixed per workload. */
    virtual std::size_t workers() const = 0;
    /** Clear the library's process-wide caches and warm up again. */
    virtual void setupPass(std::size_t pass) = 0;
    /** Run round @p r (distinct dies for every round). */
    virtual RoundOut runRound(std::size_t r) = 0;
    /** Rounds [0, n) form the reference set the outputs are checked on. */
    virtual std::size_t referenceRounds() const = 0;
    /**
     * Fewest dies a timed phase may end with, and the tail percentile
     * that leaves ten of them beyond it. Both are fixed per workload
     * so that the reported percentile never changes between runs.
     */
    virtual std::size_t minUnits() const = 0;
    double
    tailPercentile() const
    {
        return 100.0 * (1.0 - 10.0 / static_cast<double>(minUnits()));
    }
    /**
     * Recompute each reference round through a second path of public
     * calls and return their digests; fill @p acc when given and
     * applicable.
     */
    virtual std::vector<std::uint64_t> recheck(Accuracy *acc) = 0;
    /** The paper's orderings over every round run so far. */
    virtual std::vector<Check> checks() const = 0;
};

/** Table 4 parameters: 20 cores, Vth sigma/mu 0.12, phi 0.5. */
DieParams
table4Params()
{
    DieParams p;
    p.numCores = 20;
    p.variation.vthSigmaOverMu = 0.12;
    p.variation.phi = 0.5;
    return p;
}

void
clearProcessCaches()
{
    clearFieldSampleCache();
    clearFieldFactorCache();
    clearFieldSpectrumCache();
}

// Seed-derivation tags: every die the process manufactures comes
// from a distinct (tag, index) pair, so the field-sample cache never
// replays a die as free work unless the program itself asks for it.
constexpr std::uint64_t kTagRound = 0x52440000;
constexpr std::uint64_t kTagWarmup = 0x57550000;
constexpr std::uint64_t kTagKernel = 0x4B4E0000;

/** Fig 4 ratios and binning of one die, by the figure benches' code. */
struct DieOut
{
    bench::DieRatios ratios;
    bench::DieYield yield;
};

DieOut
binDie(const Die &die)
{
    return {bench::coreRatios(die), bench::dieYield(die)};
}

void
digestDie(Digest &d, const DieOut &o)
{
    d.add(o.ratios.power);
    d.add(o.ratios.freq);
    d.add(o.yield.clockHz);
    d.add(o.yield.staticW);
}

/**
 * manufacture: lots of fresh dies, each binned and folded into the
 * Fig 4 ratios. No tick loop.
 */
class ManufactureWorkload : public Workload
{
  public:
    static constexpr std::size_t kWorkers = 2;
    static constexpr std::size_t kLot = 16;

    explicit ManufactureWorkload(std::uint64_t seed) : seed_(seed) {}

    std::size_t workers() const override { return kWorkers; }
    std::size_t referenceRounds() const override { return 1; }
    std::size_t minUnits() const override { return 200; }

    void
    setupPass(std::size_t pass) override
    {
        clearProcessCaches();
        pool_.reset();
        pool_ = std::make_unique<ThreadPool>(kWorkers);
        std::vector<std::uint64_t> seeds(kWorkers);
        for (std::size_t i = 0; i < kWorkers; ++i)
            seeds[i] = deriveSeed(seed_, kTagWarmup + pass, i);
        pool_->parallelFor(
            seeds.size(),
            [&](std::size_t i) { binDie(Die(params_, seeds[i])); }, 1);
    }

    RoundOut
    runRound(std::size_t r) override
    {
        RoundOut out;
        std::vector<DieOut> dies(kLot);
        std::vector<char> threw(kLot, 0);
        out.unitMs.resize(kLot);
        out.unitCpuMs.resize(kLot);
        const double c0 = cpuMs(CLOCK_PROCESS_CPUTIME_ID);
        pool_->parallelFor(
            kLot,
            [&](std::size_t i) {
                const auto t0 = Clock::now();
                const double c0 = cpuMs(CLOCK_THREAD_CPUTIME_ID);
                try {
                    trace::Scope span("bench.die");
                    const Die die(params_, roundSeed(r, i));
                    trace::Scope bin("bench.bin");
                    dies[i] = binDie(die);
                } catch (...) {
                    threw[i] = 1;
                }
                out.unitMs[i] = msSince(t0);
                out.unitCpuMs[i] = cpuMs(CLOCK_THREAD_CPUTIME_ID) - c0;
            },
            1);
        out.cpuMs = cpuMs(CLOCK_PROCESS_CPUTIME_ID) - c0;
        Digest d;
        for (std::size_t i = 0; i < kLot; ++i) {
            out.units += 1;
            if (threw[i]) {
                out.failed += 1;
                continue;
            }
            digestDie(d, dies[i]);
            power_.add(dies[i].ratios.power);
            freq_.add(dies[i].ratios.freq);
        }
        out.digest = d.value();
        return out;
    }

    std::vector<std::uint64_t>
    recheck(Accuracy *) override
    {
        // Serial, on fresh caches: independent of the pool and of
        // any field sample the timed round left behind.
        clearFieldSampleCache();
        Digest d;
        for (std::size_t i = 0; i < kLot; ++i)
            digestDie(d, binDie(Die(params_, roundSeed(0, i))));
        return {d.value()};
    }

    std::vector<Check>
    checks() const override
    {
        // The paper reports means of ~1.53 (power) and ~1.33
        // (frequency); the model's own reproduction sits at about
        // 1.70 / 1.30 (EXPERIMENTS.md), inside +-20% of the paper.
        char buf[160];
        std::vector<Check> out;
        std::snprintf(buf, sizeof buf,
                      "Fig 4 power ratio mean %.4f within 20%% of 1.53 "
                      "(%zu dies)",
                      power_.mean(), power_.count());
        out.push_back({buf, std::abs(power_.mean() / 1.53 - 1.0) <= 0.20});
        std::snprintf(buf, sizeof buf,
                      "Fig 4 frequency ratio mean %.4f within 20%% of "
                      "1.33",
                      freq_.mean());
        out.push_back({buf, std::abs(freq_.mean() / 1.33 - 1.0) <= 0.20});
        return out;
    }

  private:
    std::uint64_t
    roundSeed(std::size_t r, std::size_t i) const
    {
        return deriveSeed(seed_, kTagRound + r, i);
    }

    std::uint64_t seed_;
    DieParams params_ = table4Params();
    std::unique_ptr<ThreadPool> pool_;
    Summary power_, freq_;
};

/** Builds the configurations runBatch compares at one thread count. */
using ConfigsFor = std::function<std::vector<SystemConfig>(std::size_t)>;

/** Every round's batch result, per thread count. */
using SweepResults = std::map<std::size_t, std::vector<BatchResult>>;

/** The paper's orderings over a tick-loop workload's results. */
using SweepChecks = std::function<std::vector<Check>(const SweepResults &)>;

/**
 * A Fig 2 tick-loop workload. One round is one die run through the
 * whole thread sweep: one runBatch call per thread count, as the
 * figure benches call it, so runBatch manufactures the die again for
 * every thread count (replayed from the field-sample cache) exactly
 * as the program does.
 */
class TickWorkload : public Workload
{
  public:
    TickWorkload(std::uint64_t seed, std::size_t workers,
                 std::size_t trials, std::size_t referenceRounds,
                 std::vector<std::size_t> sweep, ConfigsFor configsFor,
                 SweepChecks checks)
        : seed_(seed), workers_(workers), trials_(trials),
          referenceRounds_(referenceRounds), sweep_(std::move(sweep)),
          configsFor_(std::move(configsFor)), checks_(std::move(checks))
    {
    }

    std::size_t workers() const override { return workers_; }
    std::size_t referenceRounds() const override { return referenceRounds_; }
    std::size_t minUnits() const override { return 100; }

    void
    setupPass(std::size_t pass) override
    {
        clearProcessCaches();
        BatchConfig b = batchFor(0);
        b.seed = deriveSeed(seed_, kTagWarmup + pass);
        b.numTrials = 1;
        runBatch(b, sweep_.front(), configsFor_(sweep_.front()));
    }

    RoundOut
    runRound(std::size_t r) override
    {
        RoundOut out;
        out.units = 1;
        const BatchConfig b = batchFor(r);
        Digest d;
        const auto t0 = Clock::now();
        const double c0 = cpuMs(CLOCK_PROCESS_CPUTIME_ID);
        try {
            for (std::size_t n : sweep_) {
                const std::vector<SystemConfig> configs = configsFor_(n);
                const BatchResult res = runBatch(b, n, configs);
                digestBatch(d, res);
                results_[n].push_back(res);
                out.simMs += static_cast<double>(trials_ * configs.size()) *
                    configs[0].durationMs;
                out.exactTicks += res.exactTicks;
                out.sampledTicks += res.sampledTicks;
                out.invalidations += res.phaseInvalidations;
                out.estErrMax = std::max(out.estErrMax, res.estErrMax);
            }
        } catch (...) {
            out.failed = 1;
        }
        out.unitMs.push_back(msSince(t0));
        out.cpuMs = cpuMs(CLOCK_PROCESS_CPUTIME_ID) - c0;
        out.unitCpuMs.push_back(out.cpuMs);
        out.digest = d.value();
        return out;
    }

    std::vector<std::uint64_t>
    recheck(Accuracy *acc) override
    {
        // Second path: manufacture, workload draw and one
        // SystemSimulator per run by hand, reduced in tuple order the
        // way runBatch reduces. The exact reference runs beside each
        // sampled run when @p acc asks for accuracy.
        clearFieldSampleCache();
        ThreadPool pool(workers_);
        std::vector<std::uint64_t> digests;
        for (std::size_t r = 0; r < referenceRounds_; ++r) {
            const BatchConfig b = batchFor(r);
            const Die die(b.dieParams, dieSeedFor(b, 0));
            Digest d;
            for (std::size_t n : sweep_) {
                const std::vector<SystemConfig> configs = configsFor_(n);
                const std::vector<SystemResult> row(configs.size());
                std::vector<std::vector<SystemResult>> sampled(trials_, row);
                std::vector<std::vector<SystemResult>> exact(trials_, row);
                pool.parallelFor(
                    trials_ * configs.size(),
                    [&](std::size_t j) {
                        const std::size_t t = j / configs.size();
                        const std::size_t k = j % configs.size();
                        Rng rng = workloadRngFor(b, 0, t);
                        const auto apps = randomWorkload(n, rng);
                        SystemConfig config = configs[k];
                        config.seed = rng.next();
                        sampled[t][k] =
                            SystemSimulator(die, apps, config).run();
                        if (acc != nullptr && sampledManager(config)) {
                            config.phaseSampling.exactReference = true;
                            exact[t][k] =
                                SystemSimulator(die, apps, config).run();
                        }
                    },
                    1);
                digestBatch(d, reduce(sampled));
                if (acc != nullptr)
                    accumulateAccuracy(*acc, configs, sampled, exact);
            }
            digests.push_back(d.value());
        }
        return digests;
    }

    std::vector<Check> checks() const override { return checks_(results_); }

  private:
    BatchConfig
    batchFor(std::size_t r) const
    {
        BatchConfig b;
        b.dieParams = table4Params();
        b.numDies = 1;
        b.numTrials = trials_;
        b.seed = deriveSeed(seed_, kTagRound + r);
        b.workerThreads = workers_;
        return b;
    }

    /** Phase-sampled runs whose manager the sampler does not demote. */
    static bool
    sampledManager(const SystemConfig &c)
    {
        return c.phaseSampling.enabled &&
            (c.pm == PmKind::LinOpt || c.pm == PmKind::SAnn);
    }

    /** runBatch's ordered reduction, over runs made by hand. */
    static BatchResult
    reduce(const std::vector<std::vector<SystemResult>> &tuples)
    {
        BatchResult result;
        const std::size_t k = tuples.front().size();
        result.absolute.resize(k);
        result.relative.resize(k);
        for (const auto &runs : tuples) {
            for (std::size_t c = 0; c < k; ++c) {
                const SystemResult &r = runs[c];
                const SystemResult &base = runs[0];
                auto &abs = result.absolute[c];
                abs.mips.add(r.avgMips);
                abs.weightedIpc.add(r.avgWeightedIpc);
                abs.powerW.add(r.avgPowerW);
                abs.freqHz.add(r.avgFreqHz);
                abs.ed2.add(r.ed2);
                abs.weightedEd2.add(r.weightedEd2);
                abs.deviation.add(r.powerDeviation);
                abs.worstAging.add(r.worstAgingRate);
                abs.lifetimeYears.add(r.projectedLifetimeYears);
                result.exactTicks += r.exactTicks;
                result.sampledTicks += r.sampledTicks;
                result.estErrMax = std::max(result.estErrMax, r.estErr);
                result.phaseInvalidations += r.phaseInvalidations;
                auto &rel = result.relative[c];
                rel.mips.add(r.avgMips / base.avgMips);
                rel.weightedIpc.add(r.avgWeightedIpc /
                                    base.avgWeightedIpc);
                rel.weightedProgress.add(r.avgWeightedProgress /
                                         base.avgWeightedProgress);
                rel.powerW.add(r.avgPowerW / base.avgPowerW);
                rel.freqHz.add(r.avgFreqHz / base.avgFreqHz);
                rel.ed2.add(r.ed2 / base.ed2);
                rel.weightedEd2.add(r.weightedEd2 / base.weightedEd2);
            }
        }
        return result;
    }

    /**
     * The engine's own per-run cap (SystemSimulator::run under
     * VARSCHED_BENCH_COMPARE): 3x the error budget on power and
     * energy, 12x on ED^2.
     */
    static void
    accumulateAccuracy(Accuracy &acc,
                       const std::vector<SystemConfig> &configs,
                       const std::vector<std::vector<SystemResult>> &sampled,
                       const std::vector<std::vector<SystemResult>> &exact)
    {
        const auto rel = [](double a, double b) {
            const double den = std::max(std::abs(a), std::abs(b));
            return den > 0.0 ? std::abs(a - b) / den : 0.0;
        };
        for (std::size_t i = 0; i < sampled.size(); ++i) {
            for (std::size_t k = 0; k < configs.size(); ++k) {
                if (!sampledManager(configs[k]))
                    continue;
                const SystemResult &s = sampled[i][k];
                const SystemResult &e = exact[i][k];
                const double dP = rel(s.avgPowerW, e.avgPowerW);
                const double dE = rel(s.energyJ, e.energyJ);
                const double dEd2 = rel(s.ed2, e.ed2);
                const double budget =
                    std::max(configs[k].phaseSampling.errorBudget, 0.0);
                acc.err.push_back(std::max(dP, dE));
                acc.ed2.push_back(dEd2);
                acc.estErr.push_back(s.estErr);
                if (dP > 3.0 * budget || dE > 3.0 * budget ||
                    dEd2 > 12.0 * budget)
                    acc.capBreaches += 1;
            }
        }
    }

    std::uint64_t seed_;
    std::size_t workers_;
    std::size_t trials_;
    std::size_t referenceRounds_;
    std::vector<std::size_t> sweep_;
    ConfigsFor configsFor_;
    SweepChecks checks_;
    SweepResults results_;
};

/** Mean over rounds of config @p k's relative @p field mean at @p n. */
double
relMean(const SweepResults &results, std::size_t n, std::size_t k,
        Summary RelativeMetrics::*field)
{
    const auto it = results.find(n);
    if (it == results.end() || it->second.empty())
        return 0.0;
    double sum = 0.0;
    for (const BatchResult &r : it->second)
        sum += (r.relative[k].*field).mean();
    return sum / static_cast<double>(it->second.size());
}

/**
 * sched_nodvfs: Figs 7-10. Random and the Table 1 schedulers under
 * UniFreq (configs 0-4) and NUniFreq (5-9), no power manager, over
 * the paper's thread sweep, exact tick loop, steady-state thermal.
 */
std::unique_ptr<Workload>
makeSchedNoDvfs(std::uint64_t seed)
{
    const SchedAlgo scheds[] = {SchedAlgo::Random, SchedAlgo::VarP,
                                SchedAlgo::VarPAppP, SchedAlgo::VarF,
                                SchedAlgo::VarFAppIPC};
    const ConfigsFor configsFor = [scheds](std::size_t) {
        std::vector<SystemConfig> configs;
        for (bool uniform : {true, false}) {
            for (SchedAlgo s : scheds) {
                SystemConfig c;
                c.sched = s;
                c.pm = PmKind::None;
                c.uniformFrequency = uniform;
                c.durationMs = 150.0;
                configs.push_back(c);
            }
        }
        return configs;
    };
    const SweepChecks checks = [](const SweepResults &results) {
        std::vector<Check> out;
        for (std::size_t n : {2, 4, 8, 16, 20}) {
            const double rel =
                relMean(results, n, 5, &RelativeMetrics::mips);
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          "NUniFreq/UniFreq MIPS (Random) at %zu threads "
                          "%.4f > 1",
                          n, rel);
            out.push_back({buf, rel > 1.0});
        }
        return out;
    };
    return std::make_unique<TickWorkload>(
        seed, /*workers=*/2, /*trials=*/6, /*referenceRounds=*/2,
        std::vector<std::size_t>{2, 4, 8, 16, 20}, configsFor, checks);
}

/**
 * dvfs_costperf: Figs 11/13 Cost-Performance environment at its
 * published scale: Random+Foxton* against VarF&AppIPC with Foxton*,
 * LinOpt and SAnn at Ptarget = 75 W x threads / 20, phase sampling on
 * as the figure benches default to.
 */
std::unique_ptr<Workload>
makeDvfsCostPerf(std::uint64_t seed)
{
    const ConfigsFor configsFor = [](std::size_t threads) {
        std::vector<SystemConfig> configs(4);
        configs[0].sched = SchedAlgo::Random;
        configs[0].pm = PmKind::FoxtonStar;
        configs[1].sched = SchedAlgo::VarFAppIPC;
        configs[1].pm = PmKind::FoxtonStar;
        configs[2].sched = SchedAlgo::VarFAppIPC;
        configs[2].pm = PmKind::LinOpt;
        configs[3].sched = SchedAlgo::VarFAppIPC;
        configs[3].pm = PmKind::SAnn;
        for (SystemConfig &c : configs) {
            c.ptargetW = 75.0 * static_cast<double>(threads) / 20.0;
            c.durationMs = 150.0;
            c.sannEvals = 8000;
            c.phaseSampling.enabled = true;
        }
        return configs;
    };
    const SweepChecks checks = [](const SweepResults &results) {
        std::vector<Check> out;
        for (std::size_t k : {2, 3}) {
            double sum = 0.0;
            for (std::size_t n : {4, 8, 16, 20})
                sum += relMean(results, n, k, &RelativeMetrics::weightedIpc);
            const double rel = sum / 4.0;
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          "%s relative weighted IPC %.4f > 1 (Random+"
                          "Foxton* baseline, mean over thread counts)",
                          k == 2 ? "LinOpt" : "SAnn", rel);
            out.push_back({buf, rel > 1.0});
        }
        return out;
    };
    // 16 dies x 2 trials of reference set: the size of Fig 13's 8 x 4.
    return std::make_unique<TickWorkload>(
        seed, /*workers=*/2, /*trials=*/2, /*referenceRounds=*/16,
        std::vector<std::size_t>{4, 8, 16, 20}, configsFor, checks);
}

// ---------------------------------------------------------------
// Outside-in kernel pass (traced runs only).

struct KernelTimes
{
    std::vector<double> dieMs, mapMs, coreMs;
    std::vector<double> evalColdUs, evalWarmUs, snapshotUs;
    std::vector<double> foxtonUs, linoptUs, sannUs;
    double linoptPivots = 0.0; ///< Mean pivots per LinOpt solve.
    double sannEvals = 0.0;    ///< Mean evaluations per SAnn decision.
    double sannAcceptRatio = 0.0;
};

double
usSince(Clock::time_point t0)
{
    return msSince(t0) * 1e3;
}

/**
 * Time the public calls behind the per-layer table on dies and
 * workloads drawn from @p seed under a tag no timed round uses, so no
 * field sample is replayed from the cache as free work.
 */
KernelTimes
kernelPass(std::uint64_t seed)
{
    KernelTimes k;
    const DieParams params = table4Params();
    const Floorplan plan(params.numCores, params.dieAreaMm2);
    constexpr std::size_t kDies = 10;
    clearFieldSampleCache();

    std::vector<Die> dies;
    for (std::size_t i = 0; i < kDies; ++i) {
        const auto t0 = Clock::now();
        dies.emplace_back(params, deriveSeed(seed, kTagKernel, i));
        k.dieMs.push_back(msSince(t0));
    }
    for (std::size_t i = 0; i < kDies; ++i) {
        Rng rng(deriveSeed(seed, kTagKernel + 1, i));
        auto t0 = Clock::now();
        const VariationMap map = generateVariationMap(params.variation, rng);
        k.mapMs.push_back(msSince(t0));
        Rng pathRng = rng.fork(0xC0DE);
        for (std::size_t c = 0; c < params.numCores; ++c) {
            t0 = Clock::now();
            const CoreTiming timing = buildCoreTiming(
                map, plan, c, pathRng, params.delay, params.critPath);
            double sink = 0.0;
            for (double v : params.voltageLevels)
                sink += timing.fmax(v, params.critPath.binTempC);
            k.coreMs.push_back(msSince(t0));
            if (!(sink > 0.0))
                throw std::runtime_error("non-positive fmax");
        }
    }

    metrics::Registry &reg = metrics::Registry::global();
    const std::uint64_t acc0 = reg.counter("sann.accepted").value();
    const std::uint64_t rej0 = reg.counter("sann.rejected").value();
    std::size_t pivots = 0, solves = 0, evals = 0, anneals = 0;
    constexpr std::size_t kThreads = 16;
    constexpr std::size_t kEpochs = 12;
    for (std::size_t i = 0; i < kDies; ++i) {
        const Die &die = dies[i];
        const std::size_t n = die.numCores();
        Rng rng(deriveSeed(seed, kTagKernel + 2, i));
        const auto apps = randomWorkload(kThreads, rng);
        const auto assignment =
            scheduleThreads(SchedAlgo::VarFAppIPC, die, apps, rng);
        std::vector<CoreWork> work(n);
        for (std::size_t t = 0; t < apps.size(); ++t)
            work[assignment[t]].app = apps[t];
        const ChipEvaluator ev(die);
        std::vector<int> levels(n, static_cast<int>(die.maxLevel()));
        ChipCondition cond;
        for (int rep = 0; rep < 8; ++rep) {
            const auto t0 = Clock::now();
            ev.evaluateInto(cond, work, levels);
            k.evalColdUs.push_back(usSince(t0));
        }
        // Warm: step alternate cores down and back up one level, each
        // solve seeded from the previous one, as the tick loop does.
        for (int rep = 0; rep < 16; ++rep) {
            for (std::size_t c = rep % 2; c < n; c += 2)
                levels[c] = static_cast<int>(die.maxLevel()) - (rep / 2) % 2;
            const auto t0 = Clock::now();
            ev.evaluateInto(cond, work, levels, 0.0, &cond);
            k.evalWarmUs.push_back(usSince(t0));
        }

        const double ptarget = 75.0 * kThreads / 20.0;
        const double pcoreMax = 2.0 * ptarget / kThreads;
        FoxtonStarManager foxton;
        LinOptManager linopt;
        SAnnConfig sannCfg;
        sannCfg.maxEvals = 8000;
        sannCfg.seed = deriveSeed(seed, kTagKernel + 3, i);
        SAnnManager sann(sannCfg);
        PowerManager *managers[] = {&foxton, &linopt, &sann};
        std::vector<double> *times[] = {&k.foxtonUs, &k.linoptUs,
                                        &k.sannUs};
        for (int m = 0; m < 3; ++m) {
            std::fill(levels.begin(), levels.end(),
                      static_cast<int>(die.maxLevel()));
            ev.evaluateInto(cond, work, levels);
            Rng noise(deriveSeed(seed, kTagKernel + 4, i));
            for (std::size_t e = 0; e < kEpochs; ++e) {
                auto t0 = Clock::now();
                const ChipSnapshot snap = buildSnapshot(
                    ev, work, cond, ptarget, pcoreMax, &noise);
                k.snapshotUs.push_back(usSince(t0));
                managers[m]->beginEpoch(e);
                t0 = Clock::now();
                const std::vector<int> chosen =
                    managers[m]->selectLevels(snap);
                times[m]->push_back(usSince(t0));
                if (m == 1) {
                    pivots += linopt.lastDiag().pivots;
                    ++solves;
                } else if (m == 2) {
                    evals += sann.lastEvals();
                    ++anneals;
                }
                for (std::size_t c = 0; c < snap.cores.size(); ++c)
                    levels[snap.cores[c].coreId] = chosen[c];
                ev.evaluateInto(cond, work, levels, 0.0, &cond);
            }
        }
    }
    k.linoptPivots = solves ? static_cast<double>(pivots) / solves : 0.0;
    k.sannEvals = anneals ? static_cast<double>(evals) / anneals : 0.0;
    const double accepted =
        static_cast<double>(reg.counter("sann.accepted").value() - acc0);
    const double rejected =
        static_cast<double>(reg.counter("sann.rejected").value() - rej0);
    k.sannAcceptRatio = accepted + rejected > 0.0
        ? accepted / (accepted + rejected)
        : 0.0;
    return k;
}

// ---------------------------------------------------------------
// Command line, environment and host.

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceFile = "vsbench_trace.json";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "vsbench: %s\nusage: vsbench --workload "
                 "manufacture|sched_nodvfs|dvfs_costperf --seed N "
                 "--seconds S --trace 0|1 [--trace-file PATH]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = *end == '\0' && !value.empty();
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            o.trace = value == "1";
        } else if (arg == "--trace-file") {
            o.traceFile = value;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (o.workload.empty() || !haveSeed || o.seconds <= 0.0)
        usage("--workload, --seed and --seconds are required");
    return o;
}

/**
 * Refuse knobs that make the program do other work than the one
 * measured (the exact-reference guard re-runs every sampled run and
 * may abort; the env tracer records every run), and echo every other
 * VARSCHED_* variable so a result carries the knobs it ran under.
 */
bool
checkEnvironment()
{
    bool ok = true;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("VARSCHED_", 0) != 0)
            continue;
        const std::string key = kv.substr(0, kv.find('='));
        if (key == "VARSCHED_BENCH_COMPARE" || key == "VARSCHED_TRACE") {
            std::fprintf(stderr,
                         "vsbench: refusing to time with %s set\n",
                         key.c_str());
            ok = false;
        } else {
            std::printf("env: %s\n", kv.c_str());
        }
    }
    return ok;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

void
printHost(std::size_t workers)
{
    std::printf("host: cpu=\"%s\" nproc=%u workers=%zu\n",
                cpuModel().c_str(), std::thread::hardware_concurrency(),
                workers);
    std::printf("build: type=%s flags=\"%s\" compiler=\"%s\"\n",
                VSBENCH_BUILD_TYPE, VSBENCH_CXX_FLAGS, __VERSION__);
}

// ---------------------------------------------------------------
// Output.

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %-26s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        json += (i ? ", \"" : "\"") + metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const auto processStart = Clock::now();
    const Options opt = parseOptions(argc, argv);
    if (!checkEnvironment())
        return 2;

    std::unique_ptr<Workload> w;
    if (opt.workload == "manufacture")
        w = std::make_unique<ManufactureWorkload>(opt.seed);
    else if (opt.workload == "sched_nodvfs")
        w = makeSchedNoDvfs(opt.seed);
    else if (opt.workload == "dvfs_costperf")
        w = makeDvfsCostPerf(opt.seed);
    else
        usage(("unknown workload " + opt.workload).c_str());
    printHost(w->workers());
    std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);

    // Set-up, several times: each pass clears the library's
    // process-wide caches and warms up on dies no timed round uses.
    // Costs are CPU time of every thread of the process: on a shared
    // host, wall time mostly measures the neighbours.
    constexpr std::size_t kSetupPasses = 7;
    std::vector<double> setupCpuS;
    for (std::size_t pass = 0; pass < kSetupPasses; ++pass) {
        const double c0 = cpuMs(CLOCK_PROCESS_CPUTIME_ID);
        w->setupPass(pass);
        setupCpuS.push_back((cpuMs(CLOCK_PROCESS_CPUTIME_ID) - c0) / 1e3);
    }
    std::printf("setup: %zu passes, cpu first=%.4fs median=%.4fs; wall "
                "from process start to the timed phase %.4fs\n",
                setupCpuS.size(), setupCpuS.front(), median(setupCpuS),
                msSince(processStart) / 1e3);

    metrics::Registry &reg = metrics::Registry::global();
    const std::uint64_t busy0 = reg.counter("pool.busy_ns").value();
    const std::uint64_t steal0 = reg.counter("pool.steal").value();
    const std::uint64_t arena0 =
        arenaBytesServed().load(std::memory_order_relaxed);

    double calibNsPerEvent = 0.0;
    constexpr int kCalib = 20000;
    if (opt.trace) {
        trace::traceStart(opt.traceFile, std::size_t{1} << 20);
        // Cost of one recorded span on this host, for the overhead
        // estimate; these spans sit outside every pool.task.
        const auto t0 = Clock::now();
        for (int i = 0; i < kCalib; ++i)
            trace::Scope calib("bench.calibrate");
        calibNsPerEvent = msSince(t0) * 1e6 / kCalib;
    }

    // Timed phase: whole rounds until the time is up, the reference
    // set is complete and enough dies are in for the tail percentile.
    std::vector<RoundOut> rounds;
    std::size_t unitsRun = 0;
    const auto timed0 = Clock::now();
    const double timedCpu0 = cpuMs(CLOCK_PROCESS_CPUTIME_ID);
    while (rounds.size() < w->referenceRounds() ||
           unitsRun < w->minUnits() || msSince(timed0) < opt.seconds * 1e3) {
        rounds.push_back(w->runRound(rounds.size()));
        unitsRun += rounds.back().units;
    }
    const double timedS = msSince(timed0) / 1e3;
    const double timedCpuS =
        (cpuMs(CLOCK_PROCESS_CPUTIME_ID) - timedCpu0) / 1e3;
    const double peakRssMb = metrics::peakRssKb() / 1024.0;
    // The timed rounds' own registry figures, read before the recheck
    // and the kernel pass add pool work and arena traffic of their own.
    const double busyUs =
        (reg.counter("pool.busy_ns").value() - busy0) / 1e3;
    const double steals =
        static_cast<double>(reg.counter("pool.steal").value() - steal0);
    const double arenaMb =
        (arenaBytesServed().load(std::memory_order_relaxed) - arena0) /
        1048576.0;
    TraceSummary ts;
    bool traceOk = true;
    if (opt.trace) {
        traceOk = trace::traceStopAndFlush() &&
            summarizeTrace(opt.traceFile, ts);
    }

    std::size_t attempted = 0, failed = 0;
    double simMs = 0.0;
    std::uint64_t exactTicks = 0, sampledTicks = 0, invalidations = 0;
    double estErrMax = 0.0;
    std::vector<double> unitMs, unitCpuMs, diesPerCpuS;
    std::vector<std::uint64_t> digests;
    for (const RoundOut &o : rounds) {
        attempted += o.units;
        failed += o.failed;
        simMs += o.simMs;
        exactTicks += o.exactTicks;
        sampledTicks += o.sampledTicks;
        invalidations += o.invalidations;
        estErrMax = std::max(estErrMax, o.estErrMax);
        unitMs.insert(unitMs.end(), o.unitMs.begin(), o.unitMs.end());
        unitCpuMs.insert(unitCpuMs.end(), o.unitCpuMs.begin(),
                         o.unitCpuMs.end());
        diesPerCpuS.push_back((o.units - o.failed) / (o.cpuMs / 1e3));
        if (digests.size() < w->referenceRounds())
            digests.push_back(o.digest);
    }
    const std::size_t dies = attempted - failed;
    const double tailP = w->tailPercentile();

    // Reference-set recheck through the second path (and, traced,
    // the sampled-vs-exact accuracy of its runs).
    Accuracy acc;
    const std::uint64_t digest = combine(digests);
    const std::uint64_t recheck =
        combine(w->recheck(opt.trace ? &acc : nullptr));
    std::vector<Check> checks = w->checks();
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "digest %016llx of rounds 0-%zu equals the second "
                  "path's %016llx",
                  static_cast<unsigned long long>(digest),
                  w->referenceRounds() - 1,
                  static_cast<unsigned long long>(recheck));
    checks.push_back({buf, digest == recheck});
    if (opt.trace)
        checks.push_back({"trace written and read", traceOk});
    bool correct = failed == 0;
    for (const Check &c : checks) {
        std::printf("check %s: %s\n", c.ok ? "ok  " : "FAIL", c.what.c_str());
        correct = correct && c.ok;
    }
    if (!correct && failed == 0)
        failed = w->referenceRounds() * rounds[0].units; // the checked set
    std::printf("units: %zu dies attempted, %zu failed, failed_frac=%.6g\n",
                attempted, failed,
                static_cast<double>(failed) / static_cast<double>(attempted));
    std::printf("timed: %.4fs wall, %.4fs cpu, %zu rounds, %.6g simulated "
                "ms\n",
                timedS, timedCpuS, rounds.size(), simMs);
    std::printf("wall: %.6g dies/s, %.6g sim ms/s, die p50=%.6gms "
                "p%g=%.6gms\n",
                dies / timedS, simMs / timedS, median(unitMs), tailP,
                quantile(unitMs, tailP / 100.0));
    std::printf("cpu: %.6g dies/cpu-s (median round %.6g), die p50=%.6gms "
                "p%g=%.6gms (%zu of %zu dies beyond)\n",
                dies / timedCpuS, median(diesPerCpuS), median(unitCpuMs),
                tailP, quantile(unitCpuMs, tailP / 100.0),
                beyond(unitCpuMs.size(), tailP), unitCpuMs.size());
    std::printf("digest: %016llx\n", static_cast<unsigned long long>(digest));

    std::vector<Metric> out;
    if (!opt.trace) {
        out.push_back({"setup_s", median(setupCpuS), "s"});
        out.push_back({"dies_per_s", median(diesPerCpuS), "dies/cpu-s"});
        out.push_back({"unit_ms_p50", median(unitCpuMs), "cpu-ms"});
        out.push_back({"unit_ms_tail", quantile(unitCpuMs, tailP / 100.0),
                       "cpu-ms"});
        out.push_back({"peak_rss_mb", peakRssMb, "MB"});
        printResult(correct, attempted, failed, out);
        return 0;
    }

    // Per-layer numbers from the traced rounds, the registry and the
    // kernel pass.
    const KernelTimes k = kernelPass(opt.seed);
    const auto span = [&](const char *name) -> const SpanStats & {
        static const SpanStats empty;
        const auto it = ts.spans.find(name);
        return it == ts.spans.end() ? empty : it->second;
    };
    const double workersWallUs =
        static_cast<double>(w->workers()) * timedS * 1e6;
    const SpanStats &poolTask = span("pool.task");
    const SpanStats &trial = span("experiment.trial");
    const SpanStats &settle = span("physics.settle");
    const SpanStats &decide = span("pm.decide");
    const double runs = static_cast<double>(trial.durUs.size());
    const double ticks = exactTicks + sampledTicks;
    const double poolTaskTailP = w->tailPercentile();
    const double dieMs = median(k.dieMs);
    const double mapMs = median(k.mapMs);
    const double coreMs = median(k.coreMs);
    const auto perRun = [&](double x) { return runs > 0 ? x / runs : 0.0; };
    const auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    std::printf("trace: %llu events, %llu dropped, %.4g ns per recorded "
                "span\n",
                static_cast<unsigned long long>(ts.events),
                static_cast<unsigned long long>(ts.dropped),
                calibNsPerEvent);
    std::printf("pool.task_ms_tail is p%g of %zu tasks\n", poolTaskTailP,
                poolTask.durUs.size());
    if (!acc.err.empty()) {
        std::printf("sampling: %zu runs vs exact reference, err mean "
                    "%.4g max %.4g, est_err mean %.4g max %.4g, %zu "
                    "over the engine's per-run cap\n",
                    acc.err.size(), average(acc.err), largest(acc.err),
                    average(acc.estErr), largest(acc.estErr), acc.capBreaches);
    }

    out.push_back({"chip.die_ms", dieMs, "ms"});
    out.push_back({"varius.map_ms", mapMs, "ms"});
    out.push_back({"timing.core_ms", coreMs, "ms"});
    out.push_back({"chip.die_other_ms",
                   dieMs - mapMs - coreMs * table4Params().numCores, "ms"});
    out.push_back({"physics.settle_us", median(settle.durUs), "us"});
    out.push_back({"physics.settles", perRun(settle.durUs.size()),
                   "count/run"});
    out.push_back({"physics.settle_per_tick",
                   frac(settle.durUs.size(), ticks), "ratio"});
    out.push_back({"chip.evaluate_cold_us", median(k.evalColdUs), "us"});
    out.push_back({"chip.evaluate_warm_us", median(k.evalWarmUs), "us"});
    out.push_back({"pm.decide_us", median(decide.durUs), "us"});
    out.push_back({"pm.decides", perRun(decide.durUs.size()), "count/run"});
    out.push_back({"chip.snapshot_us", median(k.snapshotUs), "us"});
    out.push_back({"pm.foxton_us", median(k.foxtonUs), "us"});
    out.push_back({"pm.linopt_us", median(k.linoptUs), "us"});
    out.push_back({"pm.sann_us", median(k.sannUs), "us"});
    out.push_back({"linopt.pivots", k.linoptPivots, "count/solve"});
    out.push_back({"sann.evals", k.sannEvals, "count/decision"});
    out.push_back({"sann.accept_ratio", k.sannAcceptRatio, "ratio"});
    out.push_back({"sched.place_us", median(span("sched.place").durUs),
                   "us"});
    out.push_back({"system.self_frac", frac(trial.selfUs, trial.totalUs),
                   "ratio"});
    out.push_back({"phase.sampled_frac", frac(sampledTicks, ticks),
                   "ratio"});
    out.push_back({"phase.invalidations", perRun(invalidations),
                   "count/run"});
    out.push_back({"phase.est_err_max", estErrMax, "relative"});
    out.push_back({"phase.ed2_err_max", largest(acc.ed2), "relative"});
    out.push_back({"pool.util", frac(busyUs, workersWallUs), "ratio"});
    out.push_back({"pool.steals",
                   frac(steals, dies),
                   "count/die"});
    out.push_back({"pool.task_ms_tail",
                   quantile(poolTask.durUs, poolTaskTailP / 100.0) / 1e3,
                   "ms"});
    out.push_back({"arena_mb", frac(arenaMb, dies), "MB/die"});
    out.push_back({"trace.unattributed_frac",
                   1.0 - frac(ts.poolTaskChildUs, poolTask.totalUs),
                   "ratio"});
    out.push_back({"trace.overhead_frac",
                   frac((ts.events - kCalib) * calibNsPerEvent / 1e3,
                        busyUs),
                   "ratio"});
    out.push_back({"sim_ms_per_s", simMs / timedCpuS, "ms/cpu-s"});
    out.push_back({"wall.dies_per_s", dies / timedS, "dies/s"});
    out.push_back({"wall.unit_ms_p50", median(unitMs), "ms"});
    out.push_back({"sampling_err_mean", average(acc.err), "relative"});
    out.push_back({"sampling_err_max", largest(acc.err), "relative"});
    out.push_back({"sampling.cap_breaches",
                   static_cast<double>(acc.capBreaches), "count"});
    out.push_back({"failed_frac",
                   static_cast<double>(failed) /
                       static_cast<double>(attempted),
                   "fraction"});
    printResult(correct, attempted, failed, out);
    return 0;
}
