/**
 * @file
 * Observability-layer suite: tracer ring-buffer semantics (bounded
 * memory, oldest-first drop, cross-thread export), the disabled-path
 * overhead contract, bit-identity of simulation results under
 * tracing, histogram percentile accuracy against exact quantiles,
 * and metrics-registry merge algebra.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cmpsim/workload.hh"
#include "core/system.hh"
#include "runtime/metrics.hh"
#include "solver/rng.hh"
#include "runtime/orchestrator.hh"
#include "runtime/trace.hh"

namespace varsched
{
namespace
{

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

/** Value of "key" in a one-line JSON object; empty when absent. */
std::string
jsonValue(const std::string &object, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = object.find(needle);
    if (at == std::string::npos)
        return "";
    std::size_t from = at + needle.size();
    while (from < object.size() &&
           std::isspace(static_cast<unsigned char>(object[from])))
        ++from;
    std::size_t to = from;
    if (to < object.size() && object[to] == '"') {
        to = object.find('"', to + 1);
        if (to == std::string::npos)
            return "";
        ++to;
    } else {
        while (to < object.size() && object[to] != ',' &&
               object[to] != '}')
            ++to;
    }
    return object.substr(from, to - from);
}

/** Event lines (one JSON object each) of an exported trace file. */
std::vector<std::string>
traceLines(const std::string &path)
{
    std::string text;
    EXPECT_TRUE(readWholeFile(path, text));
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        std::string s = text.substr(pos, nl - pos);
        pos = nl + 1;
        while (!s.empty() && (s.back() == ',' || s.back() == '\r'))
            s.pop_back();
        if (!s.empty() && s.front() == '{')
            lines.push_back(s);
    }
    return lines;
}

class TraceFixture : public ::testing::Test
{
  protected:
    // Tracing must never leak into other tests (several assert
    // bit-identical simulation results with tracing off).
    void TearDown() override { trace::traceStopAndFlush(); }
};

TEST_F(TraceFixture, RingWraparoundDropsOldestAndCountsThem)
{
    const std::string path = tempPath("trace_wrap.json");
    trace::traceStart(path, /*ringCapacity=*/8);
    for (int i = 0; i < 20; ++i)
        trace::instant("wrap.event", "i", static_cast<double>(i));

    const trace::TraceStats stats = trace::traceStats();
    EXPECT_EQ(stats.recorded, 8u) << "ring must stay bounded";
    EXPECT_EQ(stats.dropped, 12u);

    ASSERT_TRUE(trace::traceStopAndFlush());

    std::vector<double> kept;
    bool sawDropMarker = false;
    for (const std::string &line : traceLines(path)) {
        const std::string name = jsonValue(line, "name");
        if (name == "\"wrap.event\"")
            kept.push_back(std::strtod(
                jsonValue(line, "i").c_str(), nullptr));
        if (name == "\"trace.dropped\"") {
            sawDropMarker = true;
            EXPECT_EQ(jsonValue(line, "count"), "12");
        }
    }
    // Oldest-first drop: exactly the last 8 events survive, exported
    // in recording order.
    ASSERT_EQ(kept.size(), 8u);
    for (std::size_t k = 0; k < kept.size(); ++k)
        EXPECT_DOUBLE_EQ(kept[k], static_cast<double>(12 + k));
    EXPECT_TRUE(sawDropMarker)
        << "wraparound must be visible in the exported trace";
    std::remove(path.c_str());
}

TEST_F(TraceFixture, ExportsPerThreadLanesWithMonotonicTimestamps)
{
    const std::string path = tempPath("trace_threads.json");
    trace::traceStart(path);

    {
        TRACE_SCOPE("main.outer");
        const auto worker = [](const char *threadName) {
            trace::setThreadName(threadName);
            for (int i = 0; i < 50; ++i) {
                {
                    TRACE_SCOPE("worker.step");
                }
                trace::instant("worker.tick", "i",
                               static_cast<double>(i));
            }
        };
        std::thread a(worker, "lane-a");
        std::thread b(worker, "lane-b");
        a.join();
        b.join();
    }
    ASSERT_TRUE(trace::traceStopAndFlush());

    std::map<std::string, std::vector<double>> tsByTid;
    std::vector<std::string> threadNames;
    std::size_t spans = 0;
    for (const std::string &line : traceLines(path)) {
        const std::string phase = jsonValue(line, "ph");
        if (phase == "\"M\"") {
            threadNames.push_back(jsonValue(line, "args"));
            continue;
        }
        if (phase == "\"X\"")
            ++spans;
        tsByTid[jsonValue(line, "tid")].push_back(std::strtod(
            jsonValue(line, "ts").c_str(), nullptr));
    }

    // Three lanes: the main thread and the two named workers.
    EXPECT_EQ(tsByTid.size(), 3u);
    EXPECT_EQ(spans, 1u + 2u * 50u);
    EXPECT_EQ(threadNames.size(), 2u);

    // Within a lane the exported order is the recording order, and
    // instant timestamps never run backwards (steady clock).
    for (const auto &[tid, ts] : tsByTid) {
        for (std::size_t k = 1; k < ts.size(); ++k)
            EXPECT_GE(ts[k], 0.0);
        std::vector<double> sorted(ts);
        std::sort(sorted.begin(), sorted.end());
        // Spans are stamped with their start time and this workload
        // closes each span before recording the next event, so a
        // lane's export order is its time order.
        EXPECT_EQ(ts, sorted) << "lane " << tid;
    }
    std::remove(path.c_str());
}

TEST_F(TraceFixture, SimulationResultsAreBitIdenticalUnderTracing)
{
    DieParams params;
    params.variation.gridSize = 48;
    const Die die(params, 77);
    Rng rng(3);
    const auto apps = randomWorkload(8, rng);
    SystemConfig config;
    config.durationMs = 50.0;
    config.ptargetW = 75.0;
    // Default pm is None, which skips the DVFS decision block — run
    // the LP manager so the pm.decide span family is exercised.
    config.pm = PmKind::LinOpt;

    const auto runOnce = [&]() {
        SystemSimulator sim(die, apps, config);
        return sim.run();
    };

    const SystemResult off = runOnce();

    const std::string path = tempPath("trace_identity.json");
    trace::traceStart(path);
    const SystemResult on = runOnce();
    ASSERT_TRUE(trace::traceStopAndFlush());
    const SystemResult offAgain = runOnce();

    // Tracing observes, never perturbs: every metric is bit-identical
    // with tracing on, off, and off-after-on.
    for (const SystemResult *r : {&on, &offAgain}) {
        EXPECT_EQ(off.avgMips, r->avgMips);
        EXPECT_EQ(off.avgWeightedIpc, r->avgWeightedIpc);
        EXPECT_EQ(off.avgPowerW, r->avgPowerW);
        EXPECT_EQ(off.avgFreqHz, r->avgFreqHz);
        EXPECT_EQ(off.ed2, r->ed2);
        EXPECT_EQ(off.powerDeviation, r->powerDeviation);
        EXPECT_EQ(off.worstAgingRate, r->worstAgingRate);
        EXPECT_EQ(off.powerTrace, r->powerTrace);
    }

    // And the traced run actually recorded the tick-loop spans.
    std::string text;
    ASSERT_TRUE(readWholeFile(path, text));
    EXPECT_NE(text.find("physics."), std::string::npos);
    EXPECT_NE(text.find("pm.decide"), std::string::npos);
    EXPECT_NE(text.find("sched.place"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(TraceFixture, DisabledTraceSitesAreInvisiblyCheap)
{
    ASSERT_FALSE(trace::enabled());
    // The overhead contract (trace.hh): a disabled site is one
    // relaxed atomic load and a branch. 1% of even a microsecond-
    // scale tick is ~10 ns; measure the site cost directly and
    // enforce a ceiling far below any real tick, with slack for
    // sanitizer builds and noisy CI neighbours.
    constexpr int kIters = 1 << 20;
    volatile double sink = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
        TRACE_SCOPE("guard.noop");
        TRACE_INSTANT("guard.instant");
        TRACE_COUNTER("guard.counter", 1.0);
        sink = sink + 1.0;
    }
    const double ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        static_cast<double>(kIters);
    // Three disabled sites + the loop body per iteration.
    EXPECT_LT(ns, 150.0)
        << "disabled trace sites cost " << ns
        << " ns/iteration — the always-on contract is broken";
}

// ---------------------------------------------------------------------
// Histograms vs exact quantiles.

TEST(MetricsHistogram, PercentilesTrackExactQuantiles)
{
    metrics::Histogram h;
    // Uniform 1..1000 — exact nearest-rank quantiles are q * 1000.
    for (int v = 1; v <= 1000; ++v)
        h.record(static_cast<double>(v));

    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 1000.0);
    EXPECT_NEAR(h.sum(), 500500.0, 1e-9);

    // One sub-bucket (1/16 octave) of relative error, plus midpoint
    // representative: 5% covers the worst case with margin.
    for (const double q : {0.50, 0.90, 0.99}) {
        const double exact = std::ceil(q * 1000.0);
        EXPECT_NEAR(h.percentile(q), exact, 0.05 * exact)
            << "q = " << q;
    }
    // Degenerate quantiles clamp to the observed range.
    EXPECT_GE(h.percentile(0.0), 1.0);
    EXPECT_LE(h.percentile(1.0), 1000.0);
}

TEST(MetricsHistogram, LognormalTailPercentilesStayInBudget)
{
    metrics::Histogram h;
    // Deterministic heavy-tail sample: exp(z), z on a fixed grid of
    // normal deviates via inverse-CDF-ish spread. Exact quantiles
    // come from sorting the same sample.
    std::vector<double> values;
    Rng rng(99);
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        const double v = rng.uniform();
        const double z = std::sqrt(-2.0 * std::log(u + 1e-12)) *
                         std::cos(6.283185307179586 * v);
        values.push_back(std::exp(z));
    }
    for (const double v : values)
        h.record(v);
    std::vector<double> sorted(values);
    std::sort(sorted.begin(), sorted.end());

    for (const double q : {0.50, 0.90, 0.99}) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(sorted.size())));
        const double exact = sorted[rank - 1];
        EXPECT_NEAR(h.percentile(q), exact, 0.05 * exact)
            << "q = " << q;
    }
}

TEST(MetricsHistogram, BucketBoundsAreMonotonicAndCoverValues)
{
    double prev = 0.0;
    for (int i = 0; i < metrics::Histogram::kBuckets; ++i) {
        const double ub = metrics::Histogram::bucketUpperBound(i);
        EXPECT_GT(ub, prev) << "bucket " << i;
        prev = ub;
    }
    // A value always lands in a bucket whose bound brackets it.
    for (const double v : {1e-9, 0.37, 1.0, 16.5, 1234.0, 9.9e12}) {
        const int i = metrics::Histogram::bucketIndex(v);
        EXPECT_LE(v, metrics::Histogram::bucketUpperBound(i) *
                          (1.0 + 1e-12));
        if (i > 0) {
            EXPECT_GT(v, metrics::Histogram::bucketUpperBound(i - 1) *
                             (1.0 - 1e-12));
        }
    }
}

// ---------------------------------------------------------------------
// Registry merge algebra (the cross-thread / cross-process rollup).

void
populate(metrics::Registry &reg, std::uint64_t steals, double gauge,
         const std::vector<double> &samples)
{
    reg.counter("steals").add(steals);
    reg.gauge("depth").set(gauge);
    metrics::Histogram &h = reg.histogram("latency");
    for (const double v : samples)
        h.record(v);
}

TEST(MetricsRegistry, MergeIsAssociative)
{
    const auto makeA = [](metrics::Registry &r) {
        populate(r, 3, 5.0, {1.0, 2.0, 3.0});
    };
    const auto makeB = [](metrics::Registry &r) {
        populate(r, 10, 9.0, {100.0, 200.0});
    };
    const auto makeC = [](metrics::Registry &r) {
        populate(r, 1, 2.0, {0.5});
    };

    // (A + B) + C
    metrics::Registry ab, left, a1, b1, c1;
    makeA(a1);
    makeB(b1);
    makeC(c1);
    ab.mergeFrom(a1);
    ab.mergeFrom(b1);
    left.mergeFrom(ab);
    left.mergeFrom(c1);

    // A + (B + C)
    metrics::Registry bc, right, a2, b2, c2;
    makeA(a2);
    makeB(b2);
    makeC(c2);
    bc.mergeFrom(b2);
    bc.mergeFrom(c2);
    right.mergeFrom(a2);
    right.mergeFrom(bc);

    EXPECT_EQ(left.toJson(), right.toJson());
    EXPECT_EQ(left.counter("steals").value(), 14u);
    EXPECT_EQ(left.histogram("latency").count(), 6u);
    EXPECT_DOUBLE_EQ(left.gauge("depth").maxValue(), 9.0);
}

TEST(MetricsRegistry, MergeMatchesRecordingEverythingInOne)
{
    metrics::Registry whole, partA, partB;
    const std::vector<double> first = {1.0, 4.0, 9.0, 16.0};
    const std::vector<double> second = {25.0, 36.0, 49.0};

    populate(partA, 2, 1.0, first);
    populate(partB, 5, 3.0, second);
    std::vector<double> all(first);
    all.insert(all.end(), second.begin(), second.end());
    populate(whole, 7, 3.0, all);

    metrics::Registry merged;
    merged.mergeFrom(partA);
    merged.mergeFrom(partB);
    EXPECT_EQ(merged.toJson(), whole.toJson());
}

TEST(MetricsRegistry, JsonShapeIsValidatorCompatible)
{
    metrics::Registry reg;
    populate(reg, 4, 2.5, {0.125, 8.0, 8.0, 64.0});
    reg.gauge("peak_rss_kb").set(metrics::peakRssKb());
    const std::string json = reg.toJson();

    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"steals\": 4"), std::string::npos) << json;
    EXPECT_NE(json.find("\"count\": 4"), std::string::npos) << json;
    for (const char *key : {"\"sum\"", "\"min\"", "\"max\"",
                            "\"p50\"", "\"p90\"", "\"p99\"",
                            "\"buckets\""})
        EXPECT_NE(json.find(key), std::string::npos) << json;
    // Empty histograms serialize as a bare count (no percentiles).
    metrics::Registry empty;
    empty.histogram("nothing");
    EXPECT_NE(empty.toJson().find("\"nothing\": {\"count\": 0}"),
              std::string::npos);
}

} // namespace
} // namespace varsched
