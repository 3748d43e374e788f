/**
 * @file
 * Monte-Carlo die-population fan-out.
 *
 * The manufacture-bound benches (yield curves, Fig 4/5 variation
 * histograms, the ABB trade-off) all share one shape: manufacture a
 * lot of independent dies and fold a per-die statistic. Each die is a
 * pure function of (DieParams, seed), and the per-die seeds are a
 * pure function of (lot seed, die index) — so the lot can fan out
 * across the PR2 ThreadPool and still produce results bit-identical
 * to the serial loop: the result vector is ordered by die index
 * (ordered reduction), and no worker ever touches another die's
 * state. The VARSCHED_BENCH_COMPARE=1 guard in bench::PerfRecorder
 * re-runs the lot on one worker and aborts on any divergence.
 */

#ifndef VARSCHED_RUNTIME_DIEPOP_HH
#define VARSCHED_RUNTIME_DIEPOP_HH

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "chip/die.hh"
#include "runtime/arena.hh"
#include "runtime/metrics.hh"
#include "runtime/threadpool.hh"
#include "solver/rng.hh"

namespace varsched
{

/**
 * Per-die seeds for a lot: seeds[i] = deriveSeed(lotSeed, tag, i).
 * Precomputing the whole vector (rather than drawing from a shared
 * sequential Rng) is what makes the fan-out order-independent.
 */
inline std::vector<std::uint64_t>
diePopulationSeeds(std::size_t count, std::uint64_t lotSeed)
{
    std::vector<std::uint64_t> seeds(count);
    for (std::size_t i = 0; i < count; ++i)
        seeds[i] = deriveSeed(lotSeed, 0xD1EF00, i);
    return seeds;
}

/**
 * Manufacture Die(params, seeds[i]) for every i and evaluate
 * perDie(die, i), fanning the lot across VARSCHED_THREADS workers.
 * Returns the per-die results, ordered by die index regardless of
 * the worker count.
 *
 * @param perDie Callable (const Die &, std::size_t index) -> R. Must
 *        be a pure function of its arguments (it runs concurrently
 *        and its results are compared against a serial re-run by the
 *        bench determinism guard).
 * @param workerOverride Worker count; 0 means configuredThreads().
 */
template <typename Fn>
auto
runDiePopulation(const DieParams &params,
                 const std::vector<std::uint64_t> &seeds, Fn &&perDie,
                 std::size_t workerOverride = 0)
    -> std::vector<std::decay_t<
        std::invoke_result_t<Fn &, const Die &, std::size_t>>>
{
    std::vector<std::decay_t<
        std::invoke_result_t<Fn &, const Die &, std::size_t>>>
        results(seeds.size());

    const std::size_t workers = std::min(
        workerOverride > 0 ? workerOverride : configuredThreads(),
        std::max<std::size_t>(seeds.size(), 1));
    // Per-die manufacture+evaluate latency: the fan-out's unit of
    // work, so its tail percentiles expose stragglers in the lot.
    metrics::Histogram &dieMs =
        metrics::Registry::global().histogram("die_ms");
    const auto timedPerDie = [&](const Die &die, std::size_t i) {
        const auto start = std::chrono::steady_clock::now();
        auto result = perDie(die, i);
        dieMs.record(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
        return result;
    };

    if (workers <= 1) {
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            const Die die(params, seeds[i]);
            results[i] = timedPerDie(die, i);
        }
    } else {
        // Grain 1: manufacturing a die costs milliseconds, so
        // per-index chunks let work stealing balance the lot; each
        // worker's die scratch comes from its own thread-local
        // dieScratchArena(), keeping pages first-touch-local under
        // VARSCHED_NUMA_NODES partitioning.
        ThreadPool pool(workers);
        pool.parallelFor(
            seeds.size(),
            [&](std::size_t i) {
                const Die die(params, seeds[i]);
                results[i] = timedPerDie(die, i);
            },
            1);
    }
    return results;
}

} // namespace varsched

#endif // VARSCHED_RUNTIME_DIEPOP_HH
