/**
 * @file
 * Shared helpers for the bench binaries that regenerate the paper's
 * tables and figures. Each binary prints the same rows/series the
 * paper reports, normalised the same way, so output can be compared
 * against the figures directly. Batch sizes honour VARSCHED_DIES /
 * VARSCHED_TRIALS; the batch runner's worker count honours
 * VARSCHED_THREADS (default: hardware concurrency).
 *
 * Every bench owns a PerfRecorder, which routes its runBatch() and
 * die-population calls and merges a per-bench entry (worker count,
 * phase-sampling tick counts, est_err and the metrics registry) into
 * bench_entries.json under an advisory file lock, so benches running
 * concurrently (ctest -j) cannot drop each other's entries. With
 * VARSCHED_BENCH_COMPARE=1 each batch and each die-population lot is
 * re-run serially and the bench aborts unless the parallel result is
 * bit-identical to the serial path. Host timing lives elsewhere: the
 * trace spans name the layers, and a speed claim is a same-host A/B
 * of the benchmark (tools/vsbench_ab.py).
 */

#ifndef VARSCHED_BENCH_COMMON_HH
#define VARSCHED_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <string>
#include <sys/file.h>
#include <unistd.h>
#include <vector>

#include "core/experiment.hh"
#include "runtime/diepop.hh"
#include "runtime/metrics.hh"
#include "runtime/orchestrator.hh"
#include "runtime/threadpool.hh"

namespace varsched::bench
{

/** Print a banner naming the experiment being regenerated. */
inline void
banner(const std::string &what, const std::string &paperSays)
{
    std::printf("=================================================="
                "====================\n");
    std::printf("%s\n", what.c_str());
    std::printf("Paper reference: %s\n", paperSays.c_str());
    std::printf("=================================================="
                "====================\n");
}

/** Print the batch dimensions in use. */
inline void
describeBatch(const BatchConfig &batch)
{
    std::printf("[batch: %zu dies x %zu trials on %zu worker threads; "
                "override with VARSCHED_DIES / VARSCHED_TRIALS / "
                "VARSCHED_THREADS]\n\n",
                batch.numDies, batch.numTrials,
                batch.workerThreads > 0 ? batch.workerThreads
                                        : configuredThreads());
}

/** The thread counts the paper sweeps in the scheduling figures. */
inline std::vector<std::size_t>
threadSweep(bool includeTwo)
{
    if (includeTwo)
        return {2, 4, 8, 16, 20};
    return {4, 8, 16, 20};
}

/** Exact (bitwise) equality of two summaries. */
inline bool
identicalSummary(const Summary &a, const Summary &b)
{
    return a.count() == b.count() && a.mean() == b.mean() &&
           a.stddev() == b.stddev() && a.min() == b.min() &&
           a.max() == b.max() && a.sum() == b.sum();
}

/** Exact equality of two batch results (every summary, every config). */
inline bool
identicalBatchResult(const BatchResult &a, const BatchResult &b)
{
    if (a.absolute.size() != b.absolute.size())
        return false;
    for (std::size_t k = 0; k < a.absolute.size(); ++k) {
        const ConfigMetrics &x = a.absolute[k];
        const ConfigMetrics &y = b.absolute[k];
        if (!identicalSummary(x.mips, y.mips) ||
            !identicalSummary(x.weightedIpc, y.weightedIpc) ||
            !identicalSummary(x.powerW, y.powerW) ||
            !identicalSummary(x.freqHz, y.freqHz) ||
            !identicalSummary(x.ed2, y.ed2) ||
            !identicalSummary(x.weightedEd2, y.weightedEd2) ||
            !identicalSummary(x.deviation, y.deviation) ||
            !identicalSummary(x.worstAging, y.worstAging) ||
            !identicalSummary(x.lifetimeYears, y.lifetimeYears))
            return false;
        const RelativeMetrics &p = a.relative[k];
        const RelativeMetrics &q = b.relative[k];
        if (!identicalSummary(p.mips, q.mips) ||
            !identicalSummary(p.weightedIpc, q.weightedIpc) ||
            !identicalSummary(p.weightedProgress, q.weightedProgress) ||
            !identicalSummary(p.powerW, q.powerW) ||
            !identicalSummary(p.freqHz, q.freqHz) ||
            !identicalSummary(p.ed2, q.ed2) ||
            !identicalSummary(p.weightedEd2, q.weightedEd2))
            return false;
    }
    return true;
}

/**
 * Per-bench entry recorder. Runs every batch and die-population lot
 * routed through it, accumulates the phase-sampling telemetry, and
 * merges one entry into bench_entries.json (path override:
 * VARSCHED_BENCH_JSON) at destruction.
 */
class PerfRecorder
{
  public:
    explicit PerfRecorder(std::string benchName)
        : name_(std::move(benchName)),
          compare_(envSize("VARSCHED_BENCH_COMPARE", 0) == 1)
    {}

    PerfRecorder(const PerfRecorder &) = delete;
    PerfRecorder &operator=(const PerfRecorder &) = delete;

    /**
     * runBatch() with telemetry. In compare mode the batch is re-run
     * on one worker and the bench aborts if the two results are not
     * bit-identical.
     */
    BatchResult
    run(const BatchConfig &batch, std::size_t numThreads,
        const std::vector<SystemConfig> &configs)
    {
        BatchResult result = runBatch(batch, numThreads, configs);
        exactTicks_ += result.exactTicks;
        sampledTicks_ += result.sampledTicks;
        if (result.estErrMax > estErr_)
            estErr_ = result.estErrMax;

        if (compare_) {
            BatchConfig serial = batch;
            serial.workerThreads = 1;
            const BatchResult ref = runBatch(serial, numThreads, configs);
            if (!identicalBatchResult(result, ref)) {
                std::fprintf(stderr,
                             "%s: parallel batch diverged from the "
                             "serial path\n",
                             name_.c_str());
                std::abort();
            }
        }
        return result;
    }

    /**
     * Die-population fan-out (runDiePopulation). In compare mode the
     * lot is re-run on one worker and the per-die results must
     * compare equal element-for-element, or the bench aborts — the
     * fan-out must be bit-identical to the serial loop.
     */
    template <typename Fn>
    auto
    runDies(const DieParams &params,
            const std::vector<std::uint64_t> &seeds, Fn &&perDie)
    {
        auto results = runDiePopulation(params, seeds, perDie);
        if (compare_ &&
            results != runDiePopulation(params, seeds, perDie, 1)) {
            std::fprintf(stderr,
                         "%s: die-population fan-out diverged "
                         "from the serial loop\n",
                         name_.c_str());
            std::abort();
        }
        return results;
    }

    ~PerfRecorder()
    {
        char head[512];
        std::snprintf(
            head, sizeof head,
            "{\"bench\": \"%s\", \"threads\": %zu, "
            "\"exact_ticks\": %llu, \"sampled_ticks\": %llu, "
            "\"est_err\": %.6f",
            name_.c_str(), configuredThreads(),
            static_cast<unsigned long long>(exactTicks_),
            static_cast<unsigned long long>(sampledTicks_), estErr_);
        // The process-wide registry carries everything the
        // instruments recorded (trial_ms/die_ms histograms, pool and
        // SAnn counters); stamp the process peak RSS and the arena
        // bytes served in alongside, then serialize the lot as this
        // entry's `metrics` object.
        metrics::Registry &reg = metrics::Registry::global();
        reg.gauge("peak_rss_kb").set(metrics::peakRssKb());
        reg.gauge("arena_bytes")
            .set(static_cast<double>(arenaBytesServed().load(
                std::memory_order_relaxed)));
        std::string entry(head);
        entry += ", \"metrics\": ";
        entry += reg.toJson();
        entry += "}";
        mergeJson(entry);
    }

  private:
    /**
     * Merge this bench's entry into the JSON file: read the existing
     * array (one entry per line, a format we control), drop any stale
     * entry for this bench, append ours, rewrite via temp-then-rename.
     * The whole read-modify-write runs under an exclusive flock on a
     * sidecar `<path>.lock` file — locking the data file itself would
     * be useless, since rename() replaces it and a later writer would
     * lock the orphaned inode. Without the lock, benches running
     * concurrently (ctest -j, parallel make targets) interleave their
     * read and rename steps and silently drop each other's entries —
     * exactly how an early record ended up with 1 of 24 benches.
     *
     * A truncated or otherwise corrupt existing file (e.g. a bench
     * killed mid-write on a filesystem where rename is not atomic, or
     * a stray editor) used to poison every later merge; now the bad
     * file is quarantined to `<path>.corrupt` and the record starts
     * fresh from this entry. On a successful merge the `.lock`
     * sidecar is unlinked again — acquireSidecarLock re-verifies the
     * inode it locked, so dropping the file is race-free and crashed
     * runs leave no lock litter behind.
     */
    void
    mergeJson(const std::string &entry) const
    {
        const char *env = std::getenv("VARSCHED_BENCH_JSON");
        const std::string path = env ? env : "bench_entries.json";

        const int lockFd = acquireSidecarLock(path);

        std::vector<std::string> kept;
        bool corrupt = false;
        std::string text;
        if (readWholeFile(path, text)) {
            const std::string marker =
                "\"bench\": \"" + name_ + "\"";
            std::size_t begin = 0;
            while (begin < text.size()) {
                std::size_t end = text.find('\n', begin);
                if (end == std::string::npos)
                    end = text.size();
                std::string s = text.substr(begin, end - begin);
                begin = end + 1;
                while (!s.empty() &&
                       (s.back() == '\n' || s.back() == '\r' ||
                        s.back() == ','))
                    s.pop_back();
                while (!s.empty() && s.back() == ' ')
                    s.pop_back();
                if (s.empty())
                    continue;
                const std::size_t brace = s.find('{');
                if (brace == std::string::npos) {
                    // Only the array brackets may appear alone.
                    if (s != "[" && s != "]")
                        corrupt = true;
                    continue;
                }
                if (s.back() != '}') {
                    corrupt = true; // truncated mid-entry
                    continue;
                }
                if (s.find(marker) != std::string::npos)
                    continue; // stale entry for this bench
                kept.push_back(s.substr(brace));
            }
        }
        if (corrupt) {
            // Quarantine the unparseable file and start fresh rather
            // than dragging half-trusted entries forward.
            const std::string quarantine = path + ".corrupt";
            std::rename(path.c_str(), quarantine.c_str());
            std::fprintf(stderr,
                         "%s: %s was corrupt; quarantined to %s\n",
                         name_.c_str(), path.c_str(),
                         quarantine.c_str());
            kept.clear();
        }
        kept.push_back(entry);

        std::string out = "[\n";
        for (std::size_t i = 0; i < kept.size(); ++i) {
            out += "  " + kept[i];
            out += i + 1 < kept.size() ? ",\n" : "\n";
        }
        out += "]\n";
        if (atomicWriteFile(path, out))
            releaseSidecarLock(lockFd, path, /*unlinkStale=*/true);
        else
            releaseSidecarLock(lockFd, path, /*unlinkStale=*/false);
    }

    std::string name_;
    bool compare_;
    // Phase-sampling telemetry: summed tick counts, worst est_err.
    std::uint64_t exactTicks_ = 0;
    std::uint64_t sampledTicks_ = 0;
    double estErr_ = 0.0;
};

} // namespace varsched::bench

#endif // VARSCHED_BENCH_COMMON_HH
