/**
 * @file
 * Reads a trace written by varsched::trace::traceStopAndFlush (one
 * trace event per line) and folds its spans into per-name totals,
 * self times and duration samples.
 */

#ifndef VSBENCH_TRACE_STATS_HH
#define VSBENCH_TRACE_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vsbench
{

/** Every span of one name. */
struct SpanStats
{
    std::vector<double> durUs; ///< One duration per span, microseconds.
    double totalUs = 0.0;      ///< Sum of the durations.
    double selfUs = 0.0;       ///< Total minus time covered by children.
};

/** What one trace file holds. */
struct TraceSummary
{
    std::map<std::string, SpanStats> spans;
    std::uint64_t events = 0;  ///< Spans, instants and counters read.
    std::uint64_t dropped = 0; ///< Events the ring buffers overwrote.
    /** Time inside pool.task spans covered by their direct children. */
    double poolTaskChildUs = 0.0;
};

/**
 * Parse @p path. Spans nest per thread by their [ts, ts + dur]
 * intervals; a span's parent is the innermost span of the same
 * thread that contains it. Returns false when the file cannot be
 * read.
 */
bool summarizeTrace(const std::string &path, TraceSummary &out);

} // namespace vsbench

#endif // VSBENCH_TRACE_STATS_HH
