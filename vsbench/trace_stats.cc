#include "trace_stats.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace vsbench
{

namespace
{

/** One parsed span; times in integer nanoseconds (exact nesting). */
struct Span
{
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    const std::string *name = nullptr;
    std::uint64_t childNs = 0;
};

/** Position just past `"key": ` in @p line, or nullptr. */
const char *
field(const std::string &line, const char *key)
{
    const std::string pattern = std::string("\"") + key + "\": ";
    const std::size_t at = line.find(pattern);
    return at == std::string::npos ? nullptr
                                   : line.c_str() + at + pattern.size();
}

/** The writer prints microseconds as "<us>.<3-digit ns>". */
std::uint64_t
parseMicrosAsNs(const char *p)
{
    char *end = nullptr;
    const std::uint64_t us = std::strtoull(p, &end, 10);
    std::uint64_t ns = 0;
    if (*end == '.')
        ns = std::strtoull(end + 1, nullptr, 10);
    return us * 1000 + ns;
}

} // namespace

bool
summarizeTrace(const std::string &path, TraceSummary &out)
{
    std::ifstream in(path);
    if (!in)
        return false;

    std::map<std::string, SpanStats> &spans = out.spans;
    std::map<long, std::vector<Span>> perThread;
    std::string line;
    while (std::getline(in, line)) {
        const char *name = field(line, "name");
        const char *ph = field(line, "ph");
        if (name == nullptr || ph == nullptr || name[0] != '"')
            continue;
        const char *nameEnd = std::strchr(name + 1, '"');
        if (nameEnd == nullptr)
            continue;
        const std::string spanName(name + 1, nameEnd);
        const char phase = ph[1];
        if (phase == 'M')
            continue;
        if (spanName == "trace.dropped") {
            if (const char *count = field(line, "count"))
                out.dropped += std::strtoull(count, nullptr, 10);
            continue;
        }
        ++out.events;
        if (phase != 'X')
            continue;
        const char *ts = field(line, "ts");
        const char *dur = field(line, "dur");
        const char *tid = field(line, "tid");
        if (ts == nullptr || dur == nullptr || tid == nullptr)
            continue;
        auto it = spans.try_emplace(spanName).first;
        Span s;
        s.startNs = parseMicrosAsNs(ts);
        s.endNs = s.startNs + parseMicrosAsNs(dur);
        s.name = &it->first;
        perThread[std::strtol(tid, nullptr, 10)].push_back(s);
    }

    for (auto &[tid, list] : perThread) {
        (void)tid;
        // Parents sort before their children: earlier start first,
        // and the longer span first on a tie.
        std::sort(list.begin(), list.end(),
                  [](const Span &a, const Span &b) {
                      return a.startNs != b.startNs ? a.startNs < b.startNs
                                                    : a.endNs > b.endNs;
                  });
        std::vector<Span *> stack;
        for (Span &s : list) {
            while (!stack.empty() && stack.back()->endNs <= s.startNs)
                stack.pop_back();
            if (!stack.empty() && s.endNs <= stack.back()->endNs) {
                Span &parent = *stack.back();
                parent.childNs += s.endNs - s.startNs;
                if (*parent.name == "pool.task")
                    out.poolTaskChildUs += (s.endNs - s.startNs) / 1e3;
            }
            stack.push_back(&s);
        }
        for (const Span &s : list) {
            SpanStats &st = spans[*s.name];
            const double durUs = (s.endNs - s.startNs) / 1e3;
            st.durUs.push_back(durUs);
            st.totalUs += durUs;
            st.selfUs += durUs - s.childNs / 1e3;
        }
    }
    return true;
}

} // namespace vsbench
