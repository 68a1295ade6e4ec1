#include "perfbench/bench.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace mtvbench
{

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

const char *const familyNames[passFamilies] = {
    "suite-grouping", "latency",       "ext-multiport",
    "ext-renaming",   "ext-decoupled", "ext-compare"};

const double scaleValues[scaleVariants] = {1.98e-4, 2e-4, 2.02e-4};

const uint32_t familyPoints[passFamilies] = {250, 7, 14, 18, 16, 6};

uint32_t
passPoints()
{
    uint32_t total = 0;
    for (uint32_t points : familyPoints)
        total += points;
    return total;
}

uint64_t
pinnedDigest(int family, int variant)
{
    // Rows follow familyNames, columns follow scaleValues. Produced by
    // `mtvctl sweep --local --family F --scale S` (event kernel) and
    // reproduced by a `mtvd --kernel stepped` daemon.
    static const uint64_t digests[passFamilies][scaleVariants] = {
        {0xb0bd53759552da0cull, 0x05cb4b09d9a809c0ull,
         0x11ff62d5797b888aull},
        {0x5e67389395c3f0f6ull, 0x6c7d0436dbae2823ull,
         0x7680ac76b5995a92ull},
        {0xf7597e2a5219f912ull, 0x8f98be951d6fd097ull,
         0x955e665a1441d517ull},
        {0x6468dbb0c403e328ull, 0x27a1b4e672fde41full,
         0xb75203555684b23cull},
        {0xbe928c9e29ecb59bull, 0xc0c8cec7dd4c7b28ull,
         0x97fe478c7e64e796ull},
        {0x50f507a89460212full, 0x8aef15714d335f5dull,
         0x2eca085857ea1aebull},
    };
    return digests[family][variant];
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

Tracer::Tracer(size_t capacity) : capacity_(capacity)
{
    spans_.reserve(capacity);
}

uint32_t
Tracer::record(const char *name, uint32_t parent, uint32_t pass,
               uint64_t startNs, uint64_t endNs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= capacity_)
        return 0;
    spans_.push_back(Span{name, parent, pass, startNs, endNs});
    return static_cast<uint32_t>(spans_.size());
}

uint32_t
Tracer::open(const char *name, uint32_t parent, uint32_t pass,
             uint64_t startNs)
{
    return record(name, parent, pass, startNs, startNs);
}

void
Tracer::finish(uint32_t id, uint64_t endNs)
{
    if (id == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].endNs = endNs;
}

size_t
Tracer::room() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_ - spans_.size();
}

std::vector<uint64_t>
Tracer::selfTimes() const
{
    // Children grouped by parent; each parent's self time is its
    // duration minus the union of its children's intervals clipped to
    // it (children of one parent may overlap: pipelined requests).
    std::vector<std::vector<uint32_t>> children(spans_.size() + 1);
    for (size_t i = 0; i < spans_.size(); ++i)
        children[spans_[i].parent].push_back(static_cast<uint32_t>(i));
    std::vector<uint64_t> self(spans_.size());
    std::vector<std::pair<uint64_t, uint64_t>> intervals;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        intervals.clear();
        for (uint32_t child : children[i + 1]) {
            const uint64_t start =
                std::max(spans_[child].startNs, span.startNs);
            const uint64_t end = std::min(spans_[child].endNs, span.endNs);
            if (start < end)
                intervals.emplace_back(start, end);
        }
        std::sort(intervals.begin(), intervals.end());
        uint64_t covered = 0;
        uint64_t reach = span.startNs;
        for (const auto &[start, end] : intervals) {
            const uint64_t from = std::max(start, reach);
            if (end > from) {
                covered += end - from;
                reach = end;
            }
        }
        self[i] = span.endNs - span.startNs - covered;
    }
    return self;
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<uint64_t> self = selfTimes();
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        Totals &t = out[spans_[i].name];
        ++t.count;
        t.totalNs += spans_[i].endNs - spans_[i].startNs;
        t.selfNs += self[i];
    }
    return out;
}

bool
Tracer::writeTsv(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    const std::vector<uint64_t> self = selfTimes();
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    std::fprintf(out, "id\tparent\tpass\tname\tstart_ns\tend_ns\tself_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out, "%zu\t%u\t%u\t%s\t%lld\t%lld\t%llu\n", i + 1,
                     s.parent, s.pass, s.name,
                     static_cast<long long>(s.startNs - origin),
                     static_cast<long long>(s.endNs - origin),
                     static_cast<unsigned long long>(self[i]));
    }
    return std::fclose(out) == 0;
}

double
meanSpan(const std::map<std::string, Tracer::Totals> &totals,
         const std::string &name, double unitNs)
{
    auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0)
        return 0.0;
    return static_cast<double>(it->second.totalNs) /
           static_cast<double>(it->second.count) / unitNs;
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
blockMinMedian(const std::vector<double> &values)
{
    // About a second of warm passes per block in a 30 s run.
    constexpr size_t blocks = 30;
    if (values.size() <= blocks)
        return median(values);
    const size_t width = values.size() / blocks;
    std::vector<double> minima;
    for (size_t b = 0; b < blocks; ++b) {
        const auto first = values.begin() + b * width;
        const auto last =
            b + 1 == blocks ? values.end() : first + width;
        minima.push_back(*std::min_element(first, last));
    }
    return median(std::move(minima));
}

} // namespace mtvbench
