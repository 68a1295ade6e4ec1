/**
 * @file
 * Shared pieces of the mtvbench client: the figure pass and its
 * pinned digests, the span recorder of the traced run, and sample
 * statistics.
 */

#ifndef MTVBENCH_BENCH_HH
#define MTVBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mtvbench
{

/** Monotonic clock in nanoseconds. */
uint64_t nowNs();

// ---------------------------------------------------------------------
// The figure pass.
// ---------------------------------------------------------------------

/** Families of one figure pass, each requested with its defaults. */
constexpr int passFamilies = 6;
extern const char *const familyNames[passFamilies];

/** Scale variants a seed can select, all within 1% of the benches'
 *  2e-4, so every seed does nearly the same work. */
constexpr int scaleVariants = 3;
extern const double scaleValues[scaleVariants];

/** Points one family expands to (the same at every variant). */
extern const uint32_t familyPoints[passFamilies];

/** Points of one whole pass. */
uint32_t passPoints();

/**
 * Expected `done` digest of family @p family at scale variant
 * @p variant, pinned from the event kernel and cross-checked under
 * the stepped kernel (see README.md). Never recomputed by the code
 * under test, so a kernel bug cannot agree with itself.
 */
uint64_t pinnedDigest(int family, int variant);

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/** One call the benchmark made into a layer. Ids start at 1; parent 0
 *  means a root span. */
struct Span
{
    const char *name = "";
    uint32_t parent = 0;
    uint32_t pass = 0;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
};

/**
 * In-memory span store, thread-safe. Recording stops when the
 * capacity is reached (room() reads 0); spans are written out once,
 * at the end of the run.
 */
class Tracer
{
  public:
    explicit Tracer(size_t capacity);

    /** Record a finished span; returns its id (0 when full). */
    uint32_t record(const char *name, uint32_t parent, uint32_t pass,
                    uint64_t startNs, uint64_t endNs);

    /** Reserve an id for a span whose end is not known yet; finish()
     *  sets the end. Returns 0 when full. */
    uint32_t open(const char *name, uint32_t parent, uint32_t pass,
                  uint64_t startNs);
    void finish(uint32_t id, uint64_t endNs);

    /** Spare capacity in spans. */
    size_t room() const;

    /** Per span name: count, summed duration and summed self time
     *  (duration minus the part covered by child spans). */
    struct Totals
    {
        uint64_t count = 0;
        uint64_t totalNs = 0;
        uint64_t selfNs = 0;
    };
    std::map<std::string, Totals> totals() const;

    /** Write every span (id, parent, pass, name, start, end, self) as
     *  tab-separated text. */
    bool writeTsv(const std::string &path) const;

  private:
    std::vector<uint64_t> selfTimes() const;

    mutable std::mutex mutex_;
    size_t capacity_;
    std::vector<Span> spans_;
};

/** Mean duration of the spans named @p name in @p totals, in units of
 *  @p unitNs nanoseconds (0 when there is none). */
double meanSpan(const std::map<std::string, Tracer::Totals> &totals,
                const std::string &name, double unitNs);

/** Times one call into a layer and records it as a span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, uint32_t parent = 0)
        : tracer_(tracer), name_(name), parent_(parent), startNs_(nowNs())
    {
    }
    ~ScopedSpan() { tracer_->record(name_, parent_, 0, startNs_, nowNs()); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    const char *name_;
    uint32_t parent_;
    uint64_t startNs_;
};

// ---------------------------------------------------------------------
// Sample statistics.
// ---------------------------------------------------------------------

/** Linear-interpolated quantile q in [0,1] of @p values (0 if empty). */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * Cut @p values, in the order they were taken, into 30 runs of
 * consecutive samples, keep each run's smallest sample, and return the
 * median of those (with no more than 30 samples: the plain median).
 * Noise on a shared host only ever adds time, so a block's fastest
 * sample is the one the host left alone, and the median over blocks
 * keeps one lucky sample from setting the result.
 */
double blockMinMedian(const std::vector<double> &values);

} // namespace mtvbench

#endif // MTVBENCH_BENCH_HH
