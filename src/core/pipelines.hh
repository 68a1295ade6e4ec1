/**
 * @file
 * PipelineSet: the machine's two vector arithmetic pipelines plus the
 * joint busy-state accounting of the paper's (FU2, FU1, LD) tuple.
 *
 * The joint-state histogram can be either sampled one cycle at a
 * time (the stepped kernel) or integrated over a whole idle span
 * (the event kernel) with bit-identical results.
 */

#ifndef MTV_CORE_PIPELINES_HH
#define MTV_CORE_PIPELINES_HH

#include <array>
#include <cstdint>

#include "src/core/metrics.hh"
#include "src/core/resources.hh"
#include "src/memsys/mem_system.hh"

namespace mtv
{

/** The two shared vector arithmetic pipelines (FU1 general, FU2). */
class PipelineSet
{
  public:
    PipeUnit &fu1() { return fu1_; }
    PipeUnit &fu2() { return fu2_; }
    const PipeUnit &fu1() const { return fu1_; }
    const PipeUnit &fu2() const { return fu2_; }

    /** Reset both pipes to pristine state. */
    void
    clear()
    {
        fu1_.clear();
        fu2_.clear();
    }

    /** Joint (FU2, FU1, LD) busy bits at @p now (paper's encoding). */
    int
    stateBitsAt(uint64_t now, const MemSystem &mem) const
    {
        return (fu2_.busyAt(now) ? 4 : 0) | (fu1_.busyAt(now) ? 2 : 0) |
               (mem.pipeBusyAt(now) ? 1 : 0);
    }

    /** Sample one cycle into the joint-state histogram. */
    void
    sampleInto(std::array<uint64_t, numFuStates> &hist, uint64_t now,
               const MemSystem &mem) const
    {
        ++hist[static_cast<size_t>(stateBitsAt(now, mem))];
    }

    /**
     * Add the cycles [from, to) to @p hist, bit-identically to
     * sampling each cycle. Occupations never change while the decode
     * stage is blocked (only a commit occupies a unit), so the busy
     * intervals captured here are exact for the whole span.
     */
    void integrateInto(std::array<uint64_t, numFuStates> &hist,
                       uint64_t from, uint64_t to,
                       const MemSystem &mem) const;

  private:
    PipeUnit fu1_;
    PipeUnit fu2_;
};

} // namespace mtv

#endif // MTV_CORE_PIPELINES_HH
