/**
 * @file
 * The fast-lane kernel (SimKernel::Batched, the engine's and mtvd's
 * default): each point runs to completion on a specialized fast lane
 * (DESIGN.md section 1.3).
 *
 *  - The fast lane: a transliteration of the event kernel
 *    (VectorSim::runEvent + DispatchUnit plan/commit) with
 *    precomputed latencies, flat structure-of-arrays context blocks
 *    (scoreboards, bank ports, blocked[] reasons) and no per-cycle
 *    allocation. It runs every machine shape, built twice from one
 *    source: a narrow build for one decode slot and a one-deep
 *    window, and a wide build that adds multi-slot decode, the
 *    decoupled slip window and the bounded rename pool. A blocked
 *    lane jumps straight to the earliest threshold of its contexts'
 *    first-failing dispatch checks.
 *
 *  - Programs are read in place: the lane holds each source's shared
 *    stream (InstructionSource::sharedStream) for its own lifetime
 *    only, takes per-opcode facts from one static table at fetch, and
 *    checks every fetched instruction's operands as the event kernel
 *    does. Nothing is cached across points.
 *
 *  - A point with a source that holds no shared stream runs through
 *    a plain VectorSim(Event) — slower, never wrong. The engine's
 *    sources always hold one.
 *
 * Every result is bit-identical to the same point under the other
 * kernels — the invariant the golden digests pin.
 */

#ifndef MTV_CORE_BATCH_KERNEL_HH
#define MTV_CORE_BATCH_KERNEL_HH

#include <exception>
#include <vector>

#include "src/core/metrics.hh"
#include "src/isa/machine_params.hh"
#include "src/trace/source.hh"

namespace mtv
{

/** One point: a machine plus its run request. */
struct BatchPoint
{
    MachineParams params;

    /** Mirrors the three VectorSim entry points. */
    enum class Kind : uint8_t
    {
        Single,   ///< sources = {program} on context 0
        Group,    ///< sources = per-context programs (section 4.1)
        JobQueue  ///< sources = the job list (section 7)
    };
    Kind kind = Kind::Single;

    /** Per Kind above. Group requires distinct instances sized to
     *  params.contexts; JobQueue requires at least one job. */
    std::vector<InstructionSource *> sources;

    /** Fetch budget for truncated reference runs (Kind::Single). */
    uint64_t maxInstructions = 0;
};

/**
 * Outcome of one point. A wedged machine (SimError) fails only its
 * own point; the other points complete normally.
 */
struct BatchResult
{
    SimStats stats;
    std::exception_ptr error;  ///< non-null: stats is meaningless
};

/**
 * Simulate every point, one after another, each to completion.
 * Results are indexed like @p points and each is bit-identical to the
 * same point run through SimKernel::Event. fatal()s on malformed
 * points (the same user errors the VectorSim entry points reject)
 * before simulating any.
 */
std::vector<BatchResult> runBatch(const std::vector<BatchPoint> &points);

/** Unwrap one point: rethrow its error or move its stats out. */
SimStats takeBatchResult(std::vector<BatchResult> results, size_t index);

} // namespace mtv

#endif // MTV_CORE_BATCH_KERNEL_HH
