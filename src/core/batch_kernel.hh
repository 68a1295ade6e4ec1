/**
 * @file
 * The fast-lane kernel (SimKernel::Batched): each point runs to
 * completion on a specialized fast lane, over programs decoded once
 * and shared by every point that runs them (DESIGN.md section 1.3).
 *
 *  - DecodedProgram: the per-instruction work that depends only on
 *    the instruction stream — functional-unit class, operand/bank
 *    indices, clamped vector length, operand validation — hoisted out
 *    of the per-cycle loop and cached process-wide next to the
 *    makeProgram() stream cache, with the same 64-entry bound.
 *
 *  - The fast lane: a transliteration of the event kernel
 *    (VectorSim::runEvent + DispatchUnit plan/commit/wakeups)
 *    specialized to the machines sweeps actually run — one decode
 *    slot, no decoupled slip window — with precomputed latencies,
 *    flat structure-of-arrays context blocks (scoreboards, bank
 *    ports, blocked[] reasons) and no per-cycle allocation. A blocked
 *    single-context lane jumps straight to the threshold of its
 *    first-failing dispatch check. Points outside the fast lane's
 *    shape (dual-scalar, decode width > 1, decoupled, bounded
 *    renaming) run through a plain VectorSim(Event) — slower, never
 *    wrong.
 *
 * Points share read-only decode state only, so every result is
 * bit-identical to the same point under the other kernels — the
 * invariant the golden digests pin.
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
