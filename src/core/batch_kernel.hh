/**
 * @file
 * The fast-lane kernel (SimKernel::Batched, the engine's and mtvd's
 * default): each point runs to completion on a specialized fast lane
 * (DESIGN.md section 1.3).
 *
 *  - The fast lane: a transliteration of the event kernel
 *    (VectorSim::runEvent + DispatchUnit plan/commit) specialized to
 *    the machines sweeps actually run — one decode slot, no
 *    decoupled slip window — with precomputed latencies, flat
 *    structure-of-arrays context blocks (scoreboards, bank ports,
 *    blocked[] reasons) and no per-cycle allocation. A blocked lane
 *    jumps straight to the earliest threshold of its contexts'
 *    first-failing dispatch checks.
 *
 *  - Programs are read in place: the lane holds each source's shared
 *    stream (InstructionSource::sharedStream) for its own lifetime
 *    only, takes per-opcode facts from one static table at fetch, and
 *    checks every fetched instruction's operands as the event kernel
 *    does. Nothing is cached across points.
 *
 *  - Points outside the fast lane's shape (fallbackReason() names
 *    why) or with a source that holds no shared stream run through a
 *    plain VectorSim(Event) — slower, never wrong.
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
 * Why a machine runs on the generic (Event) path instead of the fast
 * lane: the first shape predicate it fails, checked in this order.
 * Decoupling and bounded renaming (renameDepth > 0) add per-context
 * state the fast lane does not model; infinite-pool renaming and
 * multi-port memory run on the fast lane.
 */
enum class FallbackReason : uint8_t
{
    None,           ///< in shape: the fast lane runs it
    DecodeWidth,    ///< decodeWidth != 1
    DualScalar,     ///< dualScalar
    DecoupleDepth,  ///< decoupleDepth != 0
    RenameDepth,    ///< renameDepth != 0
    NumReasons
};

/** The first fast-lane shape predicate @p params fails. */
FallbackReason fallbackReason(const MachineParams &params);

/** The MachineParams field a reason names ("decodeWidth", ...). */
const char *fallbackReasonName(FallbackReason reason);

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
