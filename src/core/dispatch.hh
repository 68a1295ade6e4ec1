/**
 * @file
 * DispatchUnit: the decode-stage dispatch logic of the machine —
 * "can this instruction begin right now, and what does it occupy if
 * it does?" — split out of the monolithic simulator.
 *
 * Planning (planAny/planDispatch) is pure: it computes a validated
 * DispatchPlan from context state, the pipelines and the memory
 * system without modifying anything, reporting the *first failing
 * resource* as a BlockReason otherwise, together with that check's
 * threshold: the first cycle at which it can pass. Commit applies a
 * plan: reserves units/ports/registers and updates the dispatch
 * counters. Every predicate planning evaluates is a comparison of a
 * stored ready-time against `now`, monotone until the next commit,
 * which is what makes the event-driven kernels sound: a blocked plan
 * stays blocked for the same reason until its threshold.
 */

#ifndef MTV_CORE_DISPATCH_HH
#define MTV_CORE_DISPATCH_HH

#include <cstdint>
#include <optional>

#include "src/core/context.hh"
#include "src/core/pipelines.hh"
#include "src/isa/machine_params.hh"
#include "src/memsys/mem_system.hh"

namespace mtv
{

/** A validated dispatch decision, ready to commit. */
struct DispatchPlan
{
    enum class Unit : uint8_t { Scalar, Fu1, Fu2, Mem } unit;
    size_t windowIndex = 0;   ///< which window entry dispatches
    MemPort *port = nullptr;  ///< memory port (Unit::Mem)
    uint64_t start = 0;       ///< first cycle of unit occupation
    uint64_t pipeUntil = 0;   ///< memory pipe occupation end
    uint64_t prodFirst = 0;   ///< first-element availability (V dst)
    uint64_t writeDone = 0;   ///< last-element write (V dst)
    uint64_t completion = 0;  ///< retire time for run accounting
    uint64_t scalarReady = 0; ///< scalar dst ready time
    bool chainableOut = false;
    /** Bounded renaming: this dispatch claims a rename-pool slot
     *  (its busy destination is displaced to a spare register). */
    bool renamed = false;
};

/**
 * The decoupled slip rule: may @p cand (a vector memory instruction)
 * dispatch ahead of the not-yet-dispatched @p prior? Memory stays
 * ordered among itself, nothing passes a branch, and all
 * vector-register dependences (RAW/WAW/WAR) are respected. Scalar
 * operands are safe to ignore: the trace records the effective
 * VL/stride/address of every instruction, which is exactly the
 * address-side state a decoupled machine's address processor runs
 * ahead to produce. Shared with the fast lane (batch_kernel.cc).
 */
bool canSlipPast(const Instruction &cand, const Instruction &prior);

/** Plans and commits dispatches against the shared machine state. */
class DispatchUnit
{
  public:
    DispatchUnit(const MachineParams &params, PipelineSet &pipes,
                 MemSystem &mem)
        : params_(params), pipes_(pipes), mem_(mem)
    {
    }

    /**
     * Find a dispatchable instruction in the window: the head, or —
     * when decoupling is on — a vector memory instruction that
     * conflicts with none of the skipped entries. On failure @p why
     * holds the head's block reason and @p unblockAt the earliest
     * threshold of the failed plans (the head's and every clear slip
     * candidate's): nothing about this window changes before it.
     */
    std::optional<DispatchPlan> planAny(const Context &ctx,
                                        uint64_t now, BlockReason &why,
                                        uint64_t &unblockAt) const;

    /**
     * Pure dispatch feasibility check + timing computation. On
     * failure @p why names the first failing check and @p unblockAt
     * the first cycle at which that check can pass.
     */
    std::optional<DispatchPlan> planDispatch(const Context &ctx,
                                             const Instruction &inst,
                                             uint64_t now,
                                             BlockReason &why,
                                             uint64_t &unblockAt) const;

    /** Commit @p plan: reserve resources, update scoreboards, stats. */
    void commit(Context &ctx, const DispatchPlan &plan, uint64_t now);

    /** Reset the dispatch counters. */
    void clear();

    // --- counters (SimStats inputs) ---
    uint64_t dispatches() const { return dispatches_; }
    uint64_t vecOpsFu1() const { return vecOpsFu1_; }
    uint64_t vecOpsFu2() const { return vecOpsFu2_; }
    uint64_t decoupledSlips() const { return decoupledSlips_; }

  private:
    const MachineParams &params_;
    PipelineSet &pipes_;
    MemSystem &mem_;

    uint64_t dispatches_ = 0;
    uint64_t vecOpsFu1_ = 0;
    uint64_t vecOpsFu2_ = 0;
    uint64_t decoupledSlips_ = 0;
};

} // namespace mtv

#endif // MTV_CORE_DISPATCH_HH
