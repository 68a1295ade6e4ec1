/**
 * @file
 * The fast-lane kernel. The fast lane below is a transliteration of
 * the event kernel — VectorSim::runEvent plus
 * DispatchUnit::planAny/planDispatch/commit — reading the sources'
 * shared instruction streams in place. It is compiled twice from one
 * source (FastLane<Wide>):
 *
 *  - the narrow build runs the machines most sweeps run — one decode
 *    slot, no slip window, no bounded rename pool — with a one-deep
 *    fetch window and none of the wide state below;
 *  - the wide build adds multi-slot decode (decodeWidth > 1,
 *    dualScalar), the 1 + decoupleDepth window with the slip search,
 *    and the bounded rename pool (renameDepth > 0).
 *
 * Every fetch, operand check, threshold, charge and ready-time write
 * below mirrors its original check-for-check; the golden digests, the
 * figure-pass differential (tests/test_golden.cc), the random-machine
 * differential (tests/test_batch.cc) and the CI kernel-parity job
 * keep the two in step. When you change dispatch semantics in
 * src/core/dispatch.cc or run machinery in src/core/sim.cc, change
 * the mirror here.
 */

#include "src/core/batch_kernel.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>

#include "src/common/logging.hh"
#include "src/core/context.hh"
#include "src/core/dispatch.hh"
#include "src/core/pipelines.hh"
#include "src/core/sim.hh"
#include "src/core/sim_error.hh"
#include "src/memsys/mem_system.hh"

namespace mtv
{

namespace
{

// ---------------------------------------------------------------------
// Per-opcode facts
// ---------------------------------------------------------------------

/** Predicate bits of an opcode. */
constexpr uint8_t kFlagMem = 1u << 0;
constexpr uint8_t kFlagLoad = 1u << 1;
constexpr uint8_t kFlagVector = 1u << 2;
constexpr uint8_t kFlagBranch = 1u << 3;
constexpr uint8_t kFlagStore = 1u << 4;

/**
 * What dispatch needs to know about an opcode beyond the
 * instruction's own fields: its unit class, predicate flags and the
 * operand limits the fetch checks. Looked up once per fetch and kept
 * beside the fetched instruction.
 */
struct OpFacts
{
    FuClass fu = FuClass::Scalar;
    uint8_t flags = 0;
    uint16_t dstLimit = 0;  ///< registers in the dst space (256: none)
    uint16_t srcLimit = 0;  ///< registers in the source space
    uint16_t vlLimit = 0;   ///< largest legal vl (scalar ops: any)
};

constexpr size_t numOpcodes = static_cast<size_t>(Opcode::NumOpcodes);

/** One row per opcode, built once from the ISA queries. */
const std::array<OpFacts, numOpcodes> opFactsTable = [] {
    const auto limit = [](RegSpace space) -> uint16_t {
        if (space == RegSpace::None)
            return 256;
        return space == RegSpace::V ? numVRegs : numSRegs + numARegs;
    };
    std::array<OpFacts, numOpcodes> rows;
    for (size_t i = 0; i < numOpcodes; ++i) {
        Instruction probe;  // any register: the space is per-op
        probe.op = static_cast<Opcode>(i);
        probe.dst = 0;
        OpFacts &f = rows[i];
        f.fu = fuClass(probe.op);
        f.flags = static_cast<uint8_t>(
            (isMemory(probe.op) ? kFlagMem : 0) |
            (isLoad(probe.op) ? kFlagLoad : 0) |
            (isVector(probe.op) ? kFlagVector : 0) |
            (probe.op == Opcode::SBranch ? kFlagBranch : 0) |
            (isStore(probe.op) ? kFlagStore : 0));
        f.dstLimit = limit(probe.dstSpace());
        f.srcLimit = limit(probe.srcSpace());
        f.vlLimit = isVector(probe.op) ? maxVectorLength : UINT16_MAX;
    }
    return rows;
}();

/**
 * The fetch-time operand check over the opcode's row: true when every
 * register index and the vector length are in range. The ORs are
 * bitwise so the all-valid fetch takes one branch; on false,
 * checkOperands() reports the first error, as every kernel does.
 */
inline bool
operandsInRange(const Instruction &inst, const OpFacts &f)
{
    const auto inRange = [](uint8_t reg, int limit) {
        return reg == noReg || reg < limit;
    };
    return inRange(inst.dst, f.dstLimit) & inRange(inst.srcA, f.srcLimit) &
           inRange(inst.srcB, f.srcLimit) & (inst.vl <= f.vlLimit);
}

/**
 * One program as a lane runs it: the source's shared stream, held
 * for the lane's lifetime only and read in place.
 */
struct LaneProgram
{
    std::shared_ptr<const std::vector<Instruction>> stream;
    std::string name;
};

// ---------------------------------------------------------------------
// The fast lane
// ---------------------------------------------------------------------

/** A fetched instruction: a pointer into the shared stream and its
 *  opcode row. */
struct Fetched
{
    const Instruction *inst = nullptr;
    OpFacts facts;
};

/** The deepest fetch window MachineParams::validate() admits:
 *  1 + decoupleDepth, decoupleDepth <= 16. */
constexpr size_t maxWindowDepth = 17;

/** The largest bounded rename pool (renameDepth <= 8). */
constexpr size_t maxRenameSlots = 8;

/**
 * Per-context state, flat. Mirrors mtv::Context with the window held
 * as pointers into the shared stream and the source cursor inlined
 * (no virtual next(), no Instruction copies). The narrow build keeps
 * a one-entry window and no rename pool.
 */
template <bool Wide>
struct FastContext
{
    const LaneProgram *prog = nullptr;  ///< null: empty context
    const Instruction *next = nullptr;  ///< fetch cursor into prog
    const Instruction *end = nullptr;   ///< end of prog's stream
    /** Fetched-but-not-dispatched instructions, program order. */
    std::array<Fetched, Wide ? maxWindowDepth : 1> window;
    uint32_t windowSize = 0;
    bool finished = false;
    bool restartable = false;
    uint64_t fetchReadyAt = 0;
    uint64_t scalarReady[numSRegs + numARegs] = {};
    VRegTiming vregs[numVRegs] = {};
    BankPorts banks[numVRegs / 2] = {};
    /** The bounded rename pool (mtv::Context::renameSlots). */
    std::array<uint64_t, Wide ? maxRenameSlots : 0> renameSlots{};
    ThreadStats stats;
    int jobIndex = -1;

    bool hasWork() const { return !finished || windowSize; }

    /** Start fetching @p program from its first instruction. */
    void
    load(const LaneProgram *program)
    {
        prog = program;
        next = program->stream->data();
        end = next + program->stream->size();
    }
};

/** Does @p params need the wide build: more than one decode slot, a
 *  slip window or a bounded rename pool? */
bool
wideShape(const MachineParams &params)
{
    return params.decodeWidth > 1 || params.dualScalar ||
           params.decoupleDepth > 0 || params.renameDepth > 0;
}

/**
 * One point's machine, run to completion by run(). Equivalent to
 * VectorSim(params, SimKernel::Event) on the same point. @p Wide
 * selects the build: the narrow one only runs machines outside
 * wideShape().
 */
template <bool Wide>
class FastLane
{
    using Ctx = FastContext<Wide>;

  public:
    FastLane(const BatchPoint &point, std::vector<LaneProgram> programs)
        : params_(point.params), mem_(params_),
          mode_(point.kind == BatchPoint::Kind::JobQueue
                    ? RunMode::JobQueue
                    : RunMode::UntilThreadZero),
          maxInstructions_(point.kind == BatchPoint::Kind::Single
                               ? point.maxInstructions
                               : 0),
          programs_(std::move(programs))
    {
        MTV_ASSERT(Wide || !wideShape(params_));
        depth_ = 1 + static_cast<uint32_t>(params_.decoupleDepth);
        multiSlot_ = params_.dualScalar || params_.decodeWidth > 1;
        width_ = params_.dualScalar ? params_.contexts : params_.decodeWidth;
        renamingEnabled_ = params_.renamingEnabled();
        contexts_.resize(params_.contexts);
        lastSelected_.assign(params_.contexts, 0);
        scanWhy_.assign(params_.contexts, BlockReason::NoWork);
        unblockAt_.assign(params_.contexts, 0);
        for (int op = 0; op < static_cast<int>(Opcode::NumOpcodes); ++op)
            latByOp_[op] = params_.opLatency(static_cast<Opcode>(op));
        // Resolve MemSystem::portsFor once: the split is per op-class,
        // not per op (stores fall back to the load ports when the
        // machine has no store port).
        loadPorts_ = &mem_.portsFor(Opcode::VLoad);
        storePorts_ = &mem_.portsFor(Opcode::VStore);
        stallLimit_ =
            16 * (static_cast<uint64_t>(params_.memLatency) +
                  maxVectorLength * 8) +
            1000000;

        switch (point.kind) {
          case BatchPoint::Kind::Single: {
            Ctx &ctx0 = contexts_[0];
            ctx0.load(&programs_[0]);
            ctx0.stats.program = ctx0.prog->name;
            break;
          }
          case BatchPoint::Kind::Group:
            for (size_t i = 0; i < programs_.size(); ++i) {
                Ctx &ctx = contexts_[i];
                ctx.load(&programs_[i]);
                ctx.restartable = i != 0;
                ctx.stats.program = ctx.prog->name;
            }
            break;
          case BatchPoint::Kind::JobQueue:
            for (auto &ctx : contexts_) {
                if (nextJob_ >= programs_.size()) {
                    ctx.finished = true;
                    continue;
                }
                ctx.load(&programs_[nextJob_]);
                ctx.stats.program = ctx.prog->name;
                ctx.jobIndex = static_cast<int>(jobRecords_.size());
                jobRecords_.push_back(
                    {ctx.prog->name,
                     static_cast<int>(&ctx - contexts_.data()), 0, 0});
                ++nextJob_;
            }
            break;
        }

        primeFetch(0);
        finished_ = done(now_);
    }

    /** Simulate to the end of the run; throws SimError when wedged. */
    SimStats
    run()
    {
        if (contexts_.size() == 1) {
            while (!finished_)
                advanceSingle();
        } else {
            while (!finished_)
                advanceMulti();
        }
        return takeStats();
    }

  private:
    /** One iteration of the event-kernel loop (see runEvent()). */
    void
    advanceMulti()
    {
        const bool dispatched = decodeCycle(now_);
        bool anyReady = false;
        if (!dispatched) {
            for (int c = 0; c < params_.contexts; ++c)
                anyReady |= scanWhy_[c] == BlockReason::None;
        }
        if (dispatched || anyReady) {
            // Non-dispatch step cycles stay in the pending region:
            // nothing committed, so the deferred integration over them
            // equals the per-cycle sample.
            if (dispatched) {
                ++stateHist_[static_cast<size_t>(stateBits(now_))];
                histPending_ = now_ + 1;
            }
            ++now_;
            primeFetch(now_);
            checkWatchdog(now_);
        } else {
            const uint64_t watchdogAt =
                lastDispatchCycle_ + stallLimit_ + 1;
            uint64_t wake = wakeAfter(now_);
            if (wake == 0 || wake > watchdogAt)
                wake = watchdogAt;
            accountIdleSpan(now_, wake);
            now_ = wake;
            primeFetch(now_);
            checkWatchdog(now_);
        }
        finished_ = done(now_);
    }

    /**
     * The single-context step: the advanceMulti() loop with the context
     * scan, thread-switch machinery and per-span accounting shells
     * collapsed. Reference-machine sweeps (the Figure 10 ratchet)
     * spend their whole run here. One context means one decode slot,
     * so the wide build only adds the window and the rename pool; the
     * window is refilled after every commit and every jump, as
     * primeFetch() would.
     */
    void
    advanceSingle()
    {
        Ctx &ctx = contexts_[0];
        BlockReason why = BlockReason::NoWork;
        if (ctx.windowSize || refillWindow(ctx, now_, why)) {
            DispatchPlan plan{};
            if (planAny(ctx, now_, plan, why, unblockAt_[0])) {
                commit(ctx, plan, now_);
                lastDispatchCycle_ = now_;
                ++stateHist_[static_cast<size_t>(stateBits(now_))];
                histPending_ = now_ + 1;
                ++now_;
                if (ctx.windowSize < depth())
                    refillWindow(ctx, now_, why);
                checkWatchdog(now_);
                finished_ = done(now_);
                return;
            }
        }
        // Blocked: one reason covers the whole span (nothing commits
        // while blocked), so the cycle-by-cycle charges of the multi-
        // context path collapse to one add, up to the wakeAfter()
        // target — with a head, its failed plan's threshold, read
        // directly on this hot path.
        scanWhy_[0] = why;
        const uint64_t watchdogAt = lastDispatchCycle_ + stallLimit_ + 1;
        uint64_t wake = ctx.windowSize ? unblockAt_[0] : wakeAfter(now_);
        if (wake <= now_ || wake > watchdogAt)
            wake = watchdogAt;
        const uint64_t span = wake - now_;
        decodeIdle_ += span;
        ctx.stats.blocked[static_cast<size_t>(why)] += span;
        now_ = wake;
        if (ctx.windowSize < depth())
            refillWindow(ctx, now_, why);
        checkWatchdog(now_);
        finished_ = done(now_);
    }

    SimStats
    takeStats()
    {
        flushHist(now_);
        SimStats stats;
        stats.cycles = now_;
        for (const auto &port : mem_.ports()) {
            stats.memRequests += port.bus.requests();
            stats.ldBusyCycles += port.pipe.busyCycles();
        }
        stats.memPorts = static_cast<int>(mem_.ports().size());
        stats.vecOpsFu1 = vecOpsFu1_;
        stats.vecOpsFu2 = vecOpsFu2_;
        stats.dispatches = dispatches_;
        stats.decodeIdle = decodeIdle_;
        stats.decoupledSlips = decoupledSlips_;
        stats.fu1BusyCycles = pipes_.fu1().busyCycles();
        stats.fu2BusyCycles = pipes_.fu2().busyCycles();
        stats.stateHist = stateHist_;
        for (const auto &ctx : contexts_)
            stats.threads.push_back(ctx.stats);
        stats.jobs = jobRecords_;
        return stats;
    }

    // --- the deferred joint-state histogram ---

    /** The ports serving an op (the portsFor() split, pre-resolved). */
    const std::vector<MemPort *> &
    portsFor(const OpFacts &f) const
    {
        return f.flags & kFlagStore ? *storePorts_ : *loadPorts_;
    }

    /** Joint (FU2, FU1, LD) busy bits at @p now (stateBitsAt, with the
     *  port scan inlined). */
    int
    stateBits(uint64_t now) const
    {
        int bits = (pipes_.fu2().busyAt(now) ? 4 : 0) |
                   (pipes_.fu1().busyAt(now) ? 2 : 0);
        for (const auto &port : mem_.ports()) {
            if (port.pipe.busyAt(now)) {
                bits |= 1;
                break;
            }
        }
        return bits;
    }

    /**
     * Integrate the unaccounted region [histPending_, to) into the
     * joint-state histogram. Unit occupations only change at commits
     * (see PipelineSet::integrateInto), so deferring the integration
     * until just before the next commit — across any number of
     * blocked spans and non-dispatch step cycles — produces the same
     * counts as the event kernel's span-by-span accounting, with one
     * integrator pass per dispatch instead of one per span.
     *
     * The integration itself restates PipelineSet::integrateInto with
     * the busy intervals clamped up front and the one-interval case
     * (a lone load port covering a memory wait — most of a reference
     * machine's cycles) resolved without the generic edge sort.
     */
    void
    flushHist(uint64_t to)
    {
        if (histPending_ >= to)
            return;
        const uint64_t from = histPending_;
        histPending_ = to;

        struct Clamped
        {
            uint64_t from, until;
            int bits;
        };
        Clamped iv[16];
        size_t n = 0;
        const auto add = [&](int bits, const PipeUnit &pipe) {
            uint64_t f = std::max(pipe.busyFrom(), from);
            uint64_t u = std::min(pipe.freeCycle(), to);
            if (f < u) {
                MTV_ASSERT(n < 16);
                iv[n++] = {f, u, bits};
            }
        };
        add(4, pipes_.fu2());
        add(2, pipes_.fu1());
        for (const auto &port : mem_.ports())
            add(1, port.pipe);

        if (n == 0) {
            stateHist_[0] += to - from;
            return;
        }
        if (n == 1) {
            stateHist_[0] += (iv[0].from - from) + (to - iv[0].until);
            stateHist_[static_cast<size_t>(iv[0].bits)] +=
                iv[0].until - iv[0].from;
            return;
        }
        // General case: segment at every interval edge (insertion-
        // sorted; at most 2n+2 of them) and charge each segment to
        // the OR of the intervals covering it.
        uint64_t edges[2 * 16 + 2];
        size_t numEdges = 0;
        edges[numEdges++] = from;
        edges[numEdges++] = to;
        for (size_t i = 0; i < n; ++i) {
            edges[numEdges++] = iv[i].from;
            edges[numEdges++] = iv[i].until;
        }
        for (size_t i = 1; i < numEdges; ++i) {
            const uint64_t e = edges[i];
            size_t j = i;
            for (; j > 0 && edges[j - 1] > e; --j)
                edges[j] = edges[j - 1];
            edges[j] = e;
        }
        for (size_t e = 0; e + 1 < numEdges; ++e) {
            const uint64_t start = edges[e];
            const uint64_t end = edges[e + 1];
            if (start == end)
                continue;
            int bits = 0;
            for (size_t i = 0; i < n; ++i) {
                if (iv[i].from <= start && start < iv[i].until)
                    bits |= iv[i].bits;
            }
            stateHist_[static_cast<size_t>(bits)] += end - start;
        }
    }

    // --- fetch (mirrors VectorSim::ensureWindow) ---

    /** Window capacity: 1 + decoupleDepth (always 1 when narrow). */
    uint32_t
    depth() const
    {
        if constexpr (Wide)
            return depth_;
        return 1;
    }

    bool
    ensureWindow(Ctx &ctx, uint64_t now, BlockReason &why)
    {
        if (ctx.windowSize >= depth())
            return true;
        return refillWindow(ctx, now, why);
    }

    bool
    refillWindow(Ctx &ctx, uint64_t now, BlockReason &why)
    {
        bool fetchStalled = false;
        while (!ctx.finished && ctx.prog && ctx.windowSize < depth()) {
            if (ctx.fetchReadyAt > now) {
                fetchStalled = true;
                break;
            }
            // Never fetch past an unresolved branch (unreachable at
            // depth 1: the loop only runs with an empty window).
            if (Wide && ctx.windowSize &&
                (ctx.window[ctx.windowSize - 1].facts.flags &
                 kFlagBranch)) {
                break;
            }
            // Truncated reference runs: stop fetching at the budget,
            // counting what the window already holds.
            if (maxInstructions_ &&
                ctx.stats.instructions + (Wide ? ctx.windowSize : 0) >=
                    maxInstructions_) {
                if (!ctx.windowSize) {
                    ctx.finished = true;
                    ctx.stats.runsCompleted = 0;
                }
                break;
            }

            if (ctx.next != ctx.end) {
                const Instruction &inst = *ctx.next++;
                const auto op = static_cast<size_t>(inst.op);
                MTV_ASSERT(op < numOpcodes);
                Fetched &slot = ctx.window[ctx.windowSize];
                slot.facts = opFactsTable[op];
                if (!operandsInRange(inst, slot.facts))
                    checkOperands(inst);  // fatal()s with the reason
                slot.inst = &inst;
                ++ctx.windowSize;
                if constexpr (!Wide)
                    break;  // window full
                continue;
            }
            // End of the current run: drain the window before
            // restarting or taking the next job, so runs never
            // interleave.
            if (Wide && ctx.windowSize)
                break;
            if (!startNextRun(ctx, now))
                break;
        }

        if (ctx.windowSize)
            return true;
        why = fetchStalled ? BlockReason::FetchStall
                           : BlockReason::NoWork;
        return false;
    }

    /** End of the current run: take the next job or restart the
     *  program (true: keep fetching), or finish the context. Once
     *  per run, so kept out of the inlined fetch path. */
    [[gnu::noinline]] bool
    startNextRun(Ctx &ctx, uint64_t now)
    {
        if (mode_ == RunMode::JobQueue) {
            if (ctx.jobIndex >= 0) {
                jobRecords_[ctx.jobIndex].endCycle =
                    ctx.stats.lastCompletion;
                ctx.jobIndex = -1;
            }
            ++ctx.stats.runsCompleted;
            if (nextJob_ < programs_.size()) {
                ctx.load(&programs_[nextJob_++]);
                ctx.stats.instructionsThisRun = 0;
                ctx.jobIndex = static_cast<int>(jobRecords_.size());
                jobRecords_.push_back(
                    {ctx.prog->name,
                     static_cast<int>(&ctx - contexts_.data()), now, 0});
                return true;
            }
            ctx.finished = true;
            return false;
        }

        if (ctx.restartable) {
            ++ctx.stats.runsCompleted;
            ctx.stats.instructionsThisRun = 0;
            ctx.load(ctx.prog);
            return true;
        }

        ctx.finished = true;
        ctx.stats.runsCompleted = 1;
        return false;
    }

    void
    primeFetch(uint64_t t)
    {
        for (auto &ctx : contexts_) {
            BlockReason why;
            ensureWindow(ctx, t, why);
        }
    }

    // --- dispatch (mirrors DispatchUnit::planAny/planDispatch/commit)

    /**
     * Plan the head, or — with a slip window — a vector memory
     * instruction behind the blocked head that conflicts with none of
     * the skipped entries. On failure @p why holds the head's reason
     * and @p unblockAt the earliest threshold of the failed plans.
     */
    bool
    planAny(const Ctx &ctx, uint64_t now, DispatchPlan &plan,
            BlockReason &why, uint64_t &unblockAt)
    {
        if (planEntry(ctx, now, plan, why, unblockAt))
            return true;
        if constexpr (Wide) {
            for (uint32_t k = 1; k < ctx.windowSize; ++k) {
                const Fetched &cand = ctx.window[k];
                if ((cand.facts.flags & (kFlagVector | kFlagMem)) !=
                    (kFlagVector | kFlagMem)) {
                    continue;
                }
                bool clear = true;
                for (uint32_t j = 0; j < k && clear; ++j)
                    clear = canSlipPast(*cand.inst, *ctx.window[j].inst);
                if (!clear)
                    continue;
                DispatchPlan slipped{};
                slipped.windowIndex = k;
                BlockReason slipWhy = BlockReason::NoWork;
                uint64_t slipAt = 0;
                if (planEntry(ctx, now, slipped, slipWhy, slipAt)) {
                    plan = slipped;
                    return true;
                }
                unblockAt = std::min(unblockAt, slipAt);
            }
        }
        return false;
    }

    /**
     * The WAW/WAR check on a vector destination (destReady in
     * dispatch.cc): idle, or hidden by renaming. The bounded pool
     * hides a hazard only while a slot is free, and @p plan then
     * claims one.
     */
    bool
    destReady(const Ctx &ctx, const VRegTiming &dst, uint64_t now,
              DispatchPlan &plan, uint64_t &unblockAt) const
    {
        if (dst.idleAt(now))
            return true;
        const uint64_t idleAt = std::max(dst.writeDone, dst.readBusy);
        if constexpr (Wide) {
            if (params_.renameDepth > 0) {
                uint64_t slotFree = ctx.renameSlots[0];
                for (int i = 1; i < params_.renameDepth; ++i)
                    slotFree = std::min(slotFree, ctx.renameSlots[i]);
                if (slotFree > now) {
                    unblockAt = std::min(idleAt, slotFree);
                    return false;
                }
                plan.renamed = true;
                return true;
            }
        }
        if (params_.renaming)
            return true;
        unblockAt = idleAt;
        return false;
    }

    /** The window entry @p plan is for (the head when narrow). */
    static const Fetched &
    entryOf(const Ctx &ctx, const DispatchPlan &plan)
    {
        return ctx.window[Wide ? plan.windowIndex : 0];
    }

    /** Plan the window entry plan.windowIndex names (planDispatch). */
    bool
    planEntry(const Ctx &ctx, uint64_t now, DispatchPlan &plan,
              BlockReason &why, uint64_t &unblockAt)
    {
        const Instruction &inst = *entryOf(ctx, plan).inst;
        const OpFacts &f = entryOf(ctx, plan).facts;
        if (f.fu == FuClass::Scalar) {
            for (const uint8_t src : {inst.srcA, inst.srcB}) {
                if (src != noReg && ctx.scalarReady[src] > now) {
                    why = BlockReason::ScalarDep;
                    unblockAt = ctx.scalarReady[src];
                    return false;
                }
            }
            if (inst.dst != noReg && ctx.scalarReady[inst.dst] > now) {
                why = BlockReason::ScalarDep;
                unblockAt = ctx.scalarReady[inst.dst];
                return false;
            }
            if (f.flags & kFlagMem) {
                plan.port = nullptr;
                uint64_t busFree = 0;
                for (MemPort *port : portsFor(f)) {
                    if (port->bus.freeAt(now)) {
                        plan.port = port;
                        break;
                    }
                    const uint64_t f = port->bus.freeCycle();
                    if (busFree == 0 || f < busFree)
                        busFree = f;
                }
                if (!plan.port) {
                    why = BlockReason::MemPortBusy;
                    unblockAt = busFree;
                    return false;
                }
            }
            plan.unit = DispatchPlan::Unit::Scalar;
            plan.start = now;
            plan.scalarReady =
                now + static_cast<uint64_t>(
                          latByOp_[static_cast<size_t>(inst.op)]);
            plan.completion =
                inst.op == Opcode::SStore ? now + 1 : plan.scalarReady;
            return true;
        }

        const uint16_t vl = std::max<uint16_t>(inst.vl, 1);

        if (f.fu == FuClass::VecAny || f.fu == FuClass::VecFu2) {
            if (f.fu == FuClass::VecFu2) {
                if (!pipes_.fu2().freeAt(now)) {
                    why = BlockReason::FuBusy;
                    unblockAt = pipes_.fu2().freeCycle();
                    return false;
                }
                plan.unit = DispatchPlan::Unit::Fu2;
            } else if (pipes_.fu1().freeAt(now)) {
                plan.unit = DispatchPlan::Unit::Fu1;
            } else if (pipes_.fu2().freeAt(now)) {
                plan.unit = DispatchPlan::Unit::Fu2;
            } else {
                why = BlockReason::FuBusy;
                unblockAt = std::min(pipes_.fu1().freeCycle(),
                                     pipes_.fu2().freeCycle());
                return false;
            }

            uint64_t chainStart = 0;
            int bankReads[numVRegs / 2] = {};
            for (const uint8_t src : {inst.srcA, inst.srcB}) {
                if (src == noReg)
                    continue;
                const VRegTiming &reg = ctx.vregs[src];
                if (!reg.completeAt(now)) {
                    if (!reg.chainable) {
                        why = BlockReason::SourceNotReady;
                        unblockAt = reg.writeDone;
                        return false;
                    }
                    chainStart = std::max(chainStart, reg.prodFirst + 1);
                }
                ++bankReads[vregBank(src)];
            }
            if (inst.srcA != noReg && inst.srcA == inst.srcB)
                --bankReads[vregBank(inst.srcA)];

            const bool isReduce = inst.op == Opcode::VReduce;
            if (!isReduce) {
                if (!destReady(ctx, ctx.vregs[inst.dst], now, plan,
                               unblockAt)) {
                    why = BlockReason::DestBusy;
                    return false;
                }
            } else if (inst.dst != noReg && ctx.scalarReady[inst.dst] > now) {
                why = BlockReason::ScalarDep;
                unblockAt = ctx.scalarReady[inst.dst];
                return false;
            }

            if (params_.modelBankPorts) {
                for (int b = 0; b < numVRegs / 2; ++b) {
                    if (bankReads[b] >
                        ctx.banks[b].freeReadPorts(now)) {
                        why = BlockReason::BankPortBusy;
                        // Need both ports => wait for the later one;
                        // need one (and both busy) => the earlier.
                        const BankPorts &bank = ctx.banks[b];
                        unblockAt =
                            bankReads[b] >= 2
                                ? std::max(bank.readUntil[0],
                                           bank.readUntil[1])
                                : std::min(bank.readUntil[0],
                                           bank.readUntil[1]);
                        return false;
                    }
                }
                if (!isReduce && !renamingEnabled_ &&
                    !ctx.banks[vregBank(inst.dst)].writeFreeAt(now)) {
                    why = BlockReason::BankPortBusy;
                    unblockAt = ctx.banks[vregBank(inst.dst)].writeUntil;
                    return false;
                }
            }

            const uint64_t r0 = std::max(
                now + static_cast<uint64_t>(params_.vectorStartup),
                chainStart);
            const int fuLat = latByOp_[static_cast<size_t>(inst.op)];
            plan.start = r0;
            plan.prodFirst =
                r0 + params_.readXbar + fuLat + params_.writeXbar;
            plan.writeDone = plan.prodFirst + vl;
            plan.chainableOut = true;
            if (isReduce) {
                plan.scalarReady = r0 + params_.readXbar + fuLat + vl;
                plan.completion = plan.scalarReady;
            } else {
                plan.completion = plan.writeDone;
            }
            return true;
        }

        if (f.fu == FuClass::VecLoad) {
            plan.port = nullptr;
            bool anyPipeFree = false;
            for (MemPort *port : portsFor(f)) {
                if (!port->pipe.freeAt(now))
                    continue;
                anyPipeFree = true;
                if (port->bus.freeAt(now)) {
                    plan.port = port;
                    break;
                }
            }
            if (!plan.port) {
                why = anyPipeFree ? BlockReason::MemPortBusy
                                  : BlockReason::MemPipeBusy;
                unblockAt = nextPortEvent(portsFor(f), now);
                return false;
            }
            if (!destReady(ctx, ctx.vregs[inst.dst], now, plan,
                           unblockAt)) {
                why = BlockReason::DestBusy;
                return false;
            }
            if (params_.modelBankPorts && !renamingEnabled_ &&
                !ctx.banks[vregBank(inst.dst)].writeFreeAt(now)) {
                why = BlockReason::BankPortBusy;
                unblockAt = ctx.banks[vregBank(inst.dst)].writeUntil;
                return false;
            }
            const bool indexed = inst.op == Opcode::VGather;
            const int period =
                mem_.memory().deliveryPeriod(inst.stride, indexed);
            plan.unit = DispatchPlan::Unit::Mem;
            plan.start =
                now + static_cast<uint64_t>(params_.vectorStartup);
            plan.pipeUntil =
                plan.start + static_cast<uint64_t>(vl) * period;
            plan.prodFirst =
                plan.start + params_.memLatency + params_.writeXbar;
            plan.writeDone =
                plan.prodFirst + static_cast<uint64_t>(vl) * period;
            plan.chainableOut = params_.loadChaining;
            plan.completion = plan.writeDone;
            return true;
        }

        MTV_ASSERT(f.fu == FuClass::VecStore);
        plan.port = nullptr;
        bool anyPipeFree = false;
        for (MemPort *port : portsFor(f)) {
            if (!port->pipe.freeAt(now))
                continue;
            anyPipeFree = true;
            if (port->bus.freeAt(now)) {
                plan.port = port;
                break;
            }
        }
        if (!plan.port) {
            why = anyPipeFree ? BlockReason::MemPortBusy
                              : BlockReason::MemPipeBusy;
            unblockAt = nextPortEvent(portsFor(f), now);
            return false;
        }
        const VRegTiming &src = ctx.vregs[inst.srcA];
        uint64_t chainStart = 0;
        if (!src.completeAt(now)) {
            if (!src.chainable) {
                why = BlockReason::SourceNotReady;
                unblockAt = src.writeDone;
                return false;
            }
            chainStart = src.prodFirst + 1;
        }
        if (params_.modelBankPorts &&
            ctx.banks[vregBank(inst.srcA)].freeReadPorts(now) < 1) {
            why = BlockReason::BankPortBusy;
            const BankPorts &bank = ctx.banks[vregBank(inst.srcA)];
            unblockAt =
                std::min(bank.readUntil[0], bank.readUntil[1]);
            return false;
        }
        plan.unit = DispatchPlan::Unit::Mem;
        plan.start = std::max(
            now + static_cast<uint64_t>(params_.vectorStartup),
            chainStart);
        plan.pipeUntil = plan.start + vl;
        plan.completion = plan.start + vl;
        return true;
    }

    /** Claim the earliest-retiring rename slot for the register @p dst
     *  displaces (takeRenameSlot in dispatch.cc). */
    void
    claimRenameSlot(Ctx &ctx, const VRegTiming &dst,
                    const DispatchPlan &plan) const
    {
        if constexpr (Wide) {
            if (!plan.renamed)
                return;
            int best = 0;
            for (int i = 1; i < params_.renameDepth; ++i) {
                if (ctx.renameSlots[i] < ctx.renameSlots[best])
                    best = i;
            }
            ctx.renameSlots[best] = std::max(dst.writeDone, dst.readBusy);
        }
    }

    void
    commit(Ctx &ctx, const DispatchPlan &plan, uint64_t now)
    {
        const Instruction &inst = *entryOf(ctx, plan).inst;
        const OpFacts &f = entryOf(ctx, plan).facts;
        // The occupations below invalidate the frozen intervals the
        // deferred histogram relies on: integrate up to here first.
        flushHist(now);
        const uint16_t vl = std::max<uint16_t>(inst.vl, 1);

        switch (plan.unit) {
          case DispatchPlan::Unit::Scalar:
            if (inst.dst != noReg)
                ctx.scalarReady[inst.dst] = plan.scalarReady;
            if (f.flags & kFlagMem)
                plan.port->bus.reserve(now, 1);
            if (f.flags & kFlagBranch) {
                ctx.fetchReadyAt =
                    now + 1 +
                    static_cast<uint64_t>(params_.branchStall);
            }
            break;

          case DispatchPlan::Unit::Fu1:
          case DispatchPlan::Unit::Fu2: {
            PipeUnit &unit = plan.unit == DispatchPlan::Unit::Fu1
                                 ? pipes_.fu1()
                                 : pipes_.fu2();
            unit.occupy(plan.start, plan.start + vl);
            if (plan.unit == DispatchPlan::Unit::Fu1)
                vecOpsFu1_ += vl;
            else
                vecOpsFu2_ += vl;

            const uint64_t readUntil = plan.start + vl;
            for (const uint8_t src : {inst.srcA, inst.srcB}) {
                if (src == noReg)
                    continue;
                VRegTiming &reg = ctx.vregs[src];
                reg.readBusy = std::max(reg.readBusy, readUntil);
                ctx.banks[vregBank(src)].takeReadPort(now, readUntil);
            }
            if (inst.op == Opcode::VReduce) {
                if (inst.dst != noReg)
                    ctx.scalarReady[inst.dst] = plan.scalarReady;
            } else {
                VRegTiming &dst = ctx.vregs[inst.dst];
                claimRenameSlot(ctx, dst, plan);
                dst.prodFirst = plan.prodFirst;
                dst.writeDone = plan.writeDone;
                dst.chainable = plan.chainableOut;
                ctx.banks[vregBank(inst.dst)].writeUntil = plan.writeDone;
            }
            break;
          }

          case DispatchPlan::Unit::Mem: {
            plan.port->pipe.occupy(plan.start, plan.pipeUntil);
            plan.port->bus.reserve(plan.start, vl);
            if (f.flags & kFlagLoad) {
                VRegTiming &dst = ctx.vregs[inst.dst];
                claimRenameSlot(ctx, dst, plan);
                dst.prodFirst = plan.prodFirst;
                dst.writeDone = plan.writeDone;
                dst.chainable = plan.chainableOut;
                ctx.banks[vregBank(inst.dst)].writeUntil = plan.writeDone;
            } else {
                VRegTiming &src = ctx.vregs[inst.srcA];
                const uint64_t readUntil = plan.start + vl;
                src.readBusy = std::max(src.readBusy, readUntil);
                ctx.banks[vregBank(inst.srcA)].takeReadPort(now, readUntil);
            }
            break;
          }
        }

        ++dispatches_;
        ++ctx.stats.instructions;
        ++ctx.stats.instructionsThisRun;
        if (f.flags & kFlagVector)
            ++ctx.stats.vectorInstructions;
        else
            ++ctx.stats.scalarInstructions;
        ctx.stats.lastCompletion =
            std::max(ctx.stats.lastCompletion, plan.completion);
        if constexpr (Wide) {
            if (plan.windowIndex > 0)
                ++decoupledSlips_;
            std::copy(ctx.window.begin() + plan.windowIndex + 1,
                      ctx.window.begin() + ctx.windowSize,
                      ctx.window.begin() + plan.windowIndex);
            --ctx.windowSize;
        } else {
            ctx.windowSize = 0;
        }
    }

    // --- the decode cycle (mirrors VectorSim::decodeCycle) ---

    /** More than one decode slot per cycle (never when narrow)? */
    bool
    multiSlot() const
    {
        if constexpr (Wide)
            return multiSlot_;
        return false;
    }

    bool
    decodeCycle(uint64_t now)
    {
        if (multiSlot())
            return decodeMultiSlot(now);
        Ctx &held = contexts_[currentThread_];
        lastSelected_[currentThread_] = now;
        BlockReason heldWhy = BlockReason::NoWork;
        bool dispatched = false;
        if (ensureWindow(held, now, heldWhy)) {
            DispatchPlan plan{};
            if (planAny(held, now, plan, heldWhy,
                        unblockAt_[currentThread_])) {
                commit(held, plan, now);
                lastDispatchCycle_ = now;
                dispatched = true;
            }
        }
        if (!dispatched) {
            scanWhy_[currentThread_] = heldWhy;
            scanContexts(now);
            for (int c = 0; c < params_.contexts; ++c) {
                if (scanWhy_[c] != BlockReason::None) {
                    contexts_[c].stats.blocked[static_cast<size_t>(
                        scanWhy_[c])]++;
                }
            }
            ++decodeIdle_;
            switchThread();
        } else if (params_.sched == SchedPolicy::RoundRobin) {
            switchThread();
        }
        return dispatched;
    }

    /**
     * Every context in index order up to the decode width takes a
     * slot (VectorSim::decodeMultiSlot); one shared scalar unit
     * unless dualScalar.
     */
    bool
    decodeMultiSlot(uint64_t now)
    {
        int issued = 0;
        bool scalarUsed = false;
        for (int c = 0; c < params_.contexts && issued < width_; ++c) {
            Ctx &ctx = contexts_[c];
            BlockReason why = BlockReason::NoWork;
            DispatchPlan plan{};
            if (!ensureWindow(ctx, now, why) ||
                !planAny(ctx, now, plan, why, unblockAt_[c])) {
                ctx.stats.blocked[static_cast<size_t>(why)]++;
                scanWhy_[c] = why;
                continue;
            }
            const bool isScalar = plan.unit == DispatchPlan::Unit::Scalar;
            if (isScalar && scalarUsed && !params_.dualScalar) {
                ctx.stats.blocked[static_cast<size_t>(
                    BlockReason::ScalarDep)]++;
                scanWhy_[c] = BlockReason::ScalarDep;
                continue;
            }
            commit(ctx, plan, now);
            lastDispatchCycle_ = now;
            ++issued;
            scanWhy_[c] = BlockReason::None;
            if (isScalar)
                scalarUsed = true;
        }
        if (!issued)
            ++decodeIdle_;
        return issued > 0;
    }

    /** Context @p c's block reason at @p now (None: it can dispatch). */
    BlockReason
    reasonAt(int c, uint64_t now)
    {
        Ctx &ctx = contexts_[c];
        BlockReason why = BlockReason::NoWork;
        if (ensureWindow(ctx, now, why)) {
            DispatchPlan plan{};
            if (planAny(ctx, now, plan, why, unblockAt_[c]))
                why = BlockReason::None;
        }
        return why;
    }

    void
    scanContexts(uint64_t now)
    {
        for (int c = 0; c < params_.contexts; ++c) {
            if (c != currentThread_)  // the dispatch attempt recorded it
                scanWhy_[c] = reasonAt(c, now);
        }
    }

    void
    switchThread()
    {
        const int n = params_.contexts;
        if (n == 1)
            return;

        switch (params_.sched) {
          case SchedPolicy::UnfairLowest:
            for (int c = 0; c < n; ++c) {
                if (scanWhy_[c] == BlockReason::None) {
                    currentThread_ = c;
                    return;
                }
            }
            return;

          case SchedPolicy::FairLru: {
            int best = -1;
            for (int c = 0; c < n; ++c) {
                if (scanWhy_[c] == BlockReason::None &&
                    (best < 0 ||
                     lastSelected_[c] < lastSelected_[best])) {
                    best = c;
                }
            }
            if (best >= 0)
                currentThread_ = best;
            return;
          }

          case SchedPolicy::RoundRobin:
            for (int step = 1; step <= n; ++step) {
                const int c = (currentThread_ + step) % n;
                if (contexts_[c].hasWork()) {
                    currentThread_ = c;
                    return;
                }
            }
            return;
        }
    }

    // --- idle spans (mirrors accountIdleSpan / advanceRoundRobin) ---

    void
    accountIdleSpan(uint64_t from, uint64_t to)
    {
        // The histogram cycles of [from, to) stay in the deferred
        // region (flushHist); only the block charges are per-span.
        const uint64_t skipped = to - from - 1;
        if (skipped == 0)
            return;
        decodeIdle_ += skipped;
        for (int c = 0; c < params_.contexts; ++c) {
            MTV_ASSERT(scanWhy_[c] != BlockReason::None);
            contexts_[c].stats.blocked[static_cast<size_t>(
                scanWhy_[c])] += skipped;
        }
        if (!multiSlot() && params_.sched == SchedPolicy::RoundRobin)
            advanceRoundRobin(skipped);
    }

    void
    advanceRoundRobin(uint64_t steps)
    {
        int active[8];
        int m = 0;
        MTV_ASSERT(params_.contexts <= 8);
        for (int c = 0; c < params_.contexts; ++c) {
            if (contexts_[c].hasWork())
                active[m++] = c;
        }
        if (m == 0)
            return;
        int p0 = 0;
        while (p0 < m && active[p0] <= currentThread_)
            ++p0;
        if (p0 == m)
            p0 = 0;
        currentThread_ =
            active[(p0 + (steps - 1)) % static_cast<uint64_t>(m)];
    }

    // --- the wake target (mirrors VectorSim::wakeAfter) ---

    /**
     * First cycle after @p now at which a blocked lane can change: a
     * headed context's failed-plan threshold (every dispatch
     * predicate is monotone until the next commit, so its first
     * failing check, the reason, holds until then), a headless one's
     * fetch gate or completion; 0 when nothing is pending.
     */
    uint64_t
    wakeAfter(uint64_t now) const
    {
        EventMin em(now);
        for (int c = 0; c < params_.contexts; ++c) {
            const Ctx &ctx = contexts_[c];
            if (ctx.windowSize) {
                em.consider(unblockAt_[c]);
            } else {
                em.consider(ctx.fetchReadyAt);
                em.consider(ctx.stats.lastCompletion);
            }
        }
        return em.next;
    }

    // --- termination and the watchdog ---

    bool
    done(uint64_t now) const
    {
        if (mode_ == RunMode::UntilThreadZero) {
            const Ctx &ctx0 = contexts_[0];
            return ctx0.finished && !ctx0.windowSize &&
                   now >= ctx0.stats.lastCompletion;
        }
        uint64_t maxCompletion = 0;
        for (const auto &ctx : contexts_) {
            if (!ctx.finished || ctx.windowSize)
                return false;
            maxCompletion =
                std::max(maxCompletion, ctx.stats.lastCompletion);
        }
        return now >= maxCompletion;
    }

    void
    checkWatchdog(uint64_t now)
    {
        if (now - lastDispatchCycle_ > stallLimit_)
            throwWedged(now);
    }

    [[noreturn]] void
    throwWedged(uint64_t now)
    {
        // Every context's blocked state, the slot holder's included
        // (the rotation makes it arbitrary; multi-slot has none).
        // Every window is primed at `now`, so the scan order is moot.
        std::vector<BlockedContext> blocked;
        blocked.reserve(contexts_.size());
        for (int c = 0; c < params_.contexts; ++c) {
            const Ctx &ctx = contexts_[c];
            BlockedContext b;
            b.context = c;
            b.program = ctx.stats.program;
            b.reason = reasonAt(c, now);
            b.windowDepth = ctx.windowSize;
            if (ctx.windowSize)
                b.windowHead = ctx.window[0].inst->disasm();
            blocked.push_back(std::move(b));
        }
        throw SimError(now, now - lastDispatchCycle_,
                       std::move(blocked));
    }

    // --- configuration ---
    MachineParams params_;
    MemSystem mem_;
    PipelineSet pipes_;
    int latByOp_[static_cast<size_t>(Opcode::NumOpcodes)] = {};
    const std::vector<MemPort *> *loadPorts_ = nullptr;
    const std::vector<MemPort *> *storePorts_ = nullptr;
    bool renamingEnabled_ = false;  ///< params_.renamingEnabled()

    // --- the wide build's shape (unread when narrow) ---
    uint32_t depth_ = 1;      ///< fetch-window capacity
    bool multiSlot_ = false;  ///< decodeWidth > 1 or dualScalar
    int width_ = 1;           ///< decode slots per cycle

    // --- machine state ---
    std::vector<Ctx> contexts_;
    int currentThread_ = 0;
    std::vector<uint64_t> lastSelected_;
    std::vector<BlockReason> scanWhy_;
    /** Per context: threshold of its last failed planAny(), the
     *  first cycle at which one of its blocking checks can pass. */
    std::vector<uint64_t> unblockAt_;

    // --- run bookkeeping ---
    RunMode mode_;
    size_t nextJob_ = 0;
    uint64_t maxInstructions_;
    uint64_t lastDispatchCycle_ = 0;
    uint64_t stallLimit_;
    uint64_t now_ = 0;
    bool finished_ = false;
    /** Start of the cycle region not yet in stateHist_. */
    uint64_t histPending_ = 0;

    // --- statistics ---
    uint64_t dispatches_ = 0;
    uint64_t vecOpsFu1_ = 0;
    uint64_t vecOpsFu2_ = 0;
    uint64_t decoupledSlips_ = 0;
    uint64_t decodeIdle_ = 0;
    std::array<uint64_t, numFuStates> stateHist_{};
    std::vector<JobRecord> jobRecords_;

    /** The point's programs (its jobs, in a job-queue run). */
    std::vector<LaneProgram> programs_;
};

// ---------------------------------------------------------------------
// Point validation and the generic path
// ---------------------------------------------------------------------

/** The user-error checks of the VectorSim entry points. */
void
validatePoint(const BatchPoint &point)
{
    switch (point.kind) {
      case BatchPoint::Kind::Single:
        if (point.sources.size() != 1)
            fatal("single-point batch entry needs exactly one source");
        break;
      case BatchPoint::Kind::Group:
        if (static_cast<int>(point.sources.size()) !=
            point.params.contexts) {
            fatal("group run needs exactly %d programs, got %zu",
                  point.params.contexts, point.sources.size());
        }
        for (size_t i = 0; i < point.sources.size(); ++i) {
            for (size_t j = i + 1; j < point.sources.size(); ++j) {
                if (point.sources[i] == point.sources[j]) {
                    fatal("group run requires distinct source "
                          "instances (program '%s' passed twice)",
                          point.sources[i]->name().c_str());
                }
            }
        }
        break;
      case BatchPoint::Kind::JobQueue:
        if (point.sources.empty())
            fatal("job-queue run needs at least one job");
        break;
    }
    for (const InstructionSource *source : point.sources) {
        if (!source)
            fatal("batch point carries a null instruction source");
    }
}

/** Points whose sources hold no shared stream simulate through the
 *  event kernel. */
SimStats
runGenericPoint(const BatchPoint &point)
{
    VectorSim sim(point.params, SimKernel::Event);
    switch (point.kind) {
      case BatchPoint::Kind::Single:
        return sim.runSingle(*point.sources[0], point.maxInstructions);
      case BatchPoint::Kind::Group:
        return sim.runGroup(point.sources);
      case BatchPoint::Kind::JobQueue:
        return sim.runJobQueue(point.sources);
    }
    fatal("unreachable batch point kind");
}

/** One point to completion: the fast lane's narrow or wide build, or
 *  the generic path when a source holds no shared stream. */
SimStats
runPoint(const BatchPoint &point)
{
    std::vector<LaneProgram> programs;
    programs.reserve(point.sources.size());
    for (const InstructionSource *source : point.sources) {
        auto stream = source->sharedStream();
        if (!stream)
            return runGenericPoint(point);
        programs.push_back({std::move(stream), source->name()});
    }
    if (wideShape(point.params))
        return FastLane<true>(point, std::move(programs)).run();
    return FastLane<false>(point, std::move(programs)).run();
}

} // namespace

std::vector<BatchResult>
runBatch(const std::vector<BatchPoint> &points)
{
    for (const BatchPoint &point : points) {
        point.params.validate();
        validatePoint(point);
    }
    std::vector<BatchResult> results(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        try {
            results[i].stats = runPoint(points[i]);
        } catch (const SimError &) {
            results[i].error = std::current_exception();
        }
    }
    return results;
}

SimStats
takeBatchResult(std::vector<BatchResult> results, size_t index)
{
    MTV_ASSERT(index < results.size());
    if (results[index].error)
        std::rethrow_exception(results[index].error);
    return std::move(results[index].stats);
}

} // namespace mtv
