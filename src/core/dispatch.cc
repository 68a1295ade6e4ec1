#include "src/core/dispatch.hh"

#include <algorithm>

#include "src/common/logging.hh"

namespace mtv
{

namespace
{

/** Bitmask of vector registers read by @p inst. */
uint8_t
vregReadMask(const Instruction &inst)
{
    uint8_t mask = 0;
    if (!isVector(inst.op))
        return mask;
    if (isStore(inst.op)) {
        mask |= 1u << inst.srcA;
    } else if (isVectorArith(inst.op) || inst.op == Opcode::VReduce) {
        if (inst.srcA != noReg)
            mask |= 1u << inst.srcA;
        if (inst.srcB != noReg)
            mask |= 1u << inst.srcB;
    }
    return mask;
}

/** Bitmask of vector registers written by @p inst. */
uint8_t
vregWriteMask(const Instruction &inst)
{
    if (!isVector(inst.op) || isStore(inst.op) ||
        inst.op == Opcode::VReduce || inst.dst == noReg) {
        return 0;
    }
    return static_cast<uint8_t>(1u << inst.dst);
}

/**
 * Claim the earliest-retiring rename slot for the physical register
 * @p dst displaces: the spare holds the old value until its in-flight
 * write and last reader complete. Caller checked a slot is free.
 */
void
takeRenameSlot(Context &ctx, const VRegTiming &dst, int depth)
{
    int best = 0;
    for (int i = 1; i < depth; ++i) {
        if (ctx.renameSlots[i] < ctx.renameSlots[best])
            best = i;
    }
    ctx.renameSlots[best] = std::max(dst.writeDone, dst.readBusy);
}

/**
 * The WAW/WAR check on a vector destination: true when @p dst is
 * idle or renaming hides the hazard. Renaming allocates a fresh
 * physical register, so WAW and WAR hazards vanish (section 10
 * extension). The bounded pool hides a hazard only while a spare slot
 * is free (@p plan then claims one); with none, the stall is charged
 * as DestBusy like the baseline's. False sets @p unblockAt to the
 * first cycle the register idles or, with a bounded pool, a slot
 * frees.
 */
bool
destReady(const MachineParams &params, const Context &ctx,
          const VRegTiming &dst, uint64_t now, DispatchPlan &plan,
          uint64_t &unblockAt)
{
    if (dst.idleAt(now))
        return true;
    const uint64_t idleAt = std::max(dst.writeDone, dst.readBusy);
    if (params.renameBounded()) {
        const uint64_t slotFree = ctx.minRenameSlot(params.renameDepth);
        if (slotFree > now) {
            unblockAt = std::min(idleAt, slotFree);
            return false;
        }
        plan.renamed = true;
        return true;
    }
    if (params.renaming)
        return true;
    unblockAt = idleAt;
    return false;
}

} // namespace

bool
canSlipPast(const Instruction &cand, const Instruction &prior)
{
    if (prior.op == Opcode::SBranch)
        return false;
    if (isMemory(cand.op) && isMemory(prior.op))
        return false;
    const uint8_t priorWrites = vregWriteMask(prior);
    const uint8_t priorReads = vregReadMask(prior);
    const uint8_t candWrites = vregWriteMask(cand);
    const uint8_t candReads = vregReadMask(cand);
    if (priorWrites & (candReads | candWrites))
        return false;  // RAW or WAW
    if (priorReads & candWrites)
        return false;  // WAR
    return true;
}

std::optional<DispatchPlan>
DispatchUnit::planAny(const Context &ctx, uint64_t now,
                      BlockReason &why, uint64_t &unblockAt) const
{
    MTV_ASSERT(!ctx.window.empty());
    auto plan = planDispatch(ctx, ctx.window.front(), now, why, unblockAt);
    if (plan || params_.decoupleDepth == 0)
        return plan;

    // Decoupled slip: look for a vector memory instruction behind the
    // blocked head that conflicts with none of the skipped entries.
    // Until one of them or the head can pass its failing check, the
    // window stays blocked.
    for (size_t k = 1; k < ctx.window.size(); ++k) {
        const Instruction &cand = ctx.window[k];
        if (!isVector(cand.op) || !isMemory(cand.op))
            continue;
        bool clear = true;
        for (size_t j = 0; j < k && clear; ++j)
            clear = canSlipPast(cand, ctx.window[j]);
        if (!clear)
            continue;
        BlockReason slipWhy = BlockReason::NoWork;
        uint64_t slipAt = 0;
        if (auto slipped = planDispatch(ctx, cand, now, slipWhy, slipAt)) {
            slipped->windowIndex = k;
            return slipped;
        }
        unblockAt = std::min(unblockAt, slipAt);
    }
    return std::nullopt;  // `why` keeps the head's block reason
}

std::optional<DispatchPlan>
DispatchUnit::planDispatch(const Context &ctx, const Instruction &inst,
                           uint64_t now, BlockReason &why,
                           uint64_t &unblockAt) const
{
    const FuClass fu = fuClass(inst.op);
    DispatchPlan plan{};

    if (fu == FuClass::Scalar) {
        // --- Scalar instruction ---
        for (const uint8_t src : {inst.srcA, inst.srcB}) {
            if (src != noReg && ctx.scalarReady[src] > now) {
                why = BlockReason::ScalarDep;
                unblockAt = ctx.scalarReady[src];
                return std::nullopt;
            }
        }
        if (inst.dst != noReg && ctx.scalarReady[inst.dst] > now) {
            why = BlockReason::ScalarDep;
            unblockAt = ctx.scalarReady[inst.dst];
            return std::nullopt;
        }
        if (isMemory(inst.op)) {
            plan.port = nullptr;
            EventMin busFree(now);
            for (MemPort *port : mem_.portsFor(inst.op)) {
                if (port->bus.freeAt(now)) {
                    plan.port = port;
                    break;
                }
                busFree.consider(port->bus.freeCycle());
            }
            if (!plan.port) {
                why = BlockReason::MemPortBusy;
                unblockAt = busFree.next;
                return std::nullopt;
            }
        }
        plan.unit = DispatchPlan::Unit::Scalar;
        plan.start = now;
        const int lat = params_.opLatency(inst.op);
        plan.scalarReady = now + static_cast<uint64_t>(lat);
        plan.completion =
            inst.op == Opcode::SStore ? now + 1 : plan.scalarReady;
        return plan;
    }

    const uint16_t vl = std::max<uint16_t>(inst.vl, 1);

    if (fu == FuClass::VecAny || fu == FuClass::VecFu2) {
        // --- Vector arithmetic (including reductions) ---
        if (fu == FuClass::VecFu2) {
            if (!pipes_.fu2().freeAt(now)) {
                why = BlockReason::FuBusy;
                unblockAt = pipes_.fu2().freeCycle();
                return std::nullopt;
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
            return std::nullopt;
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
                    return std::nullopt;
                }
                chainStart = std::max(chainStart, reg.prodFirst + 1);
            }
            ++bankReads[vregBank(src)];
        }
        // Reading the same register through both operand ports still
        // needs only one physical port.
        if (inst.srcA != noReg && inst.srcA == inst.srcB)
            --bankReads[vregBank(inst.srcA)];

        const bool isReduce = inst.op == Opcode::VReduce;
        if (!isReduce) {
            if (!destReady(params_, ctx, ctx.vregs[inst.dst], now, plan,
                           unblockAt)) {
                why = BlockReason::DestBusy;
                return std::nullopt;
            }
        } else if (inst.dst != noReg &&
                   ctx.scalarReady[inst.dst] > now) {
            why = BlockReason::ScalarDep;
            unblockAt = ctx.scalarReady[inst.dst];
            return std::nullopt;
        }

        if (params_.modelBankPorts) {
            for (int b = 0; b < numVRegs / 2; ++b) {
                if (bankReads[b] > ctx.banks[b].freeReadPorts(now)) {
                    why = BlockReason::BankPortBusy;
                    // Need both ports => wait for the later one;
                    // need one (and both busy) => the earlier.
                    const BankPorts &bank = ctx.banks[b];
                    unblockAt = bankReads[b] >= 2
                                    ? std::max(bank.readUntil[0],
                                               bank.readUntil[1])
                                    : std::min(bank.readUntil[0],
                                               bank.readUntil[1]);
                    return std::nullopt;
                }
            }
            if (!isReduce && !params_.renamingEnabled() &&
                !ctx.banks[vregBank(inst.dst)].writeFreeAt(now)) {
                why = BlockReason::BankPortBusy;
                unblockAt = ctx.banks[vregBank(inst.dst)].writeUntil;
                return std::nullopt;
            }
        }

        const uint64_t r0 = std::max(
            now + static_cast<uint64_t>(params_.vectorStartup),
            chainStart);
        const int fuLat = params_.opLatency(inst.op);
        plan.start = r0;
        plan.prodFirst =
            r0 + params_.readXbar + fuLat + params_.writeXbar;
        plan.writeDone = plan.prodFirst + vl;
        plan.chainableOut = true;
        if (isReduce) {
            // The reduction drains the pipe before the scalar result
            // appears; no vector destination is written.
            plan.scalarReady = r0 + params_.readXbar + fuLat + vl;
            plan.completion = plan.scalarReady;
        } else {
            plan.completion = plan.writeDone;
        }
        return plan;
    }

    if (fu == FuClass::VecLoad) {
        // --- Vector load / gather ---
        plan.port = nullptr;
        bool anyPipeFree = false;
        for (MemPort *port : mem_.portsFor(inst.op)) {
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
            unblockAt = nextPortEvent(mem_.portsFor(inst.op), now);
            return std::nullopt;
        }
        if (!destReady(params_, ctx, ctx.vregs[inst.dst], now, plan,
                       unblockAt)) {
            why = BlockReason::DestBusy;
            return std::nullopt;
        }
        if (params_.modelBankPorts && !params_.renamingEnabled() &&
            !ctx.banks[vregBank(inst.dst)].writeFreeAt(now)) {
            why = BlockReason::BankPortBusy;
            unblockAt = ctx.banks[vregBank(inst.dst)].writeUntil;
            return std::nullopt;
        }
        const bool indexed = inst.op == Opcode::VGather;
        const int period =
            mem_.memory().deliveryPeriod(inst.stride, indexed);
        plan.unit = DispatchPlan::Unit::Mem;
        plan.start = now + static_cast<uint64_t>(params_.vectorStartup);
        plan.pipeUntil =
            plan.start + static_cast<uint64_t>(vl) * period;
        plan.prodFirst =
            plan.start + params_.memLatency + params_.writeXbar;
        plan.writeDone =
            plan.prodFirst + static_cast<uint64_t>(vl) * period;
        plan.chainableOut = params_.loadChaining;
        plan.completion = plan.writeDone;
        return plan;
    }

    // --- Vector store / scatter ---
    MTV_ASSERT(fu == FuClass::VecStore);
    plan.port = nullptr;
    bool anyPipeFree = false;
    for (MemPort *port : mem_.portsFor(inst.op)) {
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
        unblockAt = nextPortEvent(mem_.portsFor(inst.op), now);
        return std::nullopt;
    }
    const VRegTiming &src = ctx.vregs[inst.srcA];
    uint64_t chainStart = 0;
    if (!src.completeAt(now)) {
        if (!src.chainable) {
            why = BlockReason::SourceNotReady;
            unblockAt = src.writeDone;
            return std::nullopt;
        }
        chainStart = src.prodFirst + 1;
    }
    if (params_.modelBankPorts &&
        ctx.banks[vregBank(inst.srcA)].freeReadPorts(now) < 1) {
        why = BlockReason::BankPortBusy;
        const BankPorts &bank = ctx.banks[vregBank(inst.srcA)];
        unblockAt = std::min(bank.readUntil[0], bank.readUntil[1]);
        return std::nullopt;
    }
    plan.unit = DispatchPlan::Unit::Mem;
    plan.start = std::max(
        now + static_cast<uint64_t>(params_.vectorStartup), chainStart);
    plan.pipeUntil = plan.start + vl;
    // Stores are fire-and-forget: the processor does not wait for the
    // memory write to complete (paper section 3.1).
    plan.completion = plan.start + vl;
    return plan;
}

void
DispatchUnit::commit(Context &ctx, const DispatchPlan &plan,
                     uint64_t now)
{
    MTV_ASSERT(plan.windowIndex < ctx.window.size());
    const Instruction inst = ctx.window[plan.windowIndex];
    const uint16_t vl = std::max<uint16_t>(inst.vl, 1);

    switch (plan.unit) {
      case DispatchPlan::Unit::Scalar:
        if (inst.dst != noReg)
            ctx.scalarReady[inst.dst] = plan.scalarReady;
        if (isMemory(inst.op))
            plan.port->bus.reserve(now, 1);
        if (inst.op == Opcode::SBranch) {
            ctx.fetchReadyAt =
                now + 1 + static_cast<uint64_t>(params_.branchStall);
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
            if (plan.renamed)
                takeRenameSlot(ctx, dst, params_.renameDepth);
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
        if (isLoad(inst.op)) {
            VRegTiming &dst = ctx.vregs[inst.dst];
            if (plan.renamed)
                takeRenameSlot(ctx, dst, params_.renameDepth);
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

    // Common accounting.
    ++dispatches_;
    ++ctx.stats.instructions;
    ++ctx.stats.instructionsThisRun;
    if (isVector(inst.op))
        ++ctx.stats.vectorInstructions;
    else
        ++ctx.stats.scalarInstructions;
    ctx.stats.lastCompletion =
        std::max(ctx.stats.lastCompletion, plan.completion);
    if (plan.windowIndex > 0)
        ++decoupledSlips_;
    ctx.window.erase(ctx.window.begin() +
                     static_cast<ptrdiff_t>(plan.windowIndex));
}

void
DispatchUnit::clear()
{
    dispatches_ = vecOpsFu1_ = vecOpsFu2_ = decoupledSlips_ = 0;
}

} // namespace mtv
