/**
 * @file
 * The architectural state one hardware context owns: its instruction
 * source and fetch window, its scalar/vector scoreboards and register
 * bank ports, and its per-thread statistics. Shared by the dispatch
 * unit (which plans and commits against this state) and the run
 * machinery in VectorSim.
 */

#ifndef MTV_CORE_CONTEXT_HH
#define MTV_CORE_CONTEXT_HH

#include <cstdint>
#include <vector>

#include "src/core/metrics.hh"
#include "src/core/resources.hh"
#include "src/isa/instruction.hh"
#include "src/trace/source.hh"

namespace mtv
{

/** Everything one hardware context owns. */
struct Context
{
    InstructionSource *source = nullptr;
    /** Fetched-but-not-dispatched instructions, program order.
     *  Size 1 normally; up to 1+decoupleDepth when decoupled. */
    std::vector<Instruction> window;
    bool finished = false;        ///< no more work will be fetched
    bool restartable = false;     ///< restart source at end-of-run
    uint64_t fetchReadyAt = 0;    ///< branch-shadow gate
    /** Unified S0-7 + A0-7 scoreboard, sized from the ISA widths
     *  (indices are checked against it at fetch). */
    uint64_t scalarReady[numSRegs + numARegs] = {};
    VRegTiming vregs[numVRegs] = {};
    BankPorts banks[numVRegs / 2] = {};
    /**
     * Bounded-renaming pool (MachineParams::renameDepth slots in use;
     * the array is sized for the validated maximum). Each entry is the
     * cycle its spare physical register retires — the displaced
     * register's last read/write. A slot is free once its time has
     * passed; min over the in-use prefix gates a renamed dispatch.
     */
    uint64_t renameSlots[8] = {};
    ThreadStats stats;
    int jobIndex = -1;            ///< job currently assigned

    /** Still holds or will fetch work (round-robin eligibility). */
    bool hasWork() const { return !finished || !window.empty(); }

    /** Earliest-retiring rename slot among the first @p depth. */
    uint64_t
    minRenameSlot(int depth) const
    {
        uint64_t best = renameSlots[0];
        for (int i = 1; i < depth; ++i)
            best = best < renameSlots[i] ? best : renameSlots[i];
        return best;
    }
};

} // namespace mtv

#endif // MTV_CORE_CONTEXT_HH
