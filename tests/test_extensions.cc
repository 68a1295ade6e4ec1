/**
 * @file
 * Tests for the section-10 future-work extensions: Cray-style
 * multi-port memory, vector register renaming, and the decoupled
 * (slip-window) machine. Expected cycle counts are hand-derived from
 * the DESIGN.md timing model with default parameters.
 */

#include <gtest/gtest.h>

#include "src/api/engine.hh"
#include "src/common/logging.hh"
#include "src/core/sim.hh"
#include "src/trace/source.hh"

namespace mtv
{
namespace
{

SimStats
runStream(const std::vector<Instruction> &instrs,
          const MachineParams &params)
{
    VectorSource src("handcrafted", instrs);
    VectorSim sim(params);
    return sim.runSingle(src);
}

// ---------------------------------------------------------------------
// Multi-port memory
// ---------------------------------------------------------------------

TEST(MultiPort, FactoryShape)
{
    const MachineParams p = MachineParams::crayStyle(3);
    EXPECT_EQ(p.loadPorts, 2);
    EXPECT_EQ(p.storePorts, 1);
    EXPECT_EQ(p.contexts, 3);
    p.validate();
    EXPECT_NE(p.describe().find("ports=2ld/1st"), std::string::npos);
}

TEST(MultiPort, TwoLoadsOverlapOnTwoPorts)
{
    // On the 1-port machine the second load serializes (completes at
    // 310, see SimTiming.AddressBusSerializesMemoryOps); with 2 load
    // ports it dispatches at t=1: done = 2 + 52 + 128 = 182.
    MachineParams p = MachineParams::reference();
    p.loadPorts = 2;
    const SimStats s = runStream(
        {
            makeVectorMem(Opcode::VLoad, 0, 128, 0x0, 1),
            makeVectorMem(Opcode::VLoad, 2, 128, 0x1000, 1),
        },
        p);
    EXPECT_EQ(s.cycles, 182u);
    EXPECT_EQ(s.memRequests, 256u);
    EXPECT_EQ(s.memPorts, 2);
}

TEST(MultiPort, StoresUseDedicatedPort)
{
    // Load occupies the (single) load port; the store goes to its own
    // port and does not wait for the load's address stream.
    MachineParams p = MachineParams::reference();
    p.storePorts = 1;
    const SimStats s = runStream(
        {
            makeVectorMem(Opcode::VLoad, 0, 128, 0x0, 1),
            makeVectorMem(Opcode::VStore, 2, 128, 0x1000, 1),
        },
        p);
    // store: dispatch t=1, start 2, completion 130; load done 181.
    EXPECT_EQ(s.cycles, 181u);
}

TEST(MultiPort, StoresShareLoadPortWhenNoStorePort)
{
    const SimStats s = runStream(
        {
            makeVectorMem(Opcode::VLoad, 0, 128, 0x0, 1),
            makeVectorMem(Opcode::VStore, 2, 128, 0x1000, 1),
        },
        MachineParams::reference());
    // Unified port: store blocked until 129, runs [130, 258).
    EXPECT_EQ(s.cycles, 258u);
}

TEST(MultiPort, OccupationNormalizesByPortCount)
{
    MachineParams p = MachineParams::reference();
    p.loadPorts = 2;
    p.storePorts = 1;
    const SimStats s = runStream(
        {makeVectorMem(Opcode::VLoad, 0, 128, 0x0, 1)}, p);
    // 128 requests over 181 cycles and 3 ports.
    EXPECT_NEAR(s.memPortOccupation(), 128.0 / (181.0 * 3), 1e-9);
    EXPECT_LE(s.memPortOccupation(), 1.0);
}

TEST(MultiPort, ThirdLoadStillWaits)
{
    MachineParams p = MachineParams::reference();
    p.loadPorts = 2;
    const SimStats s = runStream(
        {
            makeVectorMem(Opcode::VLoad, 0, 128, 0x0, 1),
            makeVectorMem(Opcode::VLoad, 2, 128, 0x1000, 1),
            makeVectorMem(Opcode::VLoad, 4, 128, 0x2000, 1),
        },
        p);
    // Third load waits for port 0 to free at 129: [130, 310).
    EXPECT_EQ(s.cycles, 310u);
}

TEST(MultiPort, CrayMachineNeverSlowerThanConvex)
{
    ExperimentEngine engine(EngineOptions{1});
    const std::vector<std::string> jobs = {"flo52", "tomcatv", "trfd",
                                           "bdna"};
    for (int c : {1, 2, 4}) {
        MachineParams convex = MachineParams::multithreaded(c);
        MachineParams cray = MachineParams::crayStyle(c);
        const uint64_t tConvex =
            engine.run(RunSpec::jobQueue(jobs, convex, 2e-5)).stats.cycles;
        const uint64_t tCray =
            engine.run(RunSpec::jobQueue(jobs, cray, 2e-5)).stats.cycles;
        EXPECT_LE(tCray, tConvex) << c << " contexts";
    }
}

TEST(MultiPort, WorkInvariantOnCray)
{
    ExperimentEngine engine(EngineOptions{1});
    const std::vector<std::string> jobs = {"flo52", "trfd"};
    TraceStats expected;
    for (const auto &name : jobs)
        expected += engine.programStats(name, 2e-5);
    const SimStats s =
        engine.run(RunSpec::jobQueue(jobs, MachineParams::crayStyle(2),
                                     2e-5))
            .stats;
    EXPECT_EQ(s.dispatches, expected.totalInstructions());
    EXPECT_EQ(s.memRequests, expected.memoryRequests);
}

// ---------------------------------------------------------------------
// Register renaming
// ---------------------------------------------------------------------

TEST(Renaming, RemovesWawStall)
{
    // Without renaming the second add waits for v2's writeDone (137)
    // and finishes at 274 (see SimTiming.WawBlocksUntilWriteDone).
    // With renaming it dispatches at t=1 on FU2: done 138.
    MachineParams p = MachineParams::reference();
    p.renaming = true;
    const SimStats s = runStream(
        {
            makeVectorArith(Opcode::VAdd, 2, 0, 0, 128),
            makeVectorArith(Opcode::VAdd, 2, 4, 4, 128),
        },
        p);
    EXPECT_EQ(s.cycles, 138u);
}

TEST(Renaming, RemovesWarStall)
{
    // Without renaming the load waits for v0's readers (done 310);
    // with renaming it dispatches at t=1: done = 2 + 52 + 128 = 182.
    MachineParams p = MachineParams::reference();
    p.renaming = true;
    const SimStats s = runStream(
        {
            makeVectorArith(Opcode::VAdd, 2, 0, 0, 128),
            makeVectorMem(Opcode::VLoad, 0, 128, 0x0, 1),
        },
        p);
    EXPECT_EQ(s.cycles, 182u);
}

TEST(Renaming, TrueDependencesStillBlock)
{
    // RAW through a load must still wait (renaming does not create
    // values): identical to the non-renamed machine.
    MachineParams p = MachineParams::reference();
    p.renaming = true;
    const SimStats s = runStream(
        {
            makeVectorMem(Opcode::VLoad, 0, 128, 0x0, 1),
            makeVectorArith(Opcode::VAdd, 2, 0, 0, 128),
        },
        p);
    EXPECT_EQ(s.cycles, 318u);
}

TEST(Renaming, NeverSlowerOnRealWorkloads)
{
    ExperimentEngine engine(EngineOptions{1});
    const std::vector<std::string> jobs = {"flo52", "tomcatv", "trfd",
                                           "dyfesm"};
    for (int c : {1, 2, 3}) {
        MachineParams base = MachineParams::multithreaded(c);
        MachineParams ren = base;
        ren.renaming = true;
        EXPECT_LE(
            engine.run(RunSpec::jobQueue(jobs, ren, 2e-5)).stats.cycles,
            engine.run(RunSpec::jobQueue(jobs, base, 2e-5)).stats.cycles)
            << c << " contexts";
    }
}

// ---------------------------------------------------------------------
// Decoupled slip window
// ---------------------------------------------------------------------

TEST(Decoupled, MemorySlipsPastBlockedArith)
{
    // Head: add blocked on the first load (no load chaining). The
    // second, independent load slips ahead and streams while the add
    // waits — the decoupled access/execute behaviour.
    MachineParams p = MachineParams::decoupledVector(4);
    const SimStats s = runStream(
        {
            makeVectorMem(Opcode::VLoad, 0, 128, 0x0, 1),   // A
            makeVectorArith(Opcode::VAdd, 4, 0, 0, 128),    // uses A
            makeVectorMem(Opcode::VLoad, 2, 128, 0x1000, 1),// indep B
        },
        p);
    // Load A [1,129), done 181. Load B slips: port free at 129,
    // dispatches at 129, start 130, done 310. Add dispatches at 181,
    // done 318. Without slip, B waits for the add's dispatch at 181,
    // dispatches at 182 and finishes at 183+52+128 = 363.
    EXPECT_EQ(s.cycles, 318u);
    EXPECT_EQ(s.decoupledSlips, 1u);

    const SimStats inOrder =
        runStream({makeVectorMem(Opcode::VLoad, 0, 128, 0x0, 1),
                   makeVectorArith(Opcode::VAdd, 4, 0, 0, 128),
                   makeVectorMem(Opcode::VLoad, 2, 128, 0x1000, 1)},
                  MachineParams::reference());
    EXPECT_EQ(inOrder.cycles, 363u);
    EXPECT_EQ(inOrder.decoupledSlips, 0u);
}

TEST(Decoupled, RawDependentLoadDoesNotSlip)
{
    // The slipping candidate must not read a register written by a
    // skipped instruction. Here the store reads v4, produced by the
    // blocked add, so it cannot slip.
    MachineParams p = MachineParams::decoupledVector(4);
    const SimStats s = runStream(
        {
            makeVectorMem(Opcode::VLoad, 0, 128, 0x0, 1),
            makeVectorArith(Opcode::VAdd, 4, 0, 0, 128),
            makeVectorMem(Opcode::VStore, 4, 128, 0x1000, 1),
        },
        p);
    EXPECT_EQ(s.decoupledSlips, 0u);
}

TEST(Decoupled, MemoryStaysOrdered)
{
    // A store may not slip past an earlier (blocked) load: memory
    // operations remain ordered among themselves.
    MachineParams p = MachineParams::decoupledVector(4);
    p.loadPorts = 1;
    const SimStats s = runStream(
        {
            makeVectorMem(Opcode::VLoad, 0, 128, 0x0, 1),   // bus busy
            makeVectorMem(Opcode::VLoad, 2, 128, 0x1000, 1),// waits
            makeVectorMem(Opcode::VStore, 4, 128, 0x2000, 1),
        },
        p);
    EXPECT_EQ(s.decoupledSlips, 0u);
}

TEST(Decoupled, NothingPassesABranch)
{
    MachineParams p = MachineParams::decoupledVector(4);
    const SimStats s = runStream(
        {
            makeVectorMem(Opcode::VLoad, 0, 128, 0x0, 1),
            makeVectorArith(Opcode::VAdd, 4, 0, 0, 128),
            makeScalar(Opcode::SBranch, noReg, 0),
            makeVectorMem(Opcode::VLoad, 2, 128, 0x1000, 1),
        },
        p);
    // The post-branch load is never even fetched into the window
    // before the branch resolves, so no slip happens.
    EXPECT_EQ(s.decoupledSlips, 0u);
}

TEST(Decoupled, WawWithSkippedInstructionBlocksSlip)
{
    // The candidate load writes v4, which the skipped add also
    // writes: WAW, no slip.
    MachineParams p = MachineParams::decoupledVector(4);
    const SimStats s = runStream(
        {
            makeVectorMem(Opcode::VLoad, 0, 128, 0x0, 1),
            makeVectorArith(Opcode::VAdd, 4, 0, 0, 128),
            makeVectorMem(Opcode::VLoad, 4, 128, 0x1000, 1),
        },
        p);
    EXPECT_EQ(s.decoupledSlips, 0u);
}

TEST(Decoupled, HelpsBaselineOnRealWorkloads)
{
    // The HPCA-2'96 result: decoupling reduces baseline time even at
    // realistic latencies — but (the paper's point) it cannot saturate
    // the memory port the way multithreading does.
    ExperimentEngine engine(EngineOptions{1});
    const std::vector<std::string> jobs = {"flo52", "tomcatv", "trfd",
                                           "bdna"};
    MachineParams base = MachineParams::reference();
    MachineParams dva = MachineParams::decoupledVector(4);
    MachineParams mth = MachineParams::multithreaded(3);

    const SimStats sBase =
        engine.run(RunSpec::jobQueue(jobs, base, 2e-5)).stats;
    const SimStats sDva =
        engine.run(RunSpec::jobQueue(jobs, dva, 2e-5)).stats;
    const SimStats sMth =
        engine.run(RunSpec::jobQueue(jobs, mth, 2e-5)).stats;

    EXPECT_LT(sDva.cycles, sBase.cycles);
    EXPECT_GT(sDva.decoupledSlips, 0u);
    EXPECT_GT(sMth.memPortOccupation(), sDva.memPortOccupation());
}

TEST(Decoupled, ComposesWithMultithreading)
{
    ExperimentEngine engine(EngineOptions{1});
    const std::vector<std::string> jobs = {"flo52", "tomcatv", "trfd",
                                           "bdna"};
    MachineParams mth = MachineParams::multithreaded(2);
    MachineParams both = mth;
    both.decoupleDepth = 4;
    EXPECT_LE(engine.run(RunSpec::jobQueue(jobs, both, 2e-5)).stats.cycles,
              engine.run(RunSpec::jobQueue(jobs, mth, 2e-5)).stats.cycles);
}

TEST(Decoupled, WorkInvariant)
{
    ExperimentEngine engine(EngineOptions{1});
    const std::vector<std::string> jobs = {"flo52", "trfd"};
    TraceStats expected;
    for (const auto &name : jobs)
        expected += engine.programStats(name, 2e-5);
    const SimStats s =
        engine
            .run(RunSpec::jobQueue(jobs, MachineParams::decoupledVector(8),
                                   2e-5))
            .stats;
    EXPECT_EQ(s.dispatches, expected.totalInstructions());
    EXPECT_EQ(s.memRequests, expected.memoryRequests);
}

TEST(Decoupled, TruncatedRunRespectsBudgetWithWindow)
{
    std::vector<Instruction> instrs;
    for (int i = 0; i < 20; ++i)
        instrs.push_back(makeScalar(Opcode::SAddInt, 1, 0));
    VectorSource src("trunc", instrs);
    VectorSim sim(MachineParams::decoupledVector(4));
    const SimStats s = sim.runSingle(src, 7);
    EXPECT_EQ(s.dispatches, 7u);
}

// ---------------------------------------------------------------------
// RunSpec extension axes (memPorts / renameDepth / decoupleDepth)
// ---------------------------------------------------------------------

TEST(RunSpecExt, CanonicalRoundTripAndKeyStability)
{
    const RunSpec spec =
        RunSpec::jobQueue({"flo52", "tomcatv"},
                          MachineParams::multithreaded(2), 1e-4)
            .withExtensions(3, 4, 2);
    const std::string canonical = spec.canonical();
    EXPECT_NE(canonical.find(";ports=3;"), std::string::npos);
    EXPECT_NE(canonical.find(";rename=4;"), std::string::npos);
    EXPECT_NE(canonical.find(";decouple=2;"), std::string::npos);
    const RunSpec parsed = RunSpec::parse(canonical);
    EXPECT_EQ(parsed, spec);
    EXPECT_EQ(parsed.key(), spec.key());
    EXPECT_EQ(parsed.memPorts, 3);
    EXPECT_EQ(parsed.renameDepth, 4);
    EXPECT_EQ(parsed.decoupleDepth, 2);
    EXPECT_EQ(parsed.canonical(), canonical);
}

TEST(RunSpecExt, AxesNeverAlias)
{
    // Every axis is part of the canonical string (= the cache and
    // store key): specs differing only in an axis never collide,
    // even when the axis folds to the same effective machine (the
    // Convex ports=1 override equals the reference default).
    const RunSpec base =
        RunSpec::single("flo52", MachineParams::reference());
    const RunSpec ports = base.withExtensions(1, 0, 0);
    const RunSpec rename = base.withExtensions(0, 1, 0);
    const RunSpec decouple = base.withExtensions(0, 0, 1);
    EXPECT_NE(base.canonical(), ports.canonical());
    EXPECT_NE(base.canonical(), rename.canonical());
    EXPECT_NE(base.canonical(), decouple.canonical());
    EXPECT_NE(ports.canonical(), rename.canonical());
    EXPECT_NE(rename.canonical(), decouple.canonical());
    EXPECT_NE(base.key(), ports.key());
    EXPECT_NE(base.key(), rename.key());
    EXPECT_NE(base.key(), decouple.key());
}

TEST(RunSpecExt, OldFiveFieldFormatRejected)
{
    // The pre-extension 5-field serialization must fail loudly, not
    // decode with silently-defaulted axes.
    ScopedFatalAsException scope;
    const std::string old =
        "mode=single;scale=0.0001;max=0;programs=flo52;machine=" +
        MachineParams::reference().canonical();
    EXPECT_THROW(RunSpec::parse(old), FatalError);
}

TEST(RunSpecExt, RangeValidation)
{
    ScopedFatalAsException scope;
    const RunSpec base =
        RunSpec::single("flo52", MachineParams::reference());
    EXPECT_THROW(base.withExtensions(6, 0, 0), FatalError);
    EXPECT_THROW(base.withExtensions(-1, 0, 0), FatalError);
    EXPECT_THROW(base.withExtensions(0, 9, 0), FatalError);
    EXPECT_THROW(base.withExtensions(0, 0, 17), FatalError);
}

TEST(RunSpecExt, EffectiveParamsFoldsAxes)
{
    const RunSpec spec =
        RunSpec::jobQueue({"flo52"}, MachineParams::multithreaded(2))
            .withExtensions(3, 4, 5);
    const MachineParams p = spec.effectiveParams();
    EXPECT_EQ(p.loadPorts, 2);  // Cray split: N-1 load + 1 store
    EXPECT_EQ(p.storePorts, 1);
    EXPECT_EQ(p.renameDepth, 4);
    EXPECT_EQ(p.decoupleDepth, 5);
    // The declarative spec is untouched by the fold.
    EXPECT_EQ(spec.params.loadPorts, 1);
    EXPECT_EQ(spec.params.storePorts, 0);
    EXPECT_EQ(spec.params.renameDepth, 0);

    // ports=1 is the Convex unified port; 0 inherits the machine's.
    const RunSpec convex =
        RunSpec::single("flo52", MachineParams::reference())
            .withExtensions(1, 0, 0);
    EXPECT_EQ(convex.effectiveParams().loadPorts, 1);
    EXPECT_EQ(convex.effectiveParams().storePorts, 0);
    const RunSpec inherit =
        RunSpec::single("flo52", MachineParams::crayStyle(2));
    EXPECT_EQ(inherit.effectiveParams().loadPorts, 2);
    EXPECT_EQ(inherit.effectiveParams().storePorts, 1);
}

TEST(RunSpecExt, InfiniteAndBoundedRenamingExclusive)
{
    ScopedFatalAsException scope;
    MachineParams p = MachineParams::reference();
    p.renaming = true;
    const RunSpec spec = RunSpec::single("flo52", p);
    EXPECT_THROW(spec.withExtensions(0, 4, 0), FatalError);
}

TEST(RunSpecExt, ReferenceSpecPreservesAxes)
{
    // The derived reference machine keeps the extension overrides:
    // an ext sweep's speedups compare against the single-context
    // machine with the same extension.
    const RunSpec spec =
        RunSpec::jobQueue({"flo52"}, MachineParams::multithreaded(4))
            .withExtensions(3, 0, 4);
    const MachineParams ref = referenceMachineOf(spec.effectiveParams());
    EXPECT_EQ(ref.contexts, 1);
    EXPECT_EQ(ref.loadPorts, 2);
    EXPECT_EQ(ref.storePorts, 1);
    EXPECT_EQ(ref.decoupleDepth, 4);
}

// ---------------------------------------------------------------------
// Bounded renaming (MachineParams::renameDepth)
// ---------------------------------------------------------------------

TEST(BoundedRenaming, OneSpareMatchesInfiniteOnSingleWaw)
{
    // One WAW hazard needs one spare register: a pool of 1 behaves
    // exactly like the infinite pool (cycles 138, see
    // Renaming.RemovesWawStall).
    MachineParams p = MachineParams::reference();
    p.renameDepth = 1;
    const SimStats s = runStream(
        {
            makeVectorArith(Opcode::VAdd, 2, 0, 0, 128),
            makeVectorArith(Opcode::VAdd, 2, 4, 4, 128),
        },
        p);
    EXPECT_EQ(s.cycles, 138u);
}

TEST(BoundedRenaming, OneSpareRemovesWarStall)
{
    MachineParams p = MachineParams::reference();
    p.renameDepth = 1;
    const SimStats s = runStream(
        {
            makeVectorArith(Opcode::VAdd, 2, 0, 0, 128),
            makeVectorMem(Opcode::VLoad, 0, 128, 0x0, 1),
        },
        p);
    EXPECT_EQ(s.cycles, 182u);  // same as Renaming.RemovesWarStall
}

TEST(BoundedRenaming, ExhaustedPoolSitsBetweenNoneAndInfinite)
{
    // Three back-to-back WAW writers to v2 want two simultaneous
    // renames; a pool of 1 must serialize on the recycled slot, so
    // it can never beat the infinite pool nor lose to no renaming.
    const std::vector<Instruction> stream = {
        makeVectorArith(Opcode::VAdd, 2, 0, 0, 128),
        makeVectorArith(Opcode::VAdd, 2, 4, 4, 128),
        makeVectorArith(Opcode::VAdd, 2, 6, 6, 128),
    };
    MachineParams none = MachineParams::reference();
    MachineParams one = MachineParams::reference();
    one.renameDepth = 1;
    MachineParams inf = MachineParams::reference();
    inf.renaming = true;
    const uint64_t noneCycles = runStream(stream, none).cycles;
    const uint64_t oneCycles = runStream(stream, one).cycles;
    const uint64_t infCycles = runStream(stream, inf).cycles;
    EXPECT_LE(infCycles, oneCycles);
    EXPECT_LE(oneCycles, noneCycles);
    EXPECT_LT(oneCycles, noneCycles);  // one spare still helps
}

TEST(BoundedRenaming, SteppedAndEventKernelsAgree)
{
    // The bounded-rename wakeup predicate must be exact: a late wake
    // in the event kernel would break bit-identity with the stepped
    // reference.
    const std::vector<Instruction> stream = {
        makeVectorArith(Opcode::VAdd, 2, 0, 0, 128),
        makeVectorArith(Opcode::VAdd, 2, 4, 4, 128),
        makeVectorArith(Opcode::VAdd, 2, 6, 6, 128),
        makeVectorMem(Opcode::VLoad, 2, 128, 0x0, 1),
        makeVectorArith(Opcode::VMul, 4, 2, 6, 128),
    };
    for (const int depth : {1, 2, 4}) {
        MachineParams p = MachineParams::reference();
        p.renameDepth = depth;
        VectorSource steppedSrc("bounded", stream);
        VectorSim stepped(p, SimKernel::Stepped);
        VectorSource eventSrc("bounded", stream);
        VectorSim event(p, SimKernel::Event);
        EXPECT_EQ(stepped.runSingle(steppedSrc).cycles,
                  event.runSingle(eventSrc).cycles)
            << "depth " << depth;
    }
}

TEST(BoundedRenaming, DepthFourMatchesInfiniteOnRealWorkloads)
{
    // The generator's 8-register bodies never hold more than four
    // renames at once, so a 4-deep pool reproduces the infinite
    // pool's cycle counts exactly on the suite.
    ExperimentEngine engine(EngineOptions{1});
    const std::vector<std::string> jobs = {"flo52", "tomcatv", "trfd",
                                           "dyfesm"};
    for (int c : {1, 2}) {
        MachineParams bounded = MachineParams::multithreaded(c);
        bounded.renameDepth = 4;
        MachineParams inf = MachineParams::multithreaded(c);
        inf.renaming = true;
        EXPECT_EQ(
            engine.run(RunSpec::jobQueue(jobs, bounded, 2e-5)).stats.cycles,
            engine.run(RunSpec::jobQueue(jobs, inf, 2e-5)).stats.cycles)
            << c << " contexts";
    }
}

} // namespace
} // namespace mtv
