/**
 * @file
 * Property tests: invariants that must hold across the whole
 * (latency x contexts x policy) design space, checked with
 * parameterized sweeps on real (scaled-down) suite workloads.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "src/api/engine.hh"
#include "src/trace/analyzer.hh"

namespace mtv
{
namespace
{

constexpr double testScale = 2e-5;

/** Small representative slice of the suite for sweep tests. */
const std::vector<std::string> &
sweepJobs()
{
    static const std::vector<std::string> jobs = {
        "flo52", "tomcatv", "trfd", "dyfesm", "bdna"};
    return jobs;
}

class MachineSweep
    : public testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    int latency() const { return std::get<0>(GetParam()); }
    int contexts() const { return std::get<1>(GetParam()); }

    MachineParams
    params() const
    {
        MachineParams p = MachineParams::multithreaded(contexts());
        p.memLatency = latency();
        return p;
    }

    /** The sweep jobs as one job queue on params(). */
    RunSpec
    jobQueue() const
    {
        return RunSpec::jobQueue(sweepJobs(), params(), testScale);
    }
};

TEST_P(MachineSweep, MetricsStayInTheoreticalRanges)
{
    ExperimentEngine engine(EngineOptions{1});
    const SimStats s = engine.run(jobQueue()).stats;
    EXPECT_GT(s.cycles, 0u);
    // One address port: occupation in [0, 1].
    EXPECT_GE(s.memPortOccupation(), 0.0);
    EXPECT_LE(s.memPortOccupation(), 1.0);
    // Two arithmetic pipes: VOPC in [0, 2].
    EXPECT_GE(s.vopc(), 0.0);
    EXPECT_LE(s.vopc(), 2.0);
    EXPECT_GE(s.memPortIdleFraction(), 0.0);
    EXPECT_LE(s.memPortIdleFraction(), 1.0);
}

TEST_P(MachineSweep, StateHistogramIsAPartitionOfTime)
{
    ExperimentEngine engine(EngineOptions{1});
    const SimStats s = engine.run(jobQueue()).stats;
    uint64_t sum = 0;
    for (const auto v : s.stateHist)
        sum += v;
    EXPECT_EQ(sum, s.cycles);
    // Unit busy-cycle counters must agree with the histogram margins.
    uint64_t ldBusy = 0;
    uint64_t fu1Busy = 0;
    uint64_t fu2Busy = 0;
    for (int i = 0; i < numFuStates; ++i) {
        if (i & 1)
            ldBusy += s.stateHist[i];
        if (i & 2)
            fu1Busy += s.stateHist[i];
        if (i & 4)
            fu2Busy += s.stateHist[i];
    }
    EXPECT_EQ(ldBusy, s.ldBusyCycles);
    EXPECT_EQ(fu1Busy, s.fu1BusyCycles);
    EXPECT_EQ(fu2Busy, s.fu2BusyCycles);
}

TEST_P(MachineSweep, WorkIsInvariantAcrossMachines)
{
    // The same jobs produce the same instruction/request/element-op
    // totals no matter the machine (only the timing changes).
    ExperimentEngine engine(EngineOptions{1});
    TraceStats expected;
    for (const auto &name : sweepJobs())
        expected += engine.programStats(name, testScale);

    const SimStats s = engine.run(jobQueue()).stats;
    EXPECT_EQ(s.dispatches, expected.totalInstructions());
    EXPECT_EQ(s.memRequests, expected.memoryRequests);
    EXPECT_EQ(s.vecOpsFu1 + s.vecOpsFu2,
              expected.vectorArithOperations);
    // FU2 executes at least the ops only it can run.
    EXPECT_GE(s.vecOpsFu2, expected.fu2OnlyOperations);
}

TEST_P(MachineSweep, NeverBelowIdealBound)
{
    ExperimentEngine engine(EngineOptions{1});
    const SimStats s = engine.run(jobQueue()).stats;
    const IdealBound ideal = engine.idealTime(sweepJobs(), testScale);
    EXPECT_GE(s.cycles, ideal.bound);
}

TEST_P(MachineSweep, MultithreadingDoesNotLoseToSequential)
{
    ExperimentEngine engine(EngineOptions{1});
    const SimStats s = engine.run(jobQueue()).stats;
    const uint64_t sequential = engine.sequentialReferenceCycles(
        sweepJobs(), params(), testScale);
    // Interleaving can add small tail effects; allow 2%.
    EXPECT_LE(static_cast<double>(s.cycles), 1.02 * sequential);
}

TEST_P(MachineSweep, ThreadAccountingIsConsistent)
{
    ExperimentEngine engine(EngineOptions{1});
    const SimStats s = engine.run(jobQueue()).stats;
    uint64_t perThread = 0;
    for (const auto &t : s.threads) {
        perThread += t.instructions;
        EXPECT_EQ(t.instructions,
                  t.scalarInstructions + t.vectorInstructions);
        EXPECT_LE(t.lastCompletion, s.cycles);
    }
    EXPECT_EQ(perThread, s.dispatches);
}

INSTANTIATE_TEST_SUITE_P(
    LatencyByContexts, MachineSweep,
    testing::Combine(testing::Values(1, 20, 50, 100),
                     testing::Values(1, 2, 3, 4)),
    [](const testing::TestParamInfo<std::tuple<int, int>> &info) {
        return "lat" + std::to_string(std::get<0>(info.param)) + "_ctx" +
               std::to_string(std::get<1>(info.param));
    });

class PolicySweep : public testing::TestWithParam<SchedPolicy>
{
};

TEST_P(PolicySweep, AllPoliciesPreserveWorkAndRanges)
{
    ExperimentEngine engine(EngineOptions{1});
    MachineParams p = MachineParams::multithreaded(3);
    p.sched = GetParam();
    const SimStats s =
        engine.run(RunSpec::jobQueue(sweepJobs(), p, testScale)).stats;
    TraceStats expected;
    for (const auto &name : sweepJobs())
        expected += engine.programStats(name, testScale);
    EXPECT_EQ(s.dispatches, expected.totalInstructions());
    EXPECT_LE(s.memPortOccupation(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicySweep,
    testing::Values(SchedPolicy::UnfairLowest, SchedPolicy::RoundRobin,
                    SchedPolicy::FairLru),
    [](const testing::TestParamInfo<SchedPolicy> &info) {
        std::string name = schedPolicyName(info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

class XbarSweep : public testing::TestWithParam<int>
{
};

TEST_P(XbarSweep, CrossbarCostHasBoundedImpact)
{
    // Paper section 8: +1 cycle on both crossbars costs well under 1%
    // at default latency. Allow 3% at test scale (short runs amplify
    // tail effects).
    ExperimentEngine engine(EngineOptions{1});
    MachineParams p = MachineParams::multithreaded(GetParam());
    const uint64_t base =
        engine.run(RunSpec::jobQueue(sweepJobs(), p, testScale))
            .stats.cycles;
    p.readXbar = 3;
    p.writeXbar = 3;
    const uint64_t slow =
        engine.run(RunSpec::jobQueue(sweepJobs(), p, testScale))
            .stats.cycles;
    EXPECT_LE(static_cast<double>(slow), 1.03 * base);
}

INSTANTIATE_TEST_SUITE_P(Contexts, XbarSweep, testing::Values(2, 3, 4),
                         [](const testing::TestParamInfo<int> &info) {
                             return "ctx" + std::to_string(info.param);
                         });

/**
 * The same invariants must survive every extension machine: Cray
 * multi-port, renaming, decoupling, banked memory, and combinations.
 */
class ExtensionSweep : public testing::TestWithParam<int>
{
  protected:
    MachineParams
    params() const
    {
        switch (GetParam()) {
          case 0:
            return MachineParams::crayStyle(2);
          case 1: {
            MachineParams p = MachineParams::crayStyle(4);
            p.decodeWidth = 2;
            return p;
          }
          case 2: {
            MachineParams p = MachineParams::multithreaded(3);
            p.renaming = true;
            return p;
          }
          case 3:
            return MachineParams::decoupledVector(4);
          case 4: {
            MachineParams p = MachineParams::multithreaded(2);
            p.decoupleDepth = 8;
            p.renaming = true;
            return p;
          }
          case 5: {
            MachineParams p = MachineParams::crayStyle(3);
            p.bankedMemory = true;
            p.decoupleDepth = 2;
            return p;
          }
          default: {
            MachineParams p = MachineParams::fujitsuDualScalar();
            p.renaming = true;
            return p;
          }
        }
    }
};

TEST_P(ExtensionSweep, InvariantsHoldOnExtensionMachines)
{
    ExperimentEngine engine(EngineOptions{1});
    const MachineParams p = params();
    const SimStats s =
        engine.run(RunSpec::jobQueue(sweepJobs(), p, testScale)).stats;

    TraceStats expected;
    for (const auto &name : sweepJobs())
        expected += engine.programStats(name, testScale);
    EXPECT_EQ(s.dispatches, expected.totalInstructions());
    EXPECT_EQ(s.memRequests, expected.memoryRequests);
    EXPECT_EQ(s.vecOpsFu1 + s.vecOpsFu2,
              expected.vectorArithOperations);

    EXPECT_GE(s.memPortOccupation(), 0.0);
    EXPECT_LE(s.memPortOccupation(), 1.0);
    EXPECT_LE(s.vopc(), 2.0);

    uint64_t histSum = 0;
    for (const auto v : s.stateHist)
        histSum += v;
    EXPECT_EQ(histSum, s.cycles);

    // Extension machines add capability, never remove it: no run may
    // be slower than the plain sequential reference (small tail
    // margin allowed).
    MachineParams seq = referenceMachineOf(p);
    seq.renaming = false;
    seq.decoupleDepth = 0;
    seq.loadPorts = 1;
    seq.storePorts = 0;
    seq.bankedMemory = false;
    // Banked machines compare against a banked sequential reference.
    if (p.bankedMemory)
        seq.bankedMemory = true;
    const uint64_t sequential =
        engine.sequentialReferenceCycles(sweepJobs(), seq, testScale);
    EXPECT_LE(static_cast<double>(s.cycles), 1.02 * sequential);
}

TEST_P(ExtensionSweep, DeterministicOnExtensionMachines)
{
    ExperimentEngine engine(EngineOptions{1});
    const RunSpec spec =
        RunSpec::jobQueue(sweepJobs(), params(), testScale);
    const SimStats a = engine.run(spec).stats;
    const SimStats b = engine.run(spec).stats;
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stateHist, b.stateHist);
    EXPECT_EQ(a.decoupledSlips, b.decoupledSlips);
}

std::string
extensionSweepName(const testing::TestParamInfo<int> &info)
{
    static const char *names[] = {
        "cray2", "cray4wide", "renaming3", "decoupled",
        "decoupledRenaming2", "crayBankedDecoupled",
        "fujitsuRenaming"};
    return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(Machines, ExtensionSweep,
                         testing::Range(0, 7), extensionSweepName);

} // namespace
} // namespace mtv
