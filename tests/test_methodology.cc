/**
 * @file
 * Tests of the paper's methodology as the engine runs it: grouping
 * enumeration, the section 4.1 speedup accounting, the section 7 job
 * queue, the IDEAL bound, per-program averaging and the figure
 * latency lists.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "src/api/engine.hh"
#include "src/api/sweep.hh"
#include "src/workload/suite.hh"

namespace mtv
{
namespace
{

constexpr double testScale = 2e-5;

TEST(Groupings, TwoThreadShape)
{
    const auto groups = groupingsFor("trfd", 2);
    ASSERT_EQ(groups.size(), 5u);
    for (const auto &g : groups) {
        ASSERT_EQ(g.size(), 2u);
        EXPECT_EQ(g[0], "trfd");
    }
}

TEST(Groupings, ThreeThreadShape)
{
    const auto groups = groupingsFor("tf", 3);  // abbrev canonicalizes
    ASSERT_EQ(groups.size(), 10u);
    for (const auto &g : groups) {
        ASSERT_EQ(g.size(), 3u);
        EXPECT_EQ(g[0], "flo52");
    }
}

TEST(Groupings, FourThreadShape)
{
    const auto groups = groupingsFor("swm256", 4);
    ASSERT_EQ(groups.size(), 10u);
    for (const auto &g : groups) {
        ASSERT_EQ(g.size(), 4u);
        EXPECT_EQ(g[0], "swm256");
        EXPECT_EQ(g[3], "nasa7");  // column 4 has one entry
    }
}

TEST(GroupingsDeath, InvalidContextCount)
{
    EXPECT_EXIT({ groupingsFor("swm256", 5); },
                testing::ExitedWithCode(1), "2..4");
}

TEST(Methodology, TruncatedReferenceShorterThanFull)
{
    // The F_i terms of the speedup formula: a reference run cut off
    // after k dispatches.
    ExperimentEngine engine(EngineOptions{1});
    const MachineParams p = MachineParams::reference();
    const SimStats full =
        engine.run(RunSpec::reference("trfd", p, testScale)).stats;
    const SimStats half =
        engine
            .run(RunSpec::reference("trfd", p, testScale,
                                    full.dispatches / 2))
            .stats;
    EXPECT_LT(half.cycles, full.cycles);
    EXPECT_EQ(half.dispatches, full.dispatches / 2);
}

TEST(Methodology, GroupSpeedupIsPositiveAndSane)
{
    ExperimentEngine engine(EngineOptions{1});
    const RunResult r = engine.run(RunSpec::group(
        {"swm256", "hydro2d"}, MachineParams::multithreaded(2),
        testScale));
    EXPECT_GT(r.speedup, 0.9);
    EXPECT_LT(r.speedup, 2.0);  // 2 threads cannot exceed 2x
    EXPECT_GE(r.mthOccupation, r.refOccupation);
    EXPECT_GT(r.mthVopc, 0.0);
}

TEST(Methodology, GroupAllowsDuplicatePrograms)
{
    // The paper groups HYDRO2D with itself; the engine must create
    // distinct instances.
    ExperimentEngine engine(EngineOptions{1});
    const RunResult r = engine.run(RunSpec::group(
        {"hydro2d", "hydro2d"}, MachineParams::multithreaded(2),
        testScale));
    EXPECT_GT(r.speedup, 0.9);
}

TEST(Methodology, SpeedupAccountsFractionalRuns)
{
    // With a long thread-0 program and a short companion, the
    // companion restarts; the speedup must include those extra runs,
    // pushing it meaningfully above 1.
    ExperimentEngine engine(EngineOptions{1});
    const RunResult r = engine.run(RunSpec::group(
        {"trfd", "flo52"}, MachineParams::multithreaded(2), testScale));
    EXPECT_GT(r.stats.threads[1].runsCompleted +
                  (r.stats.threads[1].instructionsThisRun > 0 ? 1 : 0),
              0u);
    EXPECT_GT(r.speedup, 1.0);
}

TEST(Methodology, JobQueueMatchesSuiteOrder)
{
    ExperimentEngine engine(EngineOptions{1});
    const SimStats s =
        engine
            .run(RunSpec::jobQueue({"flo52", "trfd", "dyfesm"},
                                   MachineParams::multithreaded(2),
                                   testScale))
            .stats;
    ASSERT_EQ(s.jobs.size(), 3u);
    EXPECT_EQ(s.jobs[0].program, "flo52");
    EXPECT_EQ(s.jobs[1].program, "trfd");
    EXPECT_EQ(s.jobs[2].program, "dyfesm");
}

TEST(Methodology, ProgramStatsMemoized)
{
    ExperimentEngine engine(EngineOptions{1});
    const TraceStats &a = engine.programStats("bdna", testScale);
    const TraceStats &b = engine.programStats("bdna", testScale);
    EXPECT_EQ(&a, &b);
    EXPECT_GT(a.vectorInstructions, 0u);
}

TEST(Methodology, IdealBoundBelowAnyRealRun)
{
    ExperimentEngine engine(EngineOptions{1});
    const std::vector<std::string> jobs = {"flo52", "trfd", "dyfesm"};
    const IdealBound ideal = engine.idealTime(jobs, testScale);
    const SimStats s =
        engine
            .run(RunSpec::jobQueue(jobs, MachineParams::multithreaded(4),
                                   testScale))
            .stats;
    EXPECT_LE(ideal.bound, s.cycles);
    EXPECT_GT(ideal.bound, 0u);
}

TEST(Methodology, IdealIsLatencyIndependent)
{
    ExperimentEngine engine(EngineOptions{1});
    const IdealBound b = engine.idealTime(jobQueueOrder(), testScale);
    EXPECT_GT(b.addressBusCycles, 0u);
    // For this memory-bound suite the address bus binds.
    EXPECT_STREQ(b.binding(), "address-bus");
}

TEST(Methodology, AverageOfRunsAllGroupings)
{
    ExperimentEngine engine(EngineOptions{1});
    SweepBuilder sweep(testScale);
    sweep.addGroupings("dyfesm", 2, MachineParams::multithreaded(2));
    const GroupAverages avg =
        averageOf(sweep.slices().front(), engine.runAll(sweep.specs()));
    EXPECT_EQ(avg.runs, 5);
    EXPECT_EQ(avg.program, "dyfesm");
    EXPECT_GT(avg.speedup, 0.9);
    EXPECT_GT(avg.mthOccupation, 0.0);
    EXPECT_LE(avg.mthOccupation, 1.0);
}

TEST(Methodology, LatencyListsAreSorted)
{
    const auto &f4 = figure4Latencies();
    EXPECT_EQ(f4.size(), 4u);
    EXPECT_TRUE(std::is_sorted(f4.begin(), f4.end()));
    const auto &sweep = sweepLatencies();
    EXPECT_TRUE(std::is_sorted(sweep.begin(), sweep.end()));
    EXPECT_EQ(sweep.front(), 1);
    EXPECT_EQ(sweep.back(), 100);
}

} // namespace
} // namespace mtv
