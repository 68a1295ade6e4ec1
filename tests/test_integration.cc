/**
 * @file
 * Integration tests: miniature versions of the paper's headline
 * experiments, checking the qualitative results (who wins, in which
 * direction curves move) at reduced workload scale.
 */

#include <gtest/gtest.h>

#include "src/api/engine.hh"
#include "src/trace/trace_file.hh"
#include "src/workload/suite.hh"

#include <filesystem>

namespace mtv
{
namespace
{

constexpr double testScale = 2e-5;

TEST(Integration, MultithreadingSpeedsUpEveryProgram)
{
    // Mini Figure 6: every program must see speedup > 1 with 2
    // contexts at the default 50-cycle latency.
    ExperimentEngine engine(EngineOptions{1});
    for (const auto &spec : benchmarkSuite()) {
        const RunResult r = engine.run(
            RunSpec::group({spec.name, "hydro2d"},
                           MachineParams::multithreaded(2), testScale));
        EXPECT_GT(r.speedup, 1.0) << spec.name;
        EXPECT_LT(r.speedup, 2.0) << spec.name;
    }
}

TEST(Integration, OccupationRisesWithContexts)
{
    // Mini Figure 7: memory-port occupation grows with context count
    // and beats the sequential reference.
    ExperimentEngine engine(EngineOptions{1});
    const auto &jobs = jobQueueOrder();
    double prev = 0.0;
    for (int c = 2; c <= 4; ++c) {
        MachineParams p = MachineParams::multithreaded(c);
        const SimStats s =
            engine.run(RunSpec::jobQueue(jobs, p, testScale)).stats;
        const double occ = s.memPortOccupation();
        EXPECT_GT(occ, prev * 0.98) << c << " contexts";
        prev = occ;
    }
    // 3 contexts should already be near saturation (paper: ~90%).
    MachineParams p3 = MachineParams::multithreaded(3);
    const double occ3 =
        engine.run(RunSpec::jobQueue(jobs, p3, testScale))
            .stats.memPortOccupation();
    EXPECT_GT(occ3, 0.75);
}

TEST(Integration, VopcImprovesWithMultithreading)
{
    // Mini Figure 8.
    ExperimentEngine engine(EngineOptions{1});
    const RunResult r = engine.run(
        RunSpec::group({"swm256", "arc2d", "flo52"},
                       MachineParams::multithreaded(3), testScale));
    EXPECT_GT(r.mthVopc, r.refVopc);
    EXPECT_LE(r.mthVopc, 2.0);
}

TEST(Integration, MultithreadedMachineToleratesLatency)
{
    // Mini Figure 10: the 2-context machine degrades far less from
    // latency 1 to latency 100 than the baseline does.
    ExperimentEngine engine(EngineOptions{1});
    const auto &jobs = jobQueueOrder();

    auto timeAt = [&](int contexts, int lat) {
        MachineParams p = MachineParams::multithreaded(contexts);
        p.memLatency = lat;
        if (contexts == 1)
            return static_cast<double>(
                engine.sequentialReferenceCycles(jobs, p, testScale));
        return static_cast<double>(
            engine.run(RunSpec::jobQueue(jobs, p, testScale)).stats.cycles);
    };

    const double baseDegradation = timeAt(1, 100) / timeAt(1, 1);
    const double mthDegradation = timeAt(2, 100) / timeAt(2, 1);
    EXPECT_GT(baseDegradation, 1.2);
    // Compare the *excess* over 1.0: multithreading must absorb well
    // over half of the baseline's latency-induced slowdown.
    EXPECT_LT(mthDegradation - 1.0, (baseDegradation - 1.0) * 0.6);
    // Even at latency 1 multithreading must win (paper: 1.15).
    EXPECT_GT(timeAt(1, 1) / timeAt(2, 1), 1.05);
}

TEST(Integration, FujitsuStyleBeatsSharedDecoderAtLowLatency)
{
    // Mini Figure 12: two scalar units help most when memory is fast,
    // and the advantage shrinks as latency grows.
    ExperimentEngine engine(EngineOptions{1});
    const auto &jobs = jobQueueOrder();

    auto ratioAt = [&](int lat) {
        MachineParams mth = MachineParams::multithreaded(2);
        mth.memLatency = lat;
        MachineParams fuj = MachineParams::fujitsuDualScalar();
        fuj.memLatency = lat;
        const double mthT = static_cast<double>(
            engine.run(RunSpec::jobQueue(jobs, mth, testScale)).stats.cycles);
        const double fujT = static_cast<double>(
            engine.run(RunSpec::jobQueue(jobs, fuj, testScale)).stats.cycles);
        return mthT / fujT;  // >1 means Fujitsu wins
    };

    const double low = ratioAt(1);
    const double high = ratioAt(100);
    EXPECT_GT(low, 1.0);
    EXPECT_LT(high, low);  // advantage diminishes with latency
}

TEST(Integration, TraceReplayIsBitIdenticalToLiveGeneration)
{
    // The simulator must not be able to tell a recorded trace from
    // the live generator (the Dixie property).
    auto live = makeProgram("bdna", testScale);

    const std::string path =
        (std::filesystem::temp_directory_path() / "bdna_test.mtv")
            .string();
    writeTrace(*live, path);
    TraceReader replay(path);

    MachineParams p = MachineParams::reference();
    VectorSim simA(p);
    const SimStats a = simA.runSingle(*live);
    VectorSim simB(p);
    const SimStats b = simB.runSingle(replay);

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.memRequests, b.memRequests);
    EXPECT_EQ(a.stateHist, b.stateHist);
    std::remove(path.c_str());
}

TEST(Integration, LoadChainingAblationHelpsBaselineMost)
{
    // Design-choice ablation: allowing load->FU chaining (which the
    // real machine lacked) must speed up the baseline; multithreading
    // already hides that latency, so its gain is smaller.
    ExperimentEngine engine(EngineOptions{1});
    const std::vector<std::string> jobs = {"flo52", "tomcatv", "trfd"};

    MachineParams base = MachineParams::reference();
    const double refNo = static_cast<double>(
        engine.sequentialReferenceCycles(jobs, base, testScale));
    base.loadChaining = true;
    const double refYes = static_cast<double>(
        engine.sequentialReferenceCycles(jobs, base, testScale));

    MachineParams mth = MachineParams::multithreaded(3);
    const double mthNo = static_cast<double>(
        engine.run(RunSpec::jobQueue(jobs, mth, testScale)).stats.cycles);
    mth.loadChaining = true;
    const double mthYes = static_cast<double>(
        engine.run(RunSpec::jobQueue(jobs, mth, testScale)).stats.cycles);

    EXPECT_LT(refYes, refNo);
    const double refGain = refNo / refYes;
    const double mthGain = mthNo / mthYes;
    EXPECT_GT(refGain, mthGain * 0.98);
}

TEST(Integration, JobQueueProfileCoversAllTenPrograms)
{
    // Mini Figure 9: all ten programs appear exactly once in the
    // profile and intervals nest inside the run.
    ExperimentEngine engine(EngineOptions{1});
    MachineParams p = MachineParams::multithreaded(2);
    const SimStats s =
        engine.run(RunSpec::jobQueue(jobQueueOrder(), p, testScale)).stats;
    ASSERT_EQ(s.jobs.size(), 10u);
    for (const auto &job : s.jobs) {
        EXPECT_LE(job.startCycle, job.endCycle);
        EXPECT_LE(job.endCycle, s.cycles);
        EXPECT_GE(job.context, 0);
        EXPECT_LT(job.context, 2);
    }
    EXPECT_EQ(s.jobs[0].program, "flo52");
}

} // namespace
} // namespace mtv
