/**
 * @file
 * Tests for the fast-lane kernel (SimKernel::Batched) through the
 * engine: bit-identity of its results against event-kernel runs and
 * across worker counts (the invariant tests/test_golden.cc pins with
 * digests; here pinned field-for-field with the stats codec), and the
 * bound on its process-wide decode cache.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/api/engine.hh"
#include "src/store/stats_codec.hh"
#include "src/workload/suite.hh"

namespace mtv
{
namespace
{

constexpr double testScale = 2e-5;

RunSpec
floAtLatency(int latency, uint64_t maxInstructions = 0)
{
    MachineParams p = MachineParams::reference();
    p.memLatency = latency;
    return RunSpec::single("flo52", p, testScale, maxInstructions);
}

EngineOptions
batchedOptions(int workers = 1)
{
    EngineOptions options(workers);
    options.kernel = SimKernel::Batched;
    return options;
}

/** Bit-identical stats via the lossless store codec. */
void
expectIdenticalStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(serializeSimStats(a), serializeSimStats(b));
}

TEST(BatchEngine, RunAllMixedFamiliesMatchEventReference)
{
    // Two interleaved families plus the awkward members: a
    // fetch-truncated point (cache-exempt) and a dual-scalar machine
    // (outside the fast lane, simulated through the Event fallback).
    MachineParams dyf1 = MachineParams::reference();
    dyf1.memLatency = 1;
    MachineParams dyf20 = MachineParams::reference();
    dyf20.memLatency = 20;
    const std::vector<RunSpec> specs = {
        floAtLatency(1),
        RunSpec::single("dyfesm", dyf1, testScale),
        floAtLatency(20),
        RunSpec::single("dyfesm", dyf20, testScale),
        floAtLatency(40, 800),
        RunSpec::single("flo52", MachineParams::fujitsuDualScalar(),
                        testScale),
        floAtLatency(60),
        floAtLatency(100),
    };

    ExperimentEngine batched(batchedOptions());
    const auto results = batched.runAll(specs);

    ExperimentEngine reference;  // event kernel, spec at a time
    ASSERT_EQ(results.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(results[i].spec, specs[i]);
        expectIdenticalStats(results[i].stats,
                             reference.run(specs[i]).stats);
    }
}

TEST(BatchEngine, FourWorkersBitIdenticalToOne)
{
    std::vector<RunSpec> specs;
    for (const int latency : {1, 20, 40, 50, 60, 80, 100})
        specs.push_back(floAtLatency(latency));

    ExperimentEngine wide(batchedOptions(4));
    ExperimentEngine narrow(batchedOptions(1));
    const auto a = wide.runAll(specs);
    const auto b = narrow.runAll(specs);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        expectIdenticalStats(a[i].stats, b[i].stats);
}

TEST(BatchKernel, DecodeCacheReleasesStreamsUnderScaleChurn)
{
    // A long-lived daemon fed a new scale per request must not pin
    // every stream it ever decoded: once the makeProgram() stream
    // cache and the decode cache have both cycled past a stream,
    // only its outside holders keep it alive.
    const MachineParams params = MachineParams::reference();
    const auto runAt = [&params](double scale) {
        VectorSim sim(params, SimKernel::Batched);
        sim.runSingle(*makeProgram("flo52", scale));
    };
    const auto held = makeProgram("flo52", testScale)->sharedStream();
    ASSERT_TRUE(held);
    runAt(testScale);
    for (int i = 1; i <= 130; ++i)
        runAt(testScale * (1.0 + 0.001 * i));
    EXPECT_EQ(held.use_count(), 1);
}

} // namespace
} // namespace mtv
