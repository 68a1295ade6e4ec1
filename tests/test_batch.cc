/**
 * @file
 * Tests for the fast-lane kernel (SimKernel::Batched, the engine's
 * default) through the engine: bit-identity of its results against
 * event-kernel runs and across worker counts (the invariant
 * tests/test_golden.cc pins with digests; here pinned field-for-field
 * with the stats codec), the fallback counter, and the in-place
 * stream contract: a run holds its stream only while it lasts and
 * checks every fetched operand as the event kernel does.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/api/engine.hh"
#include "src/api/sweep.hh"
#include "src/common/logging.hh"
#include "src/obs/metrics.hh"
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

/** A fast-lane-eligible source over a stream the test holds. */
class SharedSource : public InstructionSource
{
  public:
    explicit SharedSource(std::vector<Instruction> code)
        : stream_(std::make_shared<const std::vector<Instruction>>(
              std::move(code)))
    {}

    bool
    next(Instruction &out) override
    {
        if (pos_ >= stream_->size())
            return false;
        out = (*stream_)[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

    const std::string &name() const override { return name_; }

    std::shared_ptr<const std::vector<Instruction>>
    sharedStream() const override
    {
        return stream_;
    }

  private:
    std::string name_ = "shared";
    std::shared_ptr<const std::vector<Instruction>> stream_;
    size_t pos_ = 0;
};

/** What fatal() reported while running @p source on @p kernel. */
std::string
fatalMessage(SimKernel kernel, SharedSource &source)
{
    ScopedFatalAsException scope;
    try {
        VectorSim(MachineParams::reference(), kernel).runSingle(source);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "no error";
}

/** engine_kernel_fallback_total by reason, as registered now. */
std::map<std::string, uint64_t>
fallbackCounts()
{
    std::map<std::string, uint64_t> counts;
    for (const char *reason :
         {"decodeWidth", "dualScalar", "decoupleDepth", "renameDepth"}) {
        counts[reason] =
            MetricsRegistry::instance()
                .counter(std::string("engine_kernel_fallback_total"
                                     "{reason=\"") +
                         reason + "\"}")
                ->value();
    }
    return counts;
}

/** Fallback counts added by simulating @p family on a fresh engine. */
std::map<std::string, uint64_t>
fallbacksOfFamily(const std::string &family)
{
    SweepRequest request;
    request.family = family;
    request.scale = testScale;
    const auto specs = expandSweep(request).take();
    const auto before = fallbackCounts();
    ExperimentEngine engine(EngineOptions(2));
    engine.runAll(specs);
    auto added = fallbackCounts();
    for (auto &[reason, count] : added)
        count -= before.at(reason);
    return added;
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

    EngineOptions eventOptions(1);
    eventOptions.kernel = SimKernel::Event;
    ExperimentEngine reference(eventOptions);
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

TEST(BatchEngine, BatchedIsTheDefaultKernel)
{
    EXPECT_EQ(EngineOptions{}.kernel, SimKernel::Batched);
    EXPECT_EQ(ExperimentEngine(EngineOptions(1)).kernel(),
              SimKernel::Batched);
}

TEST(BatchEngine, FallbackCounterNamesTheFirstFailingShapeRule)
{
    // ext-decoupled: 16 job-queue specs, one kernel call each; the 8
    // decoupled machines fall back. The grouping sweep runs every
    // point (and every reference term) on the fast lane.
    const auto decoupled = fallbacksOfFamily("ext-decoupled");
    EXPECT_EQ(decoupled.at("decoupleDepth"), 8u);
    EXPECT_EQ(decoupled.at("decodeWidth"), 0u);
    EXPECT_EQ(decoupled.at("dualScalar"), 0u);
    EXPECT_EQ(decoupled.at("renameDepth"), 0u);
    for (const auto &[reason, count] : fallbacksOfFamily("suite-grouping"))
        EXPECT_EQ(count, 0u) << reason;

    MachineParams wide = MachineParams::reference();
    wide.decodeWidth = 2;
    wide.dualScalar = true;
    EXPECT_EQ(fallbackReason(wide), FallbackReason::DecodeWidth);
    EXPECT_EQ(fallbackReason(MachineParams::reference()),
              FallbackReason::None);
}

TEST(BatchKernel, RunHoldsNoReferenceToItsStream)
{
    // The fast lane reads the stream in place and caches nothing
    // across points: after the run only the source holds it.
    SharedSource source(makeProgram("flo52", testScale)->instructions());
    const auto stream = source.sharedStream();
    const long held = stream.use_count();
    const SimStats batched =
        VectorSim(MachineParams::reference(), SimKernel::Batched)
            .runSingle(source);
    EXPECT_EQ(stream.use_count(), held);
    expectIdenticalStats(
        batched, VectorSim(MachineParams::reference()).runSingle(source));
}

TEST(BatchKernel, FetchChecksOperandsLikeTheEventKernel)
{
    const auto prefix = [] {
        return std::vector<Instruction>{
            makeScalar(Opcode::SAddInt, 1, 2, 3),
            makeVectorMem(Opcode::VLoad, 0, 64, 0x1000),
            makeVectorArith(Opcode::VAdd, 1, 0, 0, 64)};
    };

    std::vector<Instruction> badReg = prefix();
    badReg.push_back(makeVectorArith(Opcode::VMul, 2, 0, 1, 64));
    badReg.back().dst = numVRegs;
    SharedSource regSource(badReg);
    const std::string regError = fatalMessage(SimKernel::Event, regSource);
    EXPECT_NE(regError.find("out-of-range register 8"), std::string::npos)
        << regError;
    EXPECT_EQ(fatalMessage(SimKernel::Batched, regSource), regError);

    std::vector<Instruction> longVl = prefix();
    longVl.push_back(makeVectorArith(Opcode::VAdd, 2, 0, 1, 64));
    longVl.back().vl = maxVectorLength + 1;
    SharedSource vlSource(longVl);
    const std::string vlError = fatalMessage(SimKernel::Event, vlSource);
    EXPECT_NE(vlError.find("exceeds the maximum vector length"),
              std::string::npos)
        << vlError;
    EXPECT_EQ(fatalMessage(SimKernel::Batched, vlSource), vlError);
}

} // namespace
} // namespace mtv
