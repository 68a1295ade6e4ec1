/**
 * @file
 * Tests for the fast-lane kernel (SimKernel::Batched, the engine's
 * default): bit-identity of its results against event-kernel runs and
 * across worker counts (the invariant tests/test_golden.cc pins with
 * digests; here pinned field-for-field with the stats codec), a
 * seeded differential against the stepped kernel on random programs
 * and random machines of every shape, and the in-place stream
 * contract: every machine shape reads its streams in place, a run
 * holds its stream only while it lasts, and every fetched operand is
 * checked as the event kernel does.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/api/engine.hh"
#include "src/common/logging.hh"
#include "src/core/sim_error.hh"
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

/** A fast-lane-eligible source over a stream the test holds; counts
 *  the instructions read through next() instead of in place. */
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
        ++nextCalls_;
        if (pos_ >= stream_->size())
            return false;
        out = (*stream_)[pos_++];
        return true;
    }

    uint64_t nextCalls() const { return nextCalls_; }

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
    uint64_t nextCalls_ = 0;
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
    // (the fast lane's wide build).
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

TEST(BatchKernel, EveryMachineShapeReadsTheStreamInPlace)
{
    // Each shape runs on the fast lane: a run that fell back to the
    // event kernel would fetch through next().
    MachineParams plain = MachineParams::multithreaded(2);
    MachineParams wideDecode = plain;
    wideDecode.decodeWidth = 2;
    MachineParams decoupled = plain;
    decoupled.decoupleDepth = 4;
    MachineParams renamed = plain;
    renamed.renameDepth = 4;
    for (const MachineParams &params :
         {plain, wideDecode, decoupled, renamed,
          MachineParams::fujitsuDualScalar()}) {
        SCOPED_TRACE(params.canonical());
        std::vector<std::unique_ptr<SharedSource>> jobs;
        std::vector<InstructionSource *> raw;
        for (const char *name : {"flo52", "tomcatv", "trfd"}) {
            jobs.push_back(std::make_unique<SharedSource>(
                makeProgram(name, testScale)->instructions()));
            raw.push_back(jobs.back().get());
        }
        const SimStats batched =
            VectorSim(params, SimKernel::Batched).runJobQueue(raw);
        for (const auto &job : jobs)
            EXPECT_EQ(job->nextCalls(), 0u);
        expectIdenticalStats(
            batched,
            VectorSim(params, SimKernel::Stepped).runJobQueue(raw));
    }
}

/**
 * A seeded source of random programs and random valid machines for
 * the kernel differential. Programs mix every instruction class over
 * a small register pool, so RAW/WAW/WAR hazards, bank-port conflicts
 * and exhausted rename pools are common; machines vary every axis
 * the fast lane's two builds branch on.
 */
class RandomCase
{
  public:
    explicit RandomCase(uint64_t seed) : rng_(seed) {}

    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return rng_() % n; }

    bool chance(unsigned percent) { return below(100) < percent; }

    std::vector<Instruction>
    program()
    {
        static const Opcode scalarOps[] = {
            Opcode::SAddInt, Opcode::SAddFp, Opcode::SLogic,
            Opcode::SMulInt, Opcode::SMulFp, Opcode::SDivInt,
            Opcode::SDivFp,  Opcode::SSqrt,  Opcode::SMove,
            Opcode::SetVL,   Opcode::SetVS};
        static const Opcode arithOps[] = {Opcode::VAdd, Opcode::VLogic,
                                          Opcode::VMul, Opcode::VDiv,
                                          Opcode::VSqrt};
        static const Opcode memOps[] = {Opcode::VLoad, Opcode::VGather,
                                        Opcode::VStore, Opcode::VScatter};
        static const int32_t strides[] = {1, 1, 2, 3, 8, 64, -1, 0};
        std::vector<Instruction> code(4 + below(120));
        for (Instruction &inst : code) {
            const uint64_t kind = below(100);
            if (kind < 20) {
                const Opcode op = scalarOps[below(std::size(scalarOps))];
                const uint8_t dst = maybe(sreg());
                const uint8_t srcA = maybe(sreg());
                inst = makeScalar(op, dst, srcA, maybe(sreg()));
            } else if (kind < 28) {
                const Opcode op =
                    chance(50) ? Opcode::SLoad : Opcode::SStore;
                const uint8_t reg = sreg();
                inst = makeScalarMem(op, reg, address());
            } else if (kind < 34) {
                inst = makeScalar(Opcode::SBranch, noReg, maybe(sreg()));
            } else if (kind < 60) {
                const Opcode op = arithOps[below(std::size(arithOps))];
                const uint8_t dst = vreg();
                const uint8_t srcA = vreg();
                const uint8_t srcB = maybe(vreg());
                inst = makeVectorArith(op, dst, srcA, srcB, vl());
            } else if (kind < 66) {
                const uint8_t dst = sreg();
                const uint8_t src = vreg();
                inst = makeVectorArith(Opcode::VReduce, dst, src, noReg,
                                       vl());
            } else {
                const Opcode op = memOps[below(std::size(memOps))];
                const uint8_t reg = vreg();
                const uint16_t length = vl();
                const uint64_t addr = address();
                inst = makeVectorMem(op, reg, length, addr,
                                     strides[below(std::size(strides))]);
            }
        }
        return code;
    }

    MachineParams
    machine()
    {
        static const SchedPolicy policies[] = {SchedPolicy::UnfairLowest,
                                               SchedPolicy::RoundRobin,
                                               SchedPolicy::FairLru};
        MachineParams p;
        p.contexts = 1 + static_cast<int>(below(4));
        p.sched = policies[below(std::size(policies))];
        p.decodeWidth = 1 + static_cast<int>(below(p.contexts));
        p.dualScalar = p.contexts > 1 && chance(20);
        p.decoupleDepth = chance(50) ? 0 : static_cast<int>(below(17));
        switch (below(3)) {
          case 0: break;
          case 1: p.renameDepth = static_cast<int>(below(9)); break;
          default: p.renaming = true; break;
        }
        p.loadPorts = 1 + static_cast<int>(below(chance(60) ? 1 : 4));
        p.storePorts = chance(60) ? 0 : static_cast<int>(below(5));
        p.memLatency = 1 + static_cast<int>(below(chance(50) ? 20 : 150));
        p.readXbar = 1 + static_cast<int>(below(3));
        p.writeXbar = 1 + static_cast<int>(below(3));
        p.vectorStartup = static_cast<int>(below(4));
        p.branchStall = static_cast<int>(below(5));
        p.modelBankPorts = chance(75);
        p.loadChaining = chance(30);
        p.bankedMemory = chance(25);
        p.memBanks = 1 << below(7);
        p.bankBusyCycles = 1 + static_cast<int>(below(12));
        p.validate();
        return p;
    }

  private:
    uint8_t
    vreg()
    {
        return static_cast<uint8_t>(below(chance(70) ? 4 : numVRegs));
    }

    uint8_t
    sreg()
    {
        return static_cast<uint8_t>(
            below(chance(70) ? 4 : numSRegs + numARegs));
    }

    uint8_t maybe(uint8_t reg) { return chance(15) ? noReg : reg; }

    uint16_t
    vl()
    {
        static const uint16_t common[] = {1, 8, 64, maxVectorLength};
        return chance(50) ? common[below(std::size(common))]
                          : static_cast<uint16_t>(1 + below(maxVectorLength));
    }

    uint64_t address() { return 0x1000 + 8 * below(4096); }

    std::mt19937_64 rng_;
};

TEST(BatchKernel, RandomProgramsOnRandomMachinesMatchStepped)
{
    // Single runs, with and without a fetch budget inside the program,
    // and job queues. Group runs stay out: under the unfair policy a
    // restarting companion can hold FU2 while context 0 waits on a
    // v.div, and such a run never ends, under every kernel.
    for (uint64_t seed = 1; seed <= 1000; ++seed) {
        RandomCase random(seed);
        const MachineParams params = random.machine();
        enum Mode { Single, Truncated, JobQueue };
        const auto mode = static_cast<Mode>(random.below(3));
        std::vector<std::unique_ptr<SharedSource>> sources;
        std::vector<InstructionSource *> raw;
        const uint64_t count = mode == JobQueue ? 1 + random.below(6) : 1;
        size_t length = 0;
        for (uint64_t i = 0; i < count; ++i) {
            const std::vector<Instruction> code = random.program();
            length = code.size();
            sources.push_back(std::make_unique<SharedSource>(code));
            raw.push_back(sources.back().get());
        }
        const uint64_t budget =
            mode == Truncated ? 1 + random.below(length) : 0;
        // The stats blob, or the wedged machine's report.
        const auto outcome = [&](SimKernel kernel) -> std::string {
            VectorSim sim(params, kernel);
            try {
                return serializeSimStats(
                    mode == JobQueue ? sim.runJobQueue(raw)
                                     : sim.runSingle(*raw[0], budget));
            } catch (const SimError &e) {
                return std::string("SimError: ") + e.what();
            }
        };
        const std::string stepped = outcome(SimKernel::Stepped);
        ASSERT_TRUE(outcome(SimKernel::Batched) == stepped)
            << "seed " << seed << ", mode " << mode << ", budget "
            << budget << ", machine " << params.canonical();
    }
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
