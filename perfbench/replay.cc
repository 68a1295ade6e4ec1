#include "perfbench/replay.hh"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <thread>

#include "src/api/engine.hh"
#include "src/api/sweep.hh"
#include "src/common/logging.hh"
#include "src/core/batch_kernel.hh"
#include "src/fleet/ring.hh"
#include "src/service/protocol.hh"
#include "src/store/result_store.hh"
#include "src/store/stats_codec.hh"
#include "src/workload/suite.hh"

namespace mtvbench
{

namespace
{

using mtv::RunResult;
using mtv::RunSpec;
using mtv::SimStats;

/** Cache-served passes the replay times per engine. */
constexpr int cachePasses = 10;
/** Repetitions of the expansion, codec and wire measurements. */
constexpr int expandReps = 20;
constexpr int codecReps = 5;
constexpr int routeReps = 200;

/** The span a layer call on this thread nests under (0 = root). */
thread_local uint32_t currentParent = 0;

/** A ResultStore with a span around every call the engine makes. */
class TimedBackend : public mtv::ResultBackend
{
  public:
    TimedBackend(std::shared_ptr<mtv::ResultStore> store, Tracer &tracer)
        : store_(std::move(store)), tracer_(tracer)
    {
    }

    std::shared_ptr<const SimStats>
    load(const std::string &key) override
    {
        ScopedSpan span(&tracer_, "store.load", currentParent);
        return store_->load(key);
    }

    mtv::StoredRecord
    loadRecord(const std::string &key) override
    {
        ScopedSpan span(&tracer_, "store.loadRecord", currentParent);
        return store_->loadRecord(key);
    }

    void
    store(const std::string &key, const SimStats &stats) override
    {
        {
            ScopedSpan span(&tracer_, "store.append", currentParent);
            store_->store(key, stats);
        }
        std::lock_guard<std::mutex> lock(mutex_);
        appended_.insert(key);
    }

    size_t size() const override { return store_->size(); }

    /** Keys the engine simulated and wrote through. */
    std::vector<std::string>
    appended() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return {appended_.begin(), appended_.end()};
    }

  private:
    std::shared_ptr<mtv::ResultStore> store_;
    Tracer &tracer_;
    mutable std::mutex mutex_;
    std::set<std::string> appended_;
};

/** Machines the batched kernel's fast lane covers (DESIGN.md §9.2);
 *  the others fall back to the generic per-point path. */
bool
fastLaneShape(const mtv::MachineParams &params)
{
    return params.decodeWidth == 1 && !params.dualScalar &&
           params.decoupleDepth == 0 && params.renameDepth == 0;
}

/** Simulate @p spec the way the engine does on @p kernel. */
SimStats
simulate(const RunSpec &spec, mtv::SimKernel kernel, Tracer &tracer)
{
    std::vector<std::unique_ptr<mtv::SyntheticProgram>> sources;
    std::vector<mtv::InstructionSource *> raw;
    {
        ScopedSpan span(&tracer, "workload.makeProgram");
        for (const std::string &name : spec.programs) {
            sources.push_back(mtv::makeProgram(name, spec.scale));
            raw.push_back(sources.back().get());
        }
    }
    ScopedSpan span(&tracer, "core.simulate");
    if (kernel == mtv::SimKernel::Batched) {
        mtv::BatchPoint point;
        point.params = spec.effectiveParams();
        point.kind = spec.mode == mtv::SpecMode::Single
                         ? mtv::BatchPoint::Kind::Single
                     : spec.mode == mtv::SpecMode::Group
                         ? mtv::BatchPoint::Kind::Group
                         : mtv::BatchPoint::Kind::JobQueue;
        point.sources = raw;
        point.maxInstructions = spec.maxInstructions;
        return mtv::takeBatchResult(mtv::runBatch({point}), 0);
    }
    mtv::VectorSim sim(spec.effectiveParams(), kernel);
    switch (spec.mode) {
      case mtv::SpecMode::Single:
        return sim.runSingle(*raw[0], spec.maxInstructions);
      case mtv::SpecMode::Group:
        return sim.runGroup(raw);
      case mtv::SpecMode::JobQueue:
        break;
    }
    return sim.runJobQueue(raw);
}

double
sumOf(const std::map<std::string, Tracer::Totals> &totals,
      const std::string &name, double unitNs)
{
    auto it = totals.find(name);
    return it == totals.end()
               ? 0.0
               : static_cast<double>(it->second.totalNs) / unitNs;
}

/** What one engine of the replay produced. */
struct EngineRun
{
    std::vector<RunResult> results;
    std::vector<std::string> simulatedKeys;
    std::shared_ptr<mtv::ResultStore> store;
};

/** Serve @p specs through an engine over the store at @p dir: one
 *  pass as the daemon would (all submitted, then collected), then
 *  cachePasses closed-loop passes timed per submit(). */
EngineRun
engineReplay(const std::string &dir, const std::vector<RunSpec> &specs,
             const ReplayPlan &plan, Tracer &tracer)
{
    EngineRun run;
    {
        ScopedSpan span(&tracer, "store.open");
        run.store = std::make_shared<mtv::ResultStore>(dir);
    }
    auto backend = std::make_shared<TimedBackend>(run.store, tracer);
    mtv::EngineOptions options;
    options.workers = plan.workers;
    options.kernel = plan.kernel;
    options.backend = backend;
    options.canonicalSerializer = [&tracer](const SimStats &stats) {
        ScopedSpan span(&tracer, "store.encode", currentParent);
        return mtv::serializeSimStats(stats);
    };
    mtv::ExperimentEngine engine(options);

    {
        ScopedSpan span(&tracer, "api.pass");
        std::vector<std::future<RunResult>> futures;
        futures.reserve(specs.size());
        for (const RunSpec &spec : specs)
            futures.push_back(engine.submit(spec));
        for (auto &future : futures)
            run.results.push_back(future.get());
    }
    for (int pass = 0; pass < cachePasses; ++pass) {
        for (const RunSpec &spec : specs) {
            const uint32_t id = tracer.open("api.submit", 0, 0, nowNs());
            currentParent = id;
            RunResult result = engine.submit(spec).get();
            tracer.finish(id, nowNs());
            currentParent = 0;
            if (!result.cached)
                throw std::runtime_error("replay: " + spec.canonical() +
                                         " was not cache-served");
        }
    }
    run.simulatedKeys = backend->appended();
    return run;
}

/** Re-simulate every key the engine simulated, directly on the
 *  kernel, and check each blob against the stored one. */
void
coreReplay(const std::vector<std::string> &keys,
           const std::shared_ptr<mtv::ResultStore> &store,
           const ReplayPlan &plan, Tracer &tracer,
           std::map<std::string, double> *metrics)
{
    // What makeProgram() pays the first time a process asks for a
    // program at a scale (later calls share the stream).
    std::set<std::pair<std::string, double>> programs;
    for (const std::string &key : keys) {
        const RunSpec spec = RunSpec::parse(key);
        for (const std::string &name : spec.programs)
            programs.emplace(name, spec.scale);
    }
    uint64_t instructions = 0;
    for (const auto &[name, scale] : programs) {
        ScopedSpan span(&tracer, "workload.generate");
        mtv::SyntheticProgram program(mtv::findProgram(name), scale);
        instructions += program.count();
    }

    std::atomic<size_t> next{0};
    std::atomic<uint64_t> cycles{0};
    std::atomic<uint64_t> fallbacks{0};
    std::mutex errorMutex;
    std::string firstError;
    auto worker = [&] {
        mtv::ScopedFatalAsException fatalThrows;
        for (size_t i = next++; i < keys.size(); i = next++) {
            try {
                const RunSpec spec = RunSpec::parse(keys[i]);
                const SimStats stats = simulate(spec, plan.kernel, tracer);
                cycles += stats.cycles;
                if (!fastLaneShape(spec.effectiveParams()))
                    ++fallbacks;
                const mtv::StoredRecord stored = store->loadRecord(keys[i]);
                const std::string blob = mtv::serializeSimStats(stats);
                if (!stored.blob || *stored.blob != blob)
                    throw std::runtime_error("replayed " + keys[i] +
                                             " differs from the engine's");
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (firstError.empty())
                    firstError = e.what();
            }
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < std::max(plan.workers, 1); ++t)
        threads.emplace_back(worker);
    for (std::thread &thread : threads)
        thread.join();
    if (!firstError.empty())
        throw std::runtime_error(firstError);

    const auto totals = tracer.totals();
    const double simS = sumOf(totals, "core.simulate", 1e9);
    (*metrics)["workload.gen_ms"] =
        sumOf(totals, "workload.generate", 1e6) +
        sumOf(totals, "workload.makeProgram", 1e6);
    (*metrics)["workload.instructions"] = static_cast<double>(instructions);
    (*metrics)["core.sim_s"] = simS;
    (*metrics)["core.sim_mcycles"] = static_cast<double>(cycles) / 1e6;
    (*metrics)["core.mcycles_per_s"] =
        simS > 0 ? static_cast<double>(cycles) / simS / 1e6 : 0.0;
    (*metrics)["core.fallback_points"] = static_cast<double>(fallbacks);
}

/** Encode, decode and stream every result through the codec and both
 *  wire encoders, over a socketpair LineChannel. */
void
wireReplay(const std::vector<RunResult> &results, Tracer &tracer)
{
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        throw std::runtime_error("socketpair failed");
    mtv::LineChannel writer(fds[0]);
    mtv::LineChannel reader(fds[1]);
    std::string frame;
    std::string payload;
    std::string error;
    mtv::ResultFrame decoded;
    for (int rep = 0; rep < codecReps; ++rep) {
        for (size_t i = 0; i < results.size(); ++i) {
            const RunResult &result = results[i];
            std::string blob;
            {
                ScopedSpan span(&tracer, "store.encode");
                blob = mtv::serializeSimStats(result.stats);
            }
            SimStats back;
            {
                ScopedSpan span(&tracer, "store.decode");
                back = mtv::deserializeSimStats(blob);
            }
            frame.clear();
            {
                ScopedSpan span(&tracer, "service.appendResultFrame");
                mtv::appendResultFrame(&frame, result, 1, i, &blob);
            }
            {
                ScopedSpan span(&tracer, "service.writeBytes");
                writer.writeBytes(frame);
            }
            mtv::LineChannel::MessageKind kind;
            {
                ScopedSpan span(&tracer, "service.readMessage.local");
                kind = reader.readMessage(&payload);
            }
            std::string json;
            {
                ScopedSpan span(&tracer, "service.resultToJson");
                json = mtv::resultToJson(result, 1, i, true, &blob).dump();
            }
            if (rep > 0)
                continue;
            if (mtv::serializeSimStats(back) != blob)
                throw std::runtime_error("stats codec does not round trip");
            if (kind != mtv::LineChannel::MessageKind::Frame ||
                !mtv::decodeResultFrame(payload, &decoded, &error) ||
                decoded.blob != blob || decoded.seq != i)
                throw std::runtime_error("result frame does not round trip");
        }
    }
}

} // namespace

bool
runReplay(const ReplayPlan &plan, Tracer &tracer,
          std::map<std::string, double> *metrics, std::string *error)
{
    mtv::ScopedFatalAsException fatalThrows;
    try {
        // Expansion, as the daemon does per sweep request.
        std::vector<RunSpec> specs;
        for (int rep = 0; rep < expandReps; ++rep) {
            for (int family : plan.order) {
                mtv::SweepRequest request;
                request.family = familyNames[family];
                request.scale = scaleValues[plan.variant];
                ScopedSpan span(&tracer, "api.expandSweep");
                mtv::SweepBuilder builder = mtv::expandSweep(request);
                if (rep == 0) {
                    for (RunSpec &spec : builder.take())
                        specs.push_back(std::move(spec));
                }
            }
        }
        if (specs.size() != passPoints())
            throw std::runtime_error("pass expanded to an unexpected size");

        // Routing, as the fleet router does per point.
        const mtv::HashRing ring(plan.ring);
        std::vector<std::string> keys;
        for (const RunSpec &spec : specs)
            keys.push_back(spec.canonical());
        size_t owners = 0;
        const uint64_t routeStart = nowNs();
        for (int rep = 0; rep < routeReps; ++rep) {
            for (const std::string &key : keys)
                owners += ring.nodeFor(key);
        }
        const uint64_t routeEnd = nowNs();
        tracer.record("fleet.nodeFor", 0, 0, routeStart, routeEnd);
        volatile size_t routeSink = owners;
        (void)routeSink;
        (*metrics)["fleet.route_ns"] =
            static_cast<double>(routeEnd - routeStart) /
            static_cast<double>(routeReps * keys.size());

        // The engine path, then the kernel behind every point the
        // engine simulated.
        const EngineRun run = engineReplay(plan.storeDir, specs, plan, tracer);
        if (plan.path == ReplayPath::Warm && !run.simulatedKeys.empty())
            throw std::runtime_error(
                "the filled store does not cover the pass");
        if (!run.simulatedKeys.empty())
            coreReplay(run.simulatedKeys, run.store, plan, tracer, metrics);
        wireReplay(run.results, tracer);

        const auto totals = tracer.totals();
        (*metrics)["api.expand_us"] =
            meanSpan(totals, "api.expandSweep", 1e3);
        (*metrics)["api.submit_us"] = meanSpan(totals, "api.submit", 1e3);
        (*metrics)["store.open_ms"] = meanSpan(totals, "store.open", 1e6);
        (*metrics)["store.load_us"] =
            meanSpan(totals, "store.loadRecord", 1e3);
        (*metrics)["store.decode_us"] =
            meanSpan(totals, "store.decode", 1e3);
        (*metrics)["store.append_us"] =
            meanSpan(totals, "store.append", 1e3);
        (*metrics)["store.encode_us"] =
            meanSpan(totals, "store.encode", 1e3);
        (*metrics)["store.records"] =
            static_cast<double>(run.store->size());
        (*metrics)["service.frame_encode_us"] =
            meanSpan(totals, "service.appendResultFrame", 1e3);
        (*metrics)["service.json_encode_us"] =
            meanSpan(totals, "service.resultToJson", 1e3);
        for (const char *name :
             {"workload.gen_ms", "workload.instructions", "core.sim_s",
              "core.sim_mcycles", "core.mcycles_per_s",
              "core.fallback_points"}) {
            metrics->emplace(name, 0.0);
        }
        return true;
    } catch (const std::exception &e) {
        *error = e.what();
        return false;
    }
}

} // namespace mtvbench
