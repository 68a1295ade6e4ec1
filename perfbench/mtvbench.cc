/**
 * @file
 * mtvbench — the repository's end-to-end benchmark client.
 *
 * Starts real mtvd processes and drives one closed-loop workload of
 * figure passes through them over a single binary-wire connection:
 *
 *   cold-figures   a fresh daemon with an empty store serves a pass
 *   warm-figures   a daemon over a copy of a filled store replays
 *                  passes from its memory cache
 *
 * A traced warm-figures run also replays through `mtvd --route` in
 * front of three one-worker nodes, for the fleet layer's numbers.
 *
 * Every request's digest is checked against a pinned value. With
 * --trace 0 it reports the end-to-end metrics, with --trace 1 the
 * per-layer metrics of a traced run (see README.md). The last line of
 * standard output is one JSON object; the exit status is nonzero when
 * any point failed.
 *
 * Usage:
 *   mtvbench --mtvd PATH --workdir DIR --outdir DIR --workload NAME
 *            --seed N --seconds S --trace 0|1
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "perfbench/bench.hh"
#include "perfbench/daemon.hh"
#include "perfbench/replay.hh"
#include "src/common/logging.hh"
#include "src/service/server.hh"

namespace fs = std::filesystem;

namespace mtvbench
{
namespace
{

/** Engine workers of a single daemon: fixed below the 4-CPU hosts the
 *  benchmark was tuned on, so the client has a core to itself. */
constexpr int nodeWorkers = 3;
/** Fleet nodes, one worker each. */
constexpr int fleetNodes = 3;
/** Daemon set-ups per run; setup_s is their median. */
constexpr int setupSamples = 15;
/** Cold first-point samples per run: four rotations of the leading
 *  family. */
constexpr size_t coldFirstPointSamples = 4 * passFamilies;
/** Unmeasured replay passes before timing starts. */
constexpr int warmupPasses = 100;
/** Span capacity of a traced run. */
constexpr size_t spanCapacity = 200000;
/** Spans one traced pass records: the pass, its requests, and one
 *  read per point or control line. */
constexpr size_t spansPerPass = 340;
/** Span capacity kept for the in-process replay (it records about
 *  20k spans on the cold path). */
constexpr size_t replaySpans = 50000;

struct Options
{
    std::string mtvd;
    std::string workdir;
    std::string outdir;
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
};

/** One metric of the output. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Samples of the measured phase, one entry per pass or set-up
 *  (cpuUsPerPoint and rssMb: per cold pass, or once per replay). */
struct Samples
{
    std::vector<double> setupS;
    /** Warm: the part of each set-up up to the answered ping and
     *  hello (cold set-ups end there). */
    std::vector<double> readyS;
    std::vector<double> cpuUsPerPoint;
    /** First points by leading family (see Bench::nextOrder()). */
    std::vector<double> firstPointMs[passFamilies];
    std::vector<double> passMs;
    std::vector<double> rssMb;
    // Traced run only.
    std::vector<double> tracedPassMs;
    std::vector<double> untracedPassMs;

    /** Mean over the leading families of each one's first point,
     *  taken by blockMinMedian(): the families' first specs differ up
     *  to fivefold, so one statistic over all of them would jump
     *  between families. */
    double
    firstPointMetric() const
    {
        double sum = 0;
        int families = 0;
        for (const std::vector<double> &samples : firstPointMs) {
            if (!samples.empty()) {
                sum += blockMinMedian(samples);
                ++families;
            }
        }
        return families ? sum / families : 0.0;
    }

    size_t
    firstPointCount() const
    {
        size_t count = 0;
        for (const std::vector<double> &samples : firstPointMs)
            count += samples.size();
        return count;
    }
};

/** What one warm replay measured: its samples and layer numbers. */
struct ReplayRun
{
    Samples samples;
    std::map<std::string, double> layer;
    /** The filled template stores, one per node. */
    std::vector<std::string> templates;
};

class Bench
{
  public:
    explicit Bench(Options options)
        : opt_(std::move(options)), rng_(opt_.seed),
          tracer_(opt_.trace ? spanCapacity : 0)
    {
        variant_ = static_cast<int>(rng_() % scaleVariants);
        lead_ = static_cast<int>(rng_() % passFamilies);
    }

    int run();

  private:
    // ----- workloads -----
    void coldFigures();
    void warmFigures();
    /** Fill template stores, set up over copies of them and replay
     *  passes from the memory cache for @p seconds: on one node, or
     *  through a router in front of fleetNodes nodes. @p traced
     *  alternates traced and untraced passes. */
    ReplayRun replayFigures(bool fleet, double seconds, bool traced);

    // ----- helpers -----
    std::vector<int> nextOrder();
    std::vector<std::string> nodeArgs(const std::string &socket,
                                      int workers,
                                      const std::string &store) const;
    std::unique_ptr<Daemon> spawn(const std::vector<std::string> &args,
                                  const std::string &socket);
    /** One pass with its outcome accounted; traced when asked. */
    PassOutcome pass(mtv::LineChannel &channel, bool traced);
    /** Replay passes until @p seconds elapse (at least one). */
    void replay(mtv::LineChannel &channel, double seconds, bool traced,
                Samples *samples, uint64_t *points, double *wallS);
    void failPoints(uint64_t points, const std::string &why);
    void check(bool ok, uint64_t points, const std::string &why);
    void checkFailureCounters(const Registry &before, const Registry &after,
                              uint64_t points);
    void stop(std::unique_ptr<Daemon> &daemon);
    void copyTree(const std::string &from, const std::string &to);
    /** @p templateDir: the store the engine starts from ("" = empty). */
    void inProcessReplay(ReplayPath path, const std::string &templateDir);
    void emit();

    Options opt_;
    std::mt19937_64 rng_;
    int variant_ = 1;
    int lead_ = 0;
    int lastLead_ = 0;
    Tracer tracer_;
    uint32_t passes_ = 0;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> errors_;
    Samples samples_;
    std::map<std::string, double> layer_;
    int logIndex_ = 0;
};

std::vector<int>
Bench::nextOrder()
{
    // The leading family rotates from pass to pass, so every family
    // leads equally often: on a cold daemon the first point's latency
    // is that of the leading family's first specs. The seed picks the
    // starting family and the order of the other five.
    std::vector<int> order(passFamilies);
    for (int i = 0; i < passFamilies; ++i)
        order[i] = (lead_ + i) % passFamilies;
    lead_ = (lead_ + 1) % passFamilies;
    for (int i = passFamilies - 1; i > 1; --i) {
        std::swap(order[i],
                  order[1 + rng_() % static_cast<uint64_t>(i)]);
    }
    return order;
}

std::vector<std::string>
Bench::nodeArgs(const std::string &socket, int workers,
                const std::string &store) const
{
    std::vector<std::string> args = {"--socket", socket, "--workers",
                                     std::to_string(workers)};
    if (!store.empty()) {
        args.push_back("--store");
        args.push_back(store);
    }
    return args;
}

std::unique_ptr<Daemon>
Bench::spawn(const std::vector<std::string> &args, const std::string &socket)
{
    return std::make_unique<Daemon>(
        opt_.mtvd, args, socket,
        "daemon-" + std::to_string(logIndex_++) + ".log");
}

void
Bench::failPoints(uint64_t points, const std::string &why)
{
    failed_ += std::min(points, attempted_ - failed_);
    if (errors_.size() < 16)
        errors_.push_back(why);
}

void
Bench::check(bool ok, uint64_t points, const std::string &why)
{
    if (!ok)
        failPoints(points, why);
}

PassOutcome
Bench::pass(mtv::LineChannel &channel, bool traced)
{
    const uint32_t passId = ++passes_;
    const std::vector<int> order = nextOrder();
    lastLead_ = order[0];
    PassOutcome outcome =
        runPass(channel, order, variant_,
                static_cast<uint64_t>(passId) * 8, traced ? &tracer_ : nullptr,
                passId);
    attempted_ += outcome.attempted;
    failed_ += outcome.failed();
    for (const std::string &error : outcome.errors) {
        if (errors_.size() < 16)
            errors_.push_back(error);
    }
    return outcome;
}

void
Bench::replay(mtv::LineChannel &channel, double seconds, bool traced,
              Samples *samples, uint64_t *points, double *wallS)
{
    *points = 0;
    const uint64_t startNs = nowNs();
    const uint64_t budgetNs = static_cast<uint64_t>(seconds * 1e9);
    for (uint64_t n = 0; n == 0 || nowNs() - startNs < budgetNs; ++n) {
        // A traced run alternates traced and untraced passes while
        // the span store has room; the two halves give the overhead.
        const bool paired =
            traced && tracer_.room() > replaySpans + 2 * spansPerPass;
        const bool tracedPass = paired && n % 2 == 1;
        const PassOutcome outcome = pass(channel, tracedPass);
        if (outcome.failed() > 0)
            break;
        *points += outcome.completed;
        samples->passMs.push_back(outcome.doneNs / 1e6);
        samples->firstPointMs[lastLead_].push_back(outcome.firstPointNs /
                                                   1e6);
        if (paired) {
            (tracedPass ? samples->tracedPassMs : samples->untracedPassMs)
                .push_back(outcome.doneNs / 1e6);
        }
    }
    *wallS = static_cast<double>(nowNs() - startNs) / 1e9;
}

void
Bench::checkFailureCounters(const Registry &before, const Registry &after,
                            uint64_t points)
{
    for (const char *name :
         {"engine_cancelled_runs_total", "store_dropped_records_total",
          "service_write_failures_total", "fleet_reroutes_total"}) {
        const double grown = after.counterSum(name) - before.counterSum(name);
        check(grown == 0 && after.counterSum(name) == 0, points,
              std::string(name) + " reads " +
                  std::to_string(after.counterSum(name)));
    }
}

void
Bench::stop(std::unique_ptr<Daemon> &daemon)
{
    if (!daemon)
        return;
    std::string error;
    if (!daemon->shutdown(&error))
        failPoints(0, error);
    daemon.reset();
}

void
Bench::copyTree(const std::string &from, const std::string &to)
{
    fs::remove_all(to);
    fs::copy(from, to, fs::copy_options::recursive);
}

// ---------------------------------------------------------------------
// cold-figures
// ---------------------------------------------------------------------

void
Bench::coldFigures()
{
    const std::string socket = "cold.sock";
    std::string error;
    // Warm-up: the first pass after idle runs markedly slower.
    {
        auto daemon = spawn(nodeArgs(socket, nodeWorkers, ""), socket);
        auto channel = connectReady(socket, 30, &error);
        if (!channel)
            throw std::runtime_error(error);
        pass(*channel, false);
        channel.reset();
        stop(daemon);
    }

    std::vector<double> hitRatio, simsPerPoint, laneWaitMs, stallMs,
        bytesPerPoint;
    const uint64_t startNs = nowNs();
    const uint64_t budgetNs = static_cast<uint64_t>(opt_.seconds * 1e9);
    for (int n = 0; n == 0 || nowNs() - startNs < budgetNs; ++n) {
        auto daemon = spawn(nodeArgs(socket, nodeWorkers, ""), socket);
        auto channel = connectReady(socket, 30, &error);
        if (!channel)
            throw std::runtime_error(error);
        samples_.setupS.push_back((nowNs() - daemon->spawnNs()) / 1e9);
        MetricsReading before, after;
        if (!readMetrics(*channel, &before, &error))
            throw std::runtime_error(error);
        const uint64_t bytesBefore = channel->bytesRead();
        const double cpuBefore = daemon->cpuSeconds();
        const bool traced = opt_.trace && n % 2 == 1;
        const PassOutcome outcome = pass(*channel, traced);
        const double cpuS = daemon->cpuSeconds() - cpuBefore;
        const uint64_t bytes = channel->bytesRead() - bytesBefore;
        if (!readMetrics(*channel, &after, &error))
            throw std::runtime_error(error);
        samples_.rssMb.push_back(daemon->peakRssMb());
        channel.reset();
        stop(daemon);
        if (outcome.failed() > 0)
            break;

        const Registry &a = after.own, &b = before.own;
        const double completed =
            a.counter("engine_points_completed_total") -
            b.counter("engine_points_completed_total");
        check(completed == passPoints(), passPoints(),
              "cold: engine_points_completed_total moved by " +
                  std::to_string(completed));
        checkFailureCounters(b, a, passPoints());

        const double points = outcome.completed;
        samples_.cpuUsPerPoint.push_back(cpuS * 1e6 / points);
        samples_.firstPointMs[lastLead_].push_back(outcome.firstPointNs /
                                                   1e6);
        samples_.passMs.push_back(outcome.doneNs / 1e6);
        if (opt_.trace) {
            (traced ? samples_.tracedPassMs : samples_.untracedPassMs)
                .push_back(outcome.doneNs / 1e6);
        }
        const double hits = a.counter("engine_cache_hits_total") -
                            b.counter("engine_cache_hits_total");
        const double misses = a.counter("engine_cache_misses_total") -
                              b.counter("engine_cache_misses_total");
        hitRatio.push_back(hits / std::max(hits + misses, 1.0));
        simsPerPoint.push_back(
            (a.counter("engine_points_simulated_total") -
             b.counter("engine_points_simulated_total")) /
            completed);
        const auto wait = a.histograms.count("engine_lane_wait_us")
                              ? a.histograms.at("engine_lane_wait_us")
                              : std::make_pair(0.0, 0.0);
        laneWaitMs.push_back(wait.second / std::max(wait.first, 1.0) / 1e3);
        stallMs.push_back((a.counter("service_write_stall_us_total") -
                           b.counter("service_write_stall_us_total")) /
                          1e3);
        bytesPerPoint.push_back(static_cast<double>(bytes) / points);
    }
    // More cold first points: probes send a pass to a fresh daemon and
    // hang up at its first point, until every family has led four
    // times. One sample per 4 s pass is too few; probes also add
    // set-up samples.
    while (samples_.firstPointCount() < coldFirstPointSamples) {
        auto daemon = spawn(nodeArgs(socket, nodeWorkers, ""), socket);
        auto channel = connectReady(socket, 30, &error);
        if (!channel)
            throw std::runtime_error(error);
        samples_.setupS.push_back((nowNs() - daemon->spawnNs()) / 1e9);
        const std::vector<int> order = nextOrder();
        const uint64_t firstNs =
            probeFirstPoint(*channel, order, variant_, 8);
        check(firstNs > 0, 0, "first-point probe failed");
        samples_.firstPointMs[order[0]].push_back(firstNs / 1e6);
        channel.reset();
        stop(daemon);
    }

    layer_["api.cache_hit_ratio"] = median(hitRatio);
    layer_["api.sims_per_point"] = median(simsPerPoint);
    layer_["api.lane_wait_ms"] = median(laneWaitMs);
    layer_["service.write_stall_ms"] = median(stallMs);
    layer_["service.bytes_per_point"] = median(bytesPerPoint);
    layer_["fleet.node_cpu_us_per_point"] = median(samples_.cpuUsPerPoint);
    layer_["fleet.router_cpu_us_per_point"] = 0.0;
    layer_["fleet.node_skew"] = 1.0;
    layer_["fleet.reroutes"] = 0.0;
    if (opt_.trace) {
        inProcessReplay(ReplayPath::Cold, "");
        layer_["api.worker_busy_ratio"] =
            layer_["core.sim_s"] /
            (nodeWorkers * median(samples_.passMs) / 1e3);
    }
}

// ---------------------------------------------------------------------
// warm-figures, and the fleet replay of its traced run
// ---------------------------------------------------------------------

/** The daemons serving one warm set-up. */
struct Serving
{
    std::vector<std::unique_ptr<Daemon>> nodes;
    std::unique_ptr<Daemon> router;  ///< fleet only
    std::unique_ptr<mtv::LineChannel> channel;
    uint64_t spawnNs = 0;

    double
    cpuSeconds(bool routerOnly) const
    {
        if (routerOnly)
            return router ? router->cpuSeconds() : 0.0;
        double sum = 0;
        for (const auto &node : nodes)
            sum += node->cpuSeconds();
        return sum;
    }

    double
    peakRssMb() const
    {
        double sum = router ? router->peakRssMb() : 0.0;
        for (const auto &node : nodes)
            sum += node->peakRssMb();
        return sum;
    }
};

ReplayRun
Bench::replayFigures(bool fleet, double seconds, bool traced)
{
    const int nodes = fleet ? fleetNodes : 1;
    const int workers = fleet ? 1 : nodeWorkers;
    const std::string mode = fleet ? "fleet" : "warm";
    ReplayRun out;
    Samples &samples = out.samples;
    std::map<std::string, double> &layer = out.layer;
    // Node endpoints stay the same strings from population through
    // every set-up: the router's ring is keyed on them.
    std::vector<std::string> sockets, stores;
    for (int i = 0; i < nodes; ++i) {
        sockets.push_back(fleet ? "n" + std::to_string(i) + ".sock"
                                : "warm.sock");
        out.templates.push_back(mode + "-template-" + std::to_string(i));
        stores.push_back(mode + "-store-" + std::to_string(i));
    }
    std::string error;

    auto start = [&](const std::vector<std::string> &dirs) {
        Serving serving;
        serving.spawnNs = nowNs();
        for (int i = 0; i < nodes; ++i) {
            serving.nodes.push_back(
                spawn(nodeArgs(sockets[i], workers, dirs[i]), sockets[i]));
        }
        for (int i = 0; i < nodes; ++i) {
            auto channel = connectReady(sockets[i], 60, &error);
            if (!channel)
                throw std::runtime_error(error);
            if (!fleet)
                serving.channel = std::move(channel);
        }
        if (fleet) {
            std::string route;
            for (const std::string &socket : sockets)
                route += (route.empty() ? "" : ",") + socket;
            serving.router =
                spawn({"--route", route, "--socket", "router.sock"},
                      "router.sock");
            serving.channel = connectReady("router.sock", 60, &error);
            if (!serving.channel)
                throw std::runtime_error(error);
        }
        return serving;
    };
    auto halt = [&](Serving &serving) {
        serving.channel.reset();
        stop(serving.router);
        for (auto &node : serving.nodes)
            stop(node);
    };

    // Fill the template stores once: a cold pass, which also warms up
    // the host before anything is timed.
    {
        Serving filling = start(out.templates);
        pass(*filling.channel, false);
        halt(filling);
    }

    // Set-ups: each starts over pristine copies of the templates and
    // ends after one priming pass served from the stores.
    Serving serving;
    for (int k = 0; k < setupSamples; ++k) {
        halt(serving);
        for (int i = 0; i < nodes; ++i)
            copyTree(out.templates[i], stores[i]);
        serving = start(stores);
        samples.readyS.push_back((nowNs() - serving.spawnNs) / 1e9);
        const PassOutcome priming = pass(*serving.channel, false);
        samples.setupS.push_back((nowNs() - serving.spawnNs) / 1e9);
        check(priming.simulated == 0, priming.attempted,
              "priming pass simulated " + std::to_string(priming.simulated) +
                  " points");
    }
    for (int n = 0; n < warmupPasses; ++n)
        pass(*serving.channel, false);

    MetricsReading before, after;
    if (!readMetrics(*serving.channel, &before, &error))
        throw std::runtime_error(error);
    const double routerCpu0 = serving.cpuSeconds(true);
    const double nodeCpu0 = serving.cpuSeconds(false);
    const uint64_t bytes0 = serving.channel->bytesRead();
    const uint32_t firstPass = passes_;
    uint64_t points = 0;
    double wallS = 0;
    replay(*serving.channel, seconds, traced, &samples, &points, &wallS);
    const double routerCpu = serving.cpuSeconds(true) - routerCpu0;
    const double nodeCpu = serving.cpuSeconds(false) - nodeCpu0;
    const uint64_t bytes = serving.channel->bytesRead() - bytes0;
    const double measuredPasses = passes_ - firstPass;
    if (!readMetrics(*serving.channel, &after, &error))
        throw std::runtime_error(error);
    samples.rssMb.push_back(serving.peakRssMb());
    samples.cpuUsPerPoint.push_back((routerCpu + nodeCpu) * 1e6 / points);
    std::printf("%s replay: %llu points in %.3f s of wall time, %.6g "
                "points/s on average\n",
                mode.c_str(), static_cast<unsigned long long>(points), wallS,
                points / wallS);

    // Counter cross-checks over the measured phase.
    const double expected = measuredPasses * passPoints();
    std::vector<Registry> nodeBefore =
        fleet ? before.nodes : std::vector<Registry>{before.own};
    std::vector<Registry> nodeAfter =
        fleet ? after.nodes : std::vector<Registry>{after.own};
    check(nodeAfter.size() == static_cast<size_t>(nodes), points,
          "metrics op did not list every node");
    nodeAfter.resize(nodes);
    nodeBefore.resize(nodes);
    double completed = 0, simulated = 0, hits = 0, misses = 0, stallUs = 0,
           waitCount = 0, waitSum = 0;
    std::vector<double> perNode;
    for (int i = 0; i < nodes; ++i) {
        const Registry &a = nodeAfter[i], &b = nodeBefore[i];
        auto delta = [&](const char *name) {
            return a.counter(name) - b.counter(name);
        };
        perNode.push_back(delta("engine_points_completed_total"));
        completed += perNode.back();
        simulated += delta("engine_points_simulated_total");
        hits += delta("engine_cache_hits_total");
        misses += delta("engine_cache_misses_total");
        stallUs += delta("service_write_stall_us_total");
        if (a.histograms.count("engine_lane_wait_us")) {
            waitCount += a.histograms.at("engine_lane_wait_us").first;
            waitSum += a.histograms.at("engine_lane_wait_us").second;
        }
        checkFailureCounters(b, a, points);
    }
    if (fleet) {
        checkFailureCounters(before.own, after.own, points);
        stallUs += after.own.counter("service_write_stall_us_total") -
                   before.own.counter("service_write_stall_us_total");
    }
    check(completed == expected, points,
          "completed points " + std::to_string(completed) +
              " != replayed " + std::to_string(expected));
    check(simulated == 0, points,
          "replay simulated " + std::to_string(simulated) + " points");
    halt(serving);

    const double minNode = *std::min_element(perNode.begin(), perNode.end());
    const double maxNode = *std::max_element(perNode.begin(), perNode.end());
    layer["api.cache_hit_ratio"] = hits / std::max(hits + misses, 1.0);
    layer["api.sims_per_point"] = simulated / std::max(completed, 1.0);
    layer["api.lane_wait_ms"] = waitSum / std::max(waitCount, 1.0) / 1e3;
    layer["api.worker_busy_ratio"] = 0.0;
    layer["service.write_stall_ms"] =
        stallUs / 1e3 / std::max(measuredPasses, 1.0);
    layer["service.bytes_per_point"] =
        static_cast<double>(bytes) / std::max<double>(points, 1);
    layer["fleet.router_cpu_us_per_point"] = routerCpu * 1e6 / points;
    layer["fleet.node_cpu_us_per_point"] = nodeCpu * 1e6 / points;
    layer["fleet.node_skew"] = minNode > 0 ? maxNode / minNode : 0.0;
    layer["fleet.reroutes"] = after.own.counter("fleet_reroutes_total");
    return out;
}

void
Bench::warmFigures()
{
    ReplayRun warm = replayFigures(false, opt_.seconds, opt_.trace);
    samples_ = std::move(warm.samples);
    layer_ = std::move(warm.layer);
    if (!opt_.trace)
        return;
    inProcessReplay(ReplayPath::Warm, warm.templates[0]);
    // No gated workload goes through the fleet router (its spread on
    // shared hosts is too wide), so the traced run also replays through
    // a fleet, untraced, and takes the router and node numbers from it.
    const ReplayRun fleet =
        replayFigures(true, std::min(opt_.seconds, 10.0), false);
    for (const char *name :
         {"fleet.router_cpu_us_per_point", "fleet.node_cpu_us_per_point",
          "fleet.node_skew", "fleet.reroutes"}) {
        layer_[name] = fleet.layer.at(name);
    }
}

// ---------------------------------------------------------------------
// Traced run: the in-process replay
// ---------------------------------------------------------------------

void
Bench::inProcessReplay(ReplayPath path, const std::string &templateDir)
{
    ReplayPlan plan;
    plan.path = path;
    plan.order = nextOrder();
    plan.variant = variant_;
    plan.workers = nodeWorkers;
    plan.kernel = mtv::ServiceOptions{}.kernel;
    for (int i = 0; i < fleetNodes; ++i)
        plan.ring.push_back("n" + std::to_string(i) + ".sock");
    plan.storeDir = "replay-store";
    if (templateDir.empty())
        fs::create_directories(plan.storeDir);
    else
        copyTree(templateDir, plan.storeDir);
    std::string error;
    if (!runReplay(plan, tracer_, &layer_, &error))
        failPoints(attempted_, "in-process replay: " + error);
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

void
Bench::emit()
{
    std::vector<Metric> metrics;
    const double ok =
        attempted_ ? static_cast<double>(attempted_ - failed_) / attempted_
                   : 0.0;
    if (!opt_.trace) {
        // The pass rate with the host's interference filtered out: a
        // mean or median over all passes follows hypervisor steal on a
        // shared host (see README.md). Cold passes are fewer than the
        // blocks, so there it is the median pass.
        const double passMs = blockMinMedian(samples_.passMs);
        metrics = {
            {"setup_s", median(samples_.setupS), "s"},
            {"points_per_s", passMs > 0 ? passPoints() * 1e3 / passMs : 0.0,
             "points/s"},
            {"cpu_us_per_point", median(samples_.cpuUsPerPoint), "us"},
            {"first_point_ms", samples_.firstPointMetric(), "ms"},
            {"peak_rss_mb", median(samples_.rssMb), "MiB"},
            {"ok_ratio", ok, "ratio"},
        };
    } else {
        const double traced = median(samples_.tracedPassMs);
        const double untraced = median(samples_.untracedPassMs);
        layer_["trace.overhead_pct"] =
            untraced > 0 && traced > 0 ? (traced / untraced - 1) * 100 : 0.0;
        const auto totals = tracer_.totals();
        layer_["service.read_us"] =
            meanSpan(totals, "service.readMessage", 1e3);
        static const std::vector<std::pair<const char *, const char *>>
            units = {{"workload.gen_ms", "ms"},
                     {"workload.instructions", "count"},
                     {"core.sim_s", "s"},
                     {"core.mcycles_per_s", "Mcycles/s"},
                     {"core.sim_mcycles", "Mcycles"},
                     {"core.fallback_points", "count"},
                     {"api.expand_us", "us"},
                     {"api.submit_us", "us"},
                     {"api.sims_per_point", "ratio"},
                     {"api.worker_busy_ratio", "ratio"},
                     {"api.lane_wait_ms", "ms"},
                     {"api.cache_hit_ratio", "ratio"},
                     {"store.open_ms", "ms"},
                     {"store.load_us", "us"},
                     {"store.decode_us", "us"},
                     {"store.append_us", "us"},
                     {"store.encode_us", "us"},
                     {"store.records", "count"},
                     {"service.frame_encode_us", "us"},
                     {"service.read_us", "us"},
                     {"service.bytes_per_point", "bytes"},
                     {"service.write_stall_ms", "ms"},
                     {"service.json_encode_us", "us"},
                     {"fleet.router_cpu_us_per_point", "us"},
                     {"fleet.node_cpu_us_per_point", "us"},
                     {"fleet.route_ns", "ns"},
                     {"fleet.node_skew", "ratio"},
                     {"fleet.reroutes", "count"},
                     {"trace.overhead_pct", "%"}};
        for (const auto &[name, unit] : units) {
            auto value = layer_.find(name);
            metrics.push_back(
                {name, value == layer_.end() ? 0.0 : value->second, unit});
        }

        std::printf("spans by name (count, total ms, self ms):\n");
        for (const auto &[name, t] : totals) {
            std::printf("  %-28s %9llu %12.3f %12.3f\n", name.c_str(),
                        static_cast<unsigned long long>(t.count),
                        t.totalNs / 1e6, t.selfNs / 1e6);
        }
        const std::string spans = opt_.outdir + "/spans-" + opt_.workload +
                                  "-" + std::to_string(opt_.seed) + ".tsv";
        if (tracer_.writeTsv(spans))
            std::printf("spans written to %s\n", spans.c_str());
    }

    std::printf("workload %s, seed %llu, scale %g, %u passes of %u points; "
                "the model is unvalidated against hardware, so no "
                "accuracy figure is reported\n",
                opt_.workload.c_str(),
                static_cast<unsigned long long>(opt_.seed),
                scaleValues[variant_], passes_, passPoints());
    std::printf("set-up: %zu samples, median %.4g ms", samples_.setupS.size(),
                median(samples_.setupS) * 1e3);
    if (!samples_.readyS.empty()) {
        std::printf(", of which %.4g ms up to the answered ping and hello",
                    median(samples_.readyS) * 1e3);
    }
    std::printf("\n");
    // Pass latency is printed, not gated: it follows hypervisor steal
    // (see README.md).
    std::printf("passes: %zu timed, done p50 %.4g ms, p90 %.4g ms\n",
                samples_.passMs.size(), quantile(samples_.passMs, 0.5),
                quantile(samples_.passMs, 0.9));
    if (samples_.passMs.size() <= 16) {
        std::printf("pass times (ms):");
        for (double ms : samples_.passMs)
            std::printf(" %.1f", ms);
        std::printf("\n");
    }
    for (const std::string &error : errors_)
        std::printf("FAILED: %s\n", error.c_str());
    for (const Metric &m : metrics)
        std::printf("%-30s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    mtv::Json values = mtv::Json::object();
    for (const Metric &m : metrics) {
        mtv::Json entry = mtv::Json::object();
        entry.set("value", std::isfinite(m.value) ? m.value : 0.0);
        entry.set("unit", m.unit);
        values.set(m.name, std::move(entry));
    }
    mtv::Json result = mtv::Json::object();
    result.set("correct", failed_ == 0 && errors_.empty());
    result.set("attempted", attempted_);
    result.set("failed", failed_);
    result.set("metrics", std::move(values));
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
}

int
Bench::run()
{
    try {
        if (opt_.workload == "cold-figures")
            coldFigures();
        else if (opt_.workload == "warm-figures")
            warmFigures();
        else
            throw std::runtime_error("unknown workload " + opt_.workload);
    } catch (const std::exception &e) {
        // The daemons of the failed step are gone with their owners.
        std::fprintf(stderr, "mtvbench: %s\n", e.what());
        return 1;
    }
    if (attempted_ == 0)
        return 1;
    emit();
    return failed_ == 0 && errors_.empty() ? 0 : 1;
}

} // namespace
} // namespace mtvbench

int
main(int argc, char **argv)
{
    using namespace mtvbench;
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--mtvd")
            opt.mtvd = value;
        else if (flag == "--workdir")
            opt.workdir = value;
        else if (flag == "--outdir")
            opt.outdir = value;
        else if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = std::stoull(value);
        else if (flag == "--seconds")
            opt.seconds = std::stod(value);
        else if (flag == "--trace")
            opt.trace = value == "1";
        else {
            std::fprintf(stderr, "mtvbench: unknown flag %s\n", flag.c_str());
            return 2;
        }
    }
    if (opt.mtvd.empty() || opt.workdir.empty() || opt.outdir.empty()) {
        std::fprintf(stderr, "usage: mtvbench --mtvd PATH --workdir DIR "
                             "--outdir DIR --workload NAME --seed N "
                             "--seconds S --trace 0|1\n");
        return 2;
    }
    // Daemon sockets, stores and logs live in the work directory, under
    // short relative names (unix socket paths are length-limited).
    fs::create_directories(opt.workdir);
    fs::create_directories(opt.outdir);
    if (chdir(opt.workdir.c_str()) != 0)
        return 2;
    mtv::setLogLevel(mtv::LogLevel::Quiet);
    mtv::ScopedFatalAsException fatalThrows;
    return Bench(opt).run();
}
