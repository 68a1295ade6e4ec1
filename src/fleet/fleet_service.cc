#include "src/fleet/fleet_service.hh"

#include <map>

#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/service/json.hh"

namespace mtv
{

namespace
{

/**
 * Re-orders the fleet's arrival-order point stream back into global
 * submission order for one client: seq = global index, parked until
 * every earlier point has been emitted. Invoked under the router's
 * gather mutex, so writes are serialized.
 */
class OrderedEmitter
{
  public:
    OrderedEmitter(Connection &connection, uint64_t id, bool quiet)
        : connection_(connection), id_(id), quiet_(quiet)
    {
    }

    void
    reset(size_t count)
    {
        ready_.assign(count, 0);
        results_.assign(count, RunResult());
        blobs_.assign(count, std::string());
        nextEmit_ = 0;
    }

    /** The FleetRouter::PointHook. */
    void
    land(size_t global, const RunResult &result,
         const std::string &blob)
    {
        ready_[global] = 1;
        results_[global] = result;
        blobs_[global] = blob;
        while (nextEmit_ < ready_.size() && ready_[nextEmit_]) {
            const size_t seq = nextEmit_++;
            if (connection_.writeFailed())
                continue;
            // Re-framed, not re-encoded: the blob bytes a node
            // streamed pass through verbatim — only the frame
            // envelope (id, global seq) is rebuilt, so the client
            // folds the identical digest.
            std::string frame;
            appendResultFrame(&frame, results_[seq], id_, seq,
                              quiet_ ? nullptr : &blobs_[seq]);
            connection_.writeFrameBytes(frame);
            // Emitted points are not needed again (the router holds
            // its own copies for the final fold).
            results_[seq] = RunResult();
            blobs_[seq].clear();
        }
    }

    /** The terminator, with the fleet extras the smoke test greps. */
    bool
    writeDone(const FleetOutcome &outcome)
    {
        Json done = Json::object();
        done.set("id", id_);
        done.set("done", true);
        done.set("count",
                 static_cast<uint64_t>(outcome.results.size()));
        done.set("simulated", outcome.simulated);
        done.set("cacheServed", outcome.cacheServed);
        done.set("storeServed", outcome.storeServed);
        done.set("digest",
                 format("%016llx", static_cast<unsigned long long>(
                                       outcome.digest)));
        done.set("rerouted", outcome.rerouted);
        if (!outcome.deadNodes.empty()) {
            Json dead = Json::array();
            for (const std::string &name : outcome.deadNodes)
                dead.push(name);
            done.set("deadNodes", std::move(dead));
        }
        return connection_.write(done.dump());
    }

  private:
    Connection &connection_;
    uint64_t id_;
    bool quiet_;
    std::vector<char> ready_;
    std::vector<RunResult> results_;
    std::vector<std::string> blobs_;
    size_t nextEmit_ = 0;
};

/**
 * "metrics": every live node's registry gathered per-node, plus the
 * router's own registry and fleet-wide counter totals. Prom
 * exposition is per-node; nothing to forward.
 */
bool
handleMetrics(FleetRouter &router, Connection &connection)
{
    Json ok = Json::object();
    ok.set("ok", true);
    ok.set("fleet", true);
    ok.set("router",
           metricsToJson(MetricsRegistry::instance().snapshot()));

    // Fleet-wide counter sums over the nodes that answered. Gauges
    // and histograms stay per-node: summing a queue-depth gauge or
    // averaging quantiles would manufacture numbers nobody measured.
    std::map<std::string, uint64_t> totals;
    Json nodes = Json::array();
    for (const FleetNodeStatus &s : router.status()) {
        Json node = Json::object();
        node.set("endpoint", s.name);
        if (!s.alive) {
            node.set("ok", false);
            node.set("error", s.lastError.empty()
                                  ? "node marked dead"
                                  : s.lastError);
            nodes.push(std::move(node));
            continue;
        }
        Json metrics;
        bool gathered = false;
        std::string error = "metrics request failed";
        try {
            // A node failing its metrics request degrades THIS
            // response, never the router. (Deliberately no markDead:
            // the health monitor owns liveness; an observability read
            // should not reshape the ring.)
            ScopedFatalAsException scope;
            std::string connectError;
            const int fd = connectToEndpoint(parseEndpoint(s.name),
                                             &connectError);
            if (fd < 0) {
                error = connectError;
            } else {
                LineChannel nodeChannel(fd);
                Json nodeRequest = Json::object();
                nodeRequest.set("op", "metrics");
                std::string line;
                if (nodeChannel.writeLine(nodeRequest.dump()) &&
                    nodeChannel.readLine(&line)) {
                    Json response;
                    std::string parseError;
                    if (!Json::parse(line, &response, &parseError)) {
                        error = "malformed metrics response: " +
                                parseError;
                    } else if (!response.getBool("ok")) {
                        error = response.getString("error",
                                                   response.dump());
                    } else {
                        metrics = response.get("metrics");
                        gathered =
                            metrics.type() == Json::Type::Object;
                        if (!gathered)
                            error = "metrics response carries no "
                                    "metrics object";
                    }
                }
            }
        } catch (const FatalError &e) {
            error = e.what();
        }
        node.set("ok", gathered);
        if (gathered) {
            if (metrics.get("counters").type() ==
                Json::Type::Object) {
                for (const auto &counter :
                     metrics.get("counters").asMembers()) {
                    totals[counter.first] += static_cast<uint64_t>(
                        counter.second.asNumber());
                }
            }
            node.set("metrics", std::move(metrics));
        } else {
            node.set("error", error);
        }
        nodes.push(std::move(node));
    }
    ok.set("nodes", std::move(nodes));
    Json totalsJson = Json::object();
    for (const auto &total : totals)
        totalsJson.set(total.first, total.second);
    ok.set("totals", std::move(totalsJson));
    return connection.write(ok.dump());
}

/** "sweep": scatter one family and stream the folded merge,
 *  re-ordering the nodes' arrival order back into global submission
 *  order. */
bool
handleSweep(FleetRouter &router, const Request &request,
            Connection &connection)
{
    if (request.body.has("points")) {
        // A router is not a node: the scatter path terminates here.
        return connection.write(
            requestErrorJson(request.id, "a fleet router does not "
                                         "accept point subsets")
                .dump());
    }
    OrderedEmitter emitter(connection, request.id,
                           request.body.getBool("quiet", false));

    const FleetOutcome outcome = router.runSweep(
        request.sweep,
        [&emitter](size_t global, const RunResult &result,
                   const std::string &blob) {
            emitter.land(global, result, blob);
        },
        [&](size_t count, const std::vector<SweepSlice> &slices) {
            emitter.reset(count);
            Json ack = Json::object();
            ack.set("id", request.id);
            ack.set("ack", true);
            ack.set("count", static_cast<uint64_t>(count));
            ack.set("total", static_cast<uint64_t>(count));
            Json sliceArray = Json::array();
            for (const SweepSlice &slice : slices)
                sliceArray.push(sliceToJson(slice));
            ack.set("slices", std::move(sliceArray));
            connection.write(ack.dump());
        });
    // False when the client vanished mid-stream (writes are sticky).
    return emitter.writeDone(outcome);
}

/** "compare", fleet-wide: scatter the family's expansion, gather,
 *  fold through compareDesigns(), and answer the one aggregated
 *  line. */
bool
handleCompare(FleetRouter &router, const Request &request,
              Connection &connection)
{
    // Gather fleet-wide; the points stay router-side (no per-point
    // stream), exactly like a single daemon's compare. The front end
    // checked the family is design-parallel.
    const FleetOutcome outcome = router.runSweep(request.sweep);

    Json ok = Json::object();
    ok.set("id", request.id);
    ok.set("ok", true);
    ok.set("compare", true);
    ok.set("fleet", true);
    ok.set("family", request.sweep.family);
    ok.set("count", static_cast<uint64_t>(outcome.results.size()));
    ok.set("baseline", outcome.slices[0].label);
    ok.set("simulated", outcome.simulated);
    ok.set("cacheServed", outcome.cacheServed);
    ok.set("storeServed", outcome.storeServed);
    ok.set("digest",
           format("%016llx",
                  static_cast<unsigned long long>(outcome.digest)));
    Json rows = Json::array();
    for (const CompareRow &row :
         compareDesigns(outcome.slices, outcome.results))
        rows.push(compareRowToJson(row));
    ok.set("rows", std::move(rows));
    return connection.write(ok.dump());
}

/** "run": scatter an explicit spec batch the same way. */
bool
handleRun(FleetRouter &router, const Request &request,
          Connection &connection)
{
    std::vector<RunSpec> specs;
    for (const Json &spec : request.body.get("specs").asArray())
        specs.push_back(RunSpec::parse(spec.asString()));

    OrderedEmitter emitter(connection, request.id,
                           request.body.getBool("quiet", false));
    emitter.reset(specs.size());
    const FleetOutcome outcome = router.runSpecs(
        specs, [&emitter](size_t global, const RunResult &result,
                          const std::string &blob) {
            emitter.land(global, result, blob);
        });
    return emitter.writeDone(outcome);
}

/**
 * One connection's op table: the router behind the front end. Client
 * input and downstream-node fatality (a fleet with zero live nodes
 * left) report through fatal(); the front end answers either as an
 * error line for this client.
 */
struct RouteSession : Session
{
    RouteSession(FleetRouter &router, Connection &connection)
        : router(router), connection(connection)
    {
    }

    bool handle(const Request &request) override;

    FleetRouter &router;
    Connection &connection;
};

bool
RouteSession::handle(const Request &request)
{
    const std::string &op = request.op;
    if (op == "ping") {
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("pong", true);
        ok.set("protocol", serviceProtocolVersion);
        ok.set("fleet", true);
        ok.set("nodes", static_cast<uint64_t>(router.nodeCount()));
        ok.set("alive", static_cast<uint64_t>(router.aliveCount()));
        ok.set("sweepFamilies", sweepFamilyNames());
        return connection.write(ok.dump());
    }
    if (op == "status") {
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("fleet", true);
        Json nodes = Json::array();
        for (const FleetNodeStatus &s : router.status()) {
            Json node = Json::object();
            node.set("endpoint", s.name);
            node.set("alive", s.alive);
            if (!s.lastError.empty())
                node.set("error", s.lastError);
            node.set("served", s.pointsServed);
            nodes.push(std::move(node));
        }
        ok.set("nodes", std::move(nodes));
        return connection.write(ok.dump());
    }
    if (op == "metrics")
        return handleMetrics(router, connection);
    if (op == "sweep")
        return handleSweep(router, request, connection);
    if (op == "compare")
        return handleCompare(router, request, connection);
    if (op == "run")
        return handleRun(router, request, connection);
    if (op == "stats" || op == "clear" || op == "cancel") {
        // The router owns no engine: nothing to clear, no cache
        // counters, and in-flight bookkeeping lives node-side.
        return connection.write(
            errorJson(format("op '%s' is not served by a fleet router "
                             "— talk to a node directly",
                             op.c_str()))
                .dump());
    }
    return connection.write(
        errorJson("unknown op '" + op + "'").dump());
}

} // namespace

FleetService::FleetService(const FleetServiceOptions &options)
    : router_(options.nodes, options.fleet),
      frontEnd_(options, [this](Connection &connection) {
          return std::make_unique<RouteSession>(router_, connection);
      })
{
}

void
FleetService::serve()
{
    // Dead nodes are discovered between requests too, not only when
    // a scatter trips over them.
    router_.startHealthMonitor();
    frontEnd_.serve(format("routing for %zu nodes", router_.nodeCount()));
    router_.stopHealthMonitor();
    frontEnd_.closeConnections();
}

} // namespace mtv
