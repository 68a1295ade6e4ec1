#include "src/service/server.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <thread>
#include <vector>

#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/core/sim_error.hh"
#include "src/store/stats_codec.hh"

namespace mtv
{

namespace
{

/**
 * A wedged simulation as a structured error response: the message
 * plus machine-readable per-context blocked state, so a client can
 * see *which* resource each context starved on without parsing the
 * human text.
 */
Json
simErrorJson(uint64_t id, const SimError &e)
{
    Json j = requestErrorJson(id, e.what());
    j.set("wedged", true);
    j.set("cycle", e.cycle());
    j.set("stalledCycles", e.stalledCycles());
    Json blocked = Json::array();
    for (const BlockedContext &ctx : e.contexts()) {
        Json b = Json::object();
        b.set("context", static_cast<uint64_t>(ctx.context));
        b.set("program", ctx.program);
        b.set("reason", std::string(blockReasonName(ctx.reason)));
        b.set("windowHead", ctx.windowHead);
        b.set("windowDepth", ctx.windowDepth);
        blocked.push(b);
    }
    j.set("blocked", blocked);
    return j;
}

} // namespace

/**
 * Everything one connection's read loop shares with its streaming
 * threads: the connection (writes serialized by its write mutex),
 * the engine lane, the batch slot accounting, and the streaming
 * threads themselves (joined before the connection closes).
 */
struct MtvService::ClientState : Session
{
    ClientState(MtvService &service, Connection &connection)
        : service(service), connection(connection),
          lane(service.engine_->openLane())
    {
    }

    /** The peer is gone or the daemon is stopping: cancel the
     *  batches and drop the queued engine work, so abandoned points
     *  free their worker slots — and the joins below are quick. */
    ~ClientState() override
    {
        service.reapClient(*this);
        service.engine_->closeLane(lane);
        // The streams hold references to the connection: they drain
        // before it closes (writes to a gone peer fail fast).
        for (auto &stream : streams) {
            if (stream.second.joinable())
                stream.second.join();
        }
    }

    bool
    handle(const Request &request) override
    {
        return service.handleRequest(request, *this);
    }

    /** Every in-flight batch of this connection now simulates for
     *  nobody: reap at once, not at the read loop's next turn. */
    void peerGone() override { service.reapClient(*this); }

    MtvService &service;
    Connection &connection;
    /** This connection's engine scheduling lane. */
    LaneId lane;

    /** Cancel tokens of the connection's admitted batches, keyed by
     *  stream id. reaped goes sticky once the peer is known gone, so
     *  a batch admitted concurrently is cancelled at birth. */
    std::mutex tokenMutex;
    std::unordered_map<uint64_t, std::shared_ptr<CancelToken>> tokens;
    bool reaped = false;

    std::mutex slotMutex;
    std::condition_variable slotCv;
    /** Batch requests currently streaming on this connection. */
    int inflight = 0;
    /** Ids of streams that finished and await a cheap join (guarded
     *  by slotMutex; reaped whenever a new batch is admitted, so a
     *  long-lived connection never accumulates dead threads). */
    std::vector<uint64_t> retired;

    /** One thread per admitted batch request, keyed by stream id
     *  (touched only by the read thread). */
    std::unordered_map<uint64_t, std::thread> streams;
    uint64_t nextStreamId = 0;

    /** Join streams listed in retired. Read thread only. */
    void
    reapRetired()
    {
        std::vector<uint64_t> done;
        {
            std::lock_guard<std::mutex> lock(slotMutex);
            done.swap(retired);
        }
        for (const uint64_t id : done) {
            auto it = streams.find(id);
            if (it != streams.end()) {
                it->second.join();
                streams.erase(it);
            }
        }
    }
};

MtvService::MtvService(const ServiceOptions &options)
    : frontEnd_(options, [this](Connection &connection) {
          return std::make_unique<ClientState>(*this, connection);
      })
{
    if (!options.storeDir.empty()) {
        store_ = std::make_shared<ResultStore>(options.storeDir,
                                               options.storeShards);
    }

    EngineOptions engineOptions;
    engineOptions.workers = options.workers;
    engineOptions.backend = store_;
    engineOptions.maxCacheEntries = options.maxCacheEntries;
    engineOptions.kernel = options.kernel;
    // Warm cache hits hand their canonical bytes straight to the
    // wire (see RunResult::blob) instead of re-serializing per
    // stream.
    engineOptions.canonicalSerializer = [](const SimStats &stats) {
        return serializeSimStats(stats);
    };
    engine_ = std::make_unique<ExperimentEngine>(engineOptions);

    MetricsRegistry &reg = MetricsRegistry::instance();
    obsFirstPointUs_[0] =
        reg.histogram("service_first_point_us{op=\"run\"}");
    obsFirstPointUs_[1] =
        reg.histogram("service_first_point_us{op=\"sweep\"}");
    obsDoneUs_[0] = reg.histogram("service_done_us{op=\"run\"}");
    obsDoneUs_[1] = reg.histogram("service_done_us{op=\"sweep\"}");
    obsEncodeUs_[0] = reg.histogram("service_encode_us{op=\"run\"}");
    obsEncodeUs_[1] = reg.histogram("service_encode_us{op=\"sweep\"}");
    obsInflightBatches_ = reg.gauge("service_inflight_batches");
}

MtvService::~MtvService()
{
    stop();
    // serve() may never have run; teardown is idempotent.
    teardown();
}

void
MtvService::teardown()
{
    // Bound shutdown latency: queued-but-unstarted engine work is
    // dropped (its futures break, which the streaming threads treat
    // as "shutting down"); only the simulations already running
    // finish.
    const size_t dropped = engine_->discardQueued();
    if (dropped > 0) {
        inform("mtvd: dropped %zu queued runs at shutdown",
               dropped);
    }
    frontEnd_.closeConnections();
}

void
MtvService::serve()
{
    frontEnd_.serve(format("%d workers%s", engine_->workers(),
                           store_ ? ", persistent store" : ""));
    teardown();
}

void
MtvService::reapClient(ClientState &client)
{
    std::vector<std::shared_ptr<CancelToken>> tokens;
    {
        std::lock_guard<std::mutex> lock(client.tokenMutex);
        if (client.reaped)
            return;
        client.reaped = true;
        tokens.reserve(client.tokens.size());
        for (const auto &entry : client.tokens)
            tokens.push_back(entry.second);
    }
    uint64_t reaped = 0;
    for (const auto &token : tokens) {
        if (!token->cancelled()) {
            token->cancel();
            ++reaped;
        }
    }
    reapedBatches_.fetch_add(reaped);
    if (reaped > 0) {
        inform("mtvd: client %llu vanished, reaped %llu in-flight "
               "batch%s",
               static_cast<unsigned long long>(client.connection.id()),
               static_cast<unsigned long long>(reaped),
               reaped == 1 ? "" : "es");
    }
    // Streaming threads may be parked on the slot cv; the read loop
    // is done admitting, so wake them to observe writeFailed/reaped.
    client.slotCv.notify_all();
}

uint64_t
MtvService::cancelBatches(uint64_t requestId)
{
    uint64_t cancelled = 0;
    {
        std::lock_guard<std::mutex> lock(batchesMutex_);
        for (auto &entry : batches_) {
            if (entry.second.requestId != requestId ||
                entry.second.token->cancelled()) {
                continue;
            }
            entry.second.token->cancel();
            ++cancelled;
        }
    }
    cancelledBatches_.fetch_add(cancelled);
    return cancelled;
}

Json
MtvService::statusJson()
{
    Json ok = Json::object();
    ok.set("ok", true);
    ok.set("kernel", simKernelName(engine_->kernel()));
    ok.set("queueDepth",
           static_cast<uint64_t>(engine_->queueDepth()));
    ok.set("activeRequests", activeRequests_.load());
    ok.set("completedPoints", completedPoints_.load());
    Json counters = Json::object();
    counters.set("cancelledBatches", cancelledBatches_.load());
    counters.set("reapedBatches", reapedBatches_.load());
    counters.set("cancelledPoints", engine_->cancelledRuns());
    counters.set("discardedPoints", engine_->discardedTasks());
    ok.set("counters", std::move(counters));
    // Per-lane queue depths: which tenant's work is actually queued
    // (lane 0 = runAll/plain submit; one lane per connection).
    Json lanes = Json::array();
    for (const auto &entry : engine_->laneDepths()) {
        Json lane = Json::object();
        lane.set("lane", entry.first);
        lane.set("depth", static_cast<uint64_t>(entry.second));
        lanes.push(std::move(lane));
    }
    ok.set("lanes", std::move(lanes));
    // Per-shard store counters, when a store is attached: hot shards,
    // recovery damage, session appends.
    if (store_) {
        Json shards = Json::array();
        const std::vector<ResultStore::ShardStats> stats =
            store_->shardStats();
        for (size_t i = 0; i < stats.size(); ++i) {
            Json shard = Json::object();
            shard.set("shard", static_cast<uint64_t>(i));
            shard.set("appends", stats[i].appends);
            shard.set("hits", stats[i].hits);
            shard.set("misses", stats[i].misses);
            shard.set("records",
                      static_cast<uint64_t>(stats[i].records));
            shard.set("recovered", stats[i].loadedRecords);
            shard.set("dropped", stats[i].droppedRecords);
            shards.push(std::move(shard));
        }
        ok.set("shards", std::move(shards));
    }
    // Per-connection in-flight accounting, from the batch registry
    // (connections with nothing in flight have nothing to report).
    std::map<uint64_t, std::vector<uint64_t>> perClient;
    {
        std::lock_guard<std::mutex> lock(batchesMutex_);
        for (const auto &entry : batches_) {
            perClient[entry.second.clientId].push_back(
                entry.second.requestId);
        }
    }
    Json connections = Json::array();
    for (auto &entry : perClient) {
        Json conn = Json::object();
        conn.set("client", entry.first);
        conn.set("inflight",
                 static_cast<uint64_t>(entry.second.size()));
        std::sort(entry.second.begin(), entry.second.end());
        Json ids = Json::array();
        for (const uint64_t id : entry.second)
            ids.push(id);
        conn.set("requests", std::move(ids));
        connections.push(std::move(conn));
    }
    ok.set("connections", std::move(connections));
    return ok;
}

bool
MtvService::handleRequest(const Request &request, ClientState &client)
{
    const std::string &op = request.op;
    if (op == "run")
        return handleRun(request, client);
    if (op == "sweep")
        return handleSweep(request, client);
    if (op == "compare")
        return handleCompare(request, client);
    if (op == "ping") {
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("pong", true);
        ok.set("protocol", serviceProtocolVersion);
        ok.set("workers", engine_->workers());
        ok.set("sweepFamilies", sweepFamilyNames());
        return client.connection.write(ok.dump());
    }
    if (op == "stats") {
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("workers", engine_->workers());
        Json service = Json::object();
        service.set("activeRequests", activeRequests_.load());
        service.set("completedPoints", completedPoints_.load());
        ok.set("service", std::move(service));
        ok.set("cache", engineStatsToJson(*engine_));
        ok.set("store", store_ ? storeStatsToJson(*store_) : Json());
        return client.connection.write(ok.dump());
    }
    if (op == "status")
        return client.connection.write(statusJson().dump());
    if (op == "metrics") {
        const MetricsSnapshot snap =
            MetricsRegistry::instance().snapshot();
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("metrics", metricsToJson(snap));
        if (request.body.getBool("prom", false))
            ok.set("prom", renderProm(snap));
        return client.connection.write(ok.dump());
    }
    if (op == "cancel") {
        if (request.id == 0) {
            return client.connection.write(
                errorJson("cancel needs the request id of the "
                          "batch to cancel")
                    .dump());
        }
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("cancelled", cancelBatches(request.id));
        return client.connection.write(ok.dump());
    }
    if (op == "clear") {
        engine_->clear();
        Json ok = Json::object();
        ok.set("ok", true);
        ok.set("cleared", true);
        return client.connection.write(ok.dump());
    }
    return client.connection.write(
        errorJson("unknown op '" + op + "'").dump());
}

bool
MtvService::acquireSlot(ClientState &client)
{
    // The protocol's backpressure: with every slot streaming, the
    // read loop parks here, stops draining the socket, and the
    // client's sends eventually block.
    std::unique_lock<std::mutex> lock(client.slotMutex);
    client.slotCv.wait(lock, [this, &client] {
        return frontEnd_.stopping() || client.connection.writeFailed() ||
               client.inflight < maxInflightRequestsPerConnection;
    });
    if (frontEnd_.stopping() || client.connection.writeFailed())
        return false;
    ++client.inflight;
    return true;
}

bool
MtvService::handleRun(const Request &request, ClientState &client)
{
    const std::vector<Json> &specLines =
        request.body.get("specs").asArray();
    const bool quiet = request.body.getBool("quiet", false);

    // Validate the whole batch before running any of it: a malformed
    // spec answers with one error and no results.
    std::vector<RunSpec> specs;
    specs.reserve(specLines.size());
    for (const Json &text : specLines)
        specs.push_back(RunSpec::parse(text.asString()));

    if (!acquireSlot(client))
        return false;
    admitBatch(client, request.id, std::move(specs), quiet, false,
               request.arrivedUs);
    return true;
}

bool
MtvService::handleSweep(const Request &request, ClientState &client)
{
    const bool quiet = request.body.getBool("quiet", false);

    // Server-side expansion: the ~100-byte family request becomes the
    // full spec batch here, next to the engine, instead of being
    // serialized by every client.
    SweepBuilder sweep = expandSweep(request.sweep);

    // "points" selects a subset of the expansion by global index —
    // the fleet scatter path (a router sends each node only the
    // indices it owns; seq then numbers the subset in given order).
    std::vector<RunSpec> specs = sweep.take();
    const size_t total = specs.size();
    if (request.body.has("points")) {
        const std::vector<Json> &points =
            request.body.get("points").asArray();
        std::vector<RunSpec> subset;
        subset.reserve(points.size());
        for (const Json &point : points) {
            const uint64_t index = point.asU64();
            if (index >= total) {
                fatal("sweep point index %llu out of range (family "
                      "'%s' expands to %zu points)",
                      static_cast<unsigned long long>(index),
                      request.sweep.family.c_str(), total);
            }
            subset.push_back(specs[index]);
        }
        specs = std::move(subset);
    }

    Json ack = Json::object();
    ack.set("id", request.id);
    ack.set("ack", true);
    ack.set("count", static_cast<uint64_t>(specs.size()));
    ack.set("total", static_cast<uint64_t>(total));
    Json slices = Json::array();
    for (const SweepSlice &slice : sweep.slices())
        slices.push(sliceToJson(slice));
    ack.set("slices", std::move(slices));
    if (!client.connection.write(ack.dump()))
        return false;

    if (!acquireSlot(client))
        return false;
    admitBatch(client, request.id, std::move(specs), quiet, true,
               request.arrivedUs);
    return true;
}

bool
MtvService::handleCompare(const Request &request, ClientState &client)
{
    SweepBuilder sweep = expandSweep(request.sweep);
    auto compare = std::make_shared<CompareJob>();
    compare->family = request.sweep.family;
    compare->slices = sweep.slices();

    if (!acquireSlot(client))
        return false;
    admitBatch(client, request.id, sweep.take(), /*quiet=*/true,
               /*sweep=*/true, request.arrivedUs, std::move(compare));
    return true;
}

void
MtvService::admitBatch(ClientState &client, uint64_t id,
                       std::vector<RunSpec> specs, bool quiet,
                       bool sweep, uint64_t admittedUs,
                       std::shared_ptr<const CompareJob> compare)
{
    client.reapRetired();
    const uint64_t streamId = client.nextStreamId++;
    auto token = std::make_shared<CancelToken>();
    const uint64_t batchKey = nextBatchKey_.fetch_add(1);
    {
        std::lock_guard<std::mutex> lock(batchesMutex_);
        batches_.emplace(batchKey,
                         BatchInfo{client.connection.id(), id, token});
    }
    {
        std::lock_guard<std::mutex> lock(client.tokenMutex);
        // The peer may have vanished between the read and here (a
        // streaming thread's write failed): a batch admitted into a
        // reaped connection is cancelled at birth.
        if (client.reaped)
            token->cancel();
        client.tokens.emplace(streamId, token);
    }
    client.streams.emplace(
        streamId,
        std::thread([this, &client, streamId, id,
                     specs = std::move(specs), quiet, token,
                     batchKey, sweep, admittedUs,
                     compare = std::move(compare)]() mutable {
            streamBatch(client, streamId, id, std::move(specs),
                        quiet, std::move(token), batchKey, sweep,
                        admittedUs, std::move(compare));
        }));
}

void
MtvService::streamBatch(ClientState &client, uint64_t streamId,
                        uint64_t id, std::vector<RunSpec> specs,
                        bool quiet,
                        std::shared_ptr<CancelToken> token,
                        uint64_t batchKey, bool sweep,
                        uint64_t admittedUs,
                        std::shared_ptr<const CompareJob> compare)
{
    activeRequests_.fetch_add(1);
    obsInflightBatches_->add(1);

    // Each point is encoded the moment it settles. A point that
    // settles inside submit() (a memoized hit) streams before the
    // next one is submitted, so a warm batch streams from its first
    // lookup on; the first point that does not queues the whole rest
    // of the batch behind it, so the workers see all of a cold
    // batch's work before the stream first waits (identical points
    // of other in-flight requests coalesce inside the engine). Every
    // task carries the batch's cancel token and rides this
    // connection's lane, so a cancel/reap frees the queued points and
    // other connections are never head-of-line blocked. The progress
    // hook feeds the daemon-wide completion counter the moment a
    // point finishes, seq order or not.
    const ExperimentEngine::SubmitHook countPoint =
        [this](const RunResult &) { completedPoints_.fetch_add(1); };
    std::vector<std::future<RunResult>> futures;
    futures.reserve(specs.size());
    const auto submitNext = [&]() {
        futures.push_back(engine_->submit(specs[futures.size()],
                                          countPoint, token,
                                          client.lane));
    };
    const auto settled = [&futures](size_t i) {
        return futures[i].wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
    };

    uint64_t simulated = 0;
    uint64_t cacheServed = 0;
    uint64_t storeServed = 0;
    uint64_t digest = 0xcbf29ce484222325ull;
    bool aborted = false;
    bool cancelled = false;
    size_t completed = 0;
    std::vector<RunResult> collected;
    if (compare)
        collected.reserve(specs.size());
    // Encoded points waiting for one coalesced write: held frames go
    // out before any blocking get(), after point 0 (the first-point
    // latency) and at maxOutboxBytes. So a trickling stream still
    // flushes every point the moment it lands, while a warm one
    // drains the cache in few write() syscalls.
    std::string outbox;
    constexpr size_t maxOutboxBytes = 256u * 1024;
    const auto flushOutbox = [&]() {
        if (outbox.empty())
            return true;
        const bool ok = client.connection.writeFrameBytes(outbox);
        outbox.clear();
        return ok;
    };
    for (size_t i = 0; i < specs.size(); ++i) {
        if (i == futures.size() && !token->cancelled()) {
            submitNext();
            const bool queueRest = !settled(i);
            while (queueRest && futures.size() < specs.size() &&
                   !token->cancelled())
                submitNext();
        }
        // The batch's token fired (a client's cancel op, or the reap
        // of a vanished peer): stop at this point, even when the
        // rest already settled, and answer with a cancelled
        // terminator. Queued points are skipped inside the engine.
        if (token->cancelled()) {
            cancelled = true;
            break;
        }
        if (!settled(i) && !flushOutbox()) {
            aborted = true;  // client gone; queued work was reaped
            break;
        }
        RunResult result;
        try {
            result = futures[i].get();
        } catch (const std::future_error &) {
            // Shutdown (discardQueued) or a lane close dropped this
            // queued run; the connection is being torn down anyway.
            aborted = true;
            break;
        } catch (const CancelledError &) {
            // The token fired while this point was queued.
            cancelled = true;
            break;
        } catch (const SimError &e) {
            // A wedged simulation is a model bug worth reporting in
            // full, but never worth the daemon's life.
            warn("mtvd: %s", e.what());
            flushOutbox();
            client.connection.write(simErrorJson(id, e).dump());
            aborted = true;
            break;
        } catch (const FatalError &e) {
            flushOutbox();
            client.connection.write(requestErrorJson(id, e.what()).dump());
            aborted = true;
            break;
        }
        if (result.cached)
            ++cacheServed;
        else if (result.fromStore)
            ++storeServed;
        else
            ++simulated;
        ++completed;
        // Folded server-side so even quiet requests get the
        // bit-identity digest; the same bytes feed the result's
        // blob, serialized once — or not at all on the zero-copy
        // path, where a store hit carries the exact bytes read off
        // disk (segments store verbatim serializeSimStats output).
        std::string localBlob;
        const std::string *blob = result.blob.get();
        if (!blob) {
            localBlob = serializeSimStats(result.stats);
            blob = &localBlob;
        }
        digest = fnv1a64(blob->data(), blob->size(), digest);
        if (compare) {
            // Compare mode: the points stay server-side; the one
            // aggregated line after the loop is the whole answer.
            collected.push_back(std::move(result));
            continue;
        }
        const uint64_t encodeStartUs = monotonicMicros();
        appendResultFrame(&outbox, result, id, i,
                          quiet ? nullptr : blob);
        obsEncodeUs_[sweep]->observe(monotonicMicros() -
                                     encodeStartUs);
        if ((i == 0 || outbox.size() >= maxOutboxBytes) &&
            !flushOutbox()) {
            aborted = true;
            break;
        }
        // Request→first-point latency: the moment the client could
        // first see a result of this batch.
        if (i == 0) {
            obsFirstPointUs_[sweep]->observe(
                monotonicMicros() - admittedUs);
        }
    }

    // Points the loop held back for coalescing go out before any
    // terminator below.
    if (!aborted && !flushOutbox())
        aborted = true;

    // Unregistered before the terminator goes out: a client that has
    // read "done" must not observe its own request as still active
    // or cancellable.
    {
        std::lock_guard<std::mutex> lock(batchesMutex_);
        batches_.erase(batchKey);
    }
    {
        std::lock_guard<std::mutex> lock(client.tokenMutex);
        client.tokens.erase(streamId);
    }
    activeRequests_.fetch_sub(1);

    if (cancelled) {
        // Deliberately partial: report how far the stream got and no
        // digest. The remaining queued points resolve as cancelled
        // inside the engine without simulating.
        Json done = Json::object();
        done.set("id", id);
        done.set("done", true);
        done.set("cancelled", true);
        done.set("count", static_cast<uint64_t>(specs.size()));
        done.set("completed", static_cast<uint64_t>(completed));
        client.connection.write(done.dump());
    } else if (!aborted && compare) {
        // The compare answer: one aggregated line, the digest folded
        // over the same blobs the equivalent sweep would stream.
        try {
            ScopedFatalAsException fatalScope;
            Json ok = Json::object();
            ok.set("id", id);
            ok.set("ok", true);
            ok.set("compare", true);
            ok.set("family", compare->family);
            ok.set("count", static_cast<uint64_t>(specs.size()));
            ok.set("baseline", compare->slices[0].label);
            ok.set("simulated", simulated);
            ok.set("cacheServed", cacheServed);
            ok.set("storeServed", storeServed);
            ok.set("digest",
                   format("%016llx",
                          static_cast<unsigned long long>(digest)));
            Json rows = Json::array();
            for (const CompareRow &row :
                 compareDesigns(compare->slices, collected))
                rows.push(compareRowToJson(row));
            ok.set("rows", std::move(rows));
            if (client.connection.write(ok.dump())) {
                obsDoneUs_[sweep]->observe(monotonicMicros() -
                                           admittedUs);
            }
        } catch (const FatalError &e) {
            client.connection.write(requestErrorJson(id, e.what()).dump());
        }
    } else if (!aborted) {
        Json done = Json::object();
        done.set("id", id);
        done.set("done", true);
        done.set("count", static_cast<uint64_t>(specs.size()));
        done.set("simulated", simulated);
        done.set("cacheServed", cacheServed);
        done.set("storeServed", storeServed);
        done.set("digest", format("%016llx",
                                  static_cast<unsigned long long>(
                                      digest)));
        if (client.connection.write(done.dump())) {
            // Request→done latency, clean completions only: aborted
            // and cancelled streams are deliberately partial and
            // would pollute the series with early exits.
            obsDoneUs_[sweep]->observe(monotonicMicros() -
                                       admittedUs);
        }
    }
    obsInflightBatches_->add(-1);

    {
        std::lock_guard<std::mutex> lock(client.slotMutex);
        --client.inflight;
        client.retired.push_back(streamId);
    }
    client.slotCv.notify_all();
}

} // namespace mtv
