#include "src/fleet/router.hh"

#include <chrono>
#include <unordered_set>

#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/service/json.hh"
#include "src/store/stats_codec.hh"

namespace mtv
{

namespace
{

/** Ring identities must be distinct and non-empty: a duplicate
 *  endpoint would be the same daemon owning two ring slots. */
std::vector<std::string>
validatedNodeNames(const std::vector<std::string> &endpointTexts)
{
    if (endpointTexts.empty())
        fatal("fleet: node list is empty");
    std::unordered_set<std::string> seen;
    for (const std::string &text : endpointTexts) {
        if (text.empty())
            fatal("fleet: empty node endpoint in list");
        if (!seen.insert(text).second)
            fatal("fleet: duplicate node endpoint '%s'",
                  text.c_str());
    }
    return endpointTexts;
}

} // namespace

/** Shared state of one gather: the global result table the per-node
 *  reader threads land points into. */
struct FleetRouter::Gather
{
    std::mutex mutex;
    const std::vector<RunSpec> *specs = nullptr;
    std::vector<char> done;
    std::vector<RunResult> results;
    std::vector<std::string> blobs;
    const PointHook *hook = nullptr;
};

FleetRouter::FleetRouter(
    const std::vector<std::string> &endpointTexts,
    FleetOptions options)
    : options_(options),
      ring_(validatedNodeNames(endpointTexts), options.vnodesPerNode)
{
    nodes_.reserve(endpointTexts.size());
    for (const std::string &text : endpointTexts) {
        Node node;
        node.name = text;
        node.endpoint = parseEndpoint(text);
        nodes_.push_back(std::move(node));
    }

    MetricsRegistry &reg = MetricsRegistry::instance();
    obsDeadMarks_ = reg.counter("fleet_dead_marks_total");
    obsRevives_ = reg.counter("fleet_revives_total");
    obsReroutes_ = reg.counter("fleet_reroutes_total");
    obsPingRttUs_ = reg.histogram("fleet_ping_rtt_us");
    obsScatterPoints_ = reg.histogram(
        "fleet_scatter_points", MetricsRegistry::countBuckets());
}

FleetRouter::~FleetRouter() { stopHealthMonitor(); }

size_t
FleetRouter::nodeCount() const
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    return nodes_.size();
}

size_t
FleetRouter::aliveCount() const
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    return ring_.liveCount();
}

std::vector<FleetNodeStatus>
FleetRouter::status() const
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    std::vector<FleetNodeStatus> out;
    out.reserve(nodes_.size());
    for (const Node &node : nodes_) {
        FleetNodeStatus s;
        s.name = node.name;
        s.alive = node.alive;
        s.lastError = node.lastError;
        s.pointsServed = node.pointsServed;
        out.push_back(std::move(s));
    }
    return out;
}

size_t
FleetRouter::nodeForKey(const std::string &canonical) const
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    return ring_.nodeFor(canonical);
}

void
FleetRouter::markDead(size_t index, const std::string &error)
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    Node &node = nodes_[index];
    if (!node.alive)
        return;
    node.alive = false;
    node.lastError = error;
    ring_.removeNode(index);
    deadDuringBatch_.push_back(node.name);
    obsDeadMarks_->inc();
    warn("fleet: node %s marked dead (%s); %zu of %zu nodes left",
         node.name.c_str(), error.c_str(), ring_.liveCount(),
         nodes_.size());
}

void
FleetRouter::revive(size_t index)
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    Node &node = nodes_[index];
    if (node.alive)
        return;
    node.alive = true;
    node.lastError.clear();
    ring_.restoreNode(index);
    obsRevives_->inc();
    inform("fleet: node %s revived; %zu of %zu nodes live",
           node.name.c_str(), ring_.liveCount(), nodes_.size());
}

size_t
FleetRouter::pingAll()
{
    const size_t count = nodeCount();
    for (size_t i = 0; i < count; ++i) {
        Endpoint endpoint;
        bool wasAlive;
        {
            std::lock_guard<std::mutex> lock(membershipMutex_);
            wasAlive = nodes_[i].alive;
            endpoint = nodes_[i].endpoint;
        }
        std::string error;
        const uint64_t pingStartUs = monotonicMicros();
        const int fd = connectToEndpoint(endpoint, &error);
        if (fd < 0) {
            // A dead node that still refuses connections simply stays
            // dead — no counter churn, no re-mark.
            if (wasAlive)
                markDead(i, error);
            continue;
        }
        LineChannel channel(fd);
        bool healthy = false;
        std::string why = "status ping failed";
        try {
            // A garbled pong is a node failure, not a router crash.
            ScopedFatalAsException scope;
            Json request = Json::object();
            request.set("op", "ping");
            std::string line;
            if (channel.writeLine(request.dump()) &&
                channel.readLine(&line)) {
                Json response;
                std::string parseError;
                if (Json::parse(line, &response, &parseError)) {
                    const int protocol = static_cast<int>(
                        response.getNumber("protocol"));
                    if (!response.getBool("ok")) {
                        why = "ping answered: " +
                              response.getString("error",
                                                 response.dump());
                    } else if (protocol != serviceProtocolVersion) {
                        why = format("protocol mismatch: node "
                                     "speaks v%d, router v%d",
                                     protocol,
                                     serviceProtocolVersion);
                    } else {
                        healthy = true;
                    }
                } else {
                    why = "malformed pong: " + parseError;
                }
            }
        } catch (const FatalError &e) {
            why = e.what();
        }
        if (healthy) {
            obsPingRttUs_->observe(monotonicMicros() - pingStartUs);
            if (!wasAlive)
                revive(i);  // a restarted daemon rejoins the ring
        } else if (wasAlive) {
            markDead(i, why);
        }
    }
    return aliveCount();
}

void
FleetRouter::startHealthMonitor()
{
    if (monitor_.joinable())
        return;
    monitorStop_ = false;
    monitor_ = std::thread([this] {
        std::unique_lock<std::mutex> lock(monitorMutex_);
        for (;;) {
            if (monitorWake_.wait_for(
                    lock,
                    std::chrono::duration<double>(
                        options_.healthIntervalSeconds),
                    [this] { return monitorStop_; })) {
                return;
            }
            lock.unlock();
            pingAll();
            lock.lock();
        }
    });
}

void
FleetRouter::stopHealthMonitor()
{
    {
        std::lock_guard<std::mutex> lock(monitorMutex_);
        monitorStop_ = true;
    }
    monitorWake_.notify_all();
    if (monitor_.joinable())
        monitor_.join();
}

void
FleetRouter::streamSubset(size_t nodeIndex,
                          const std::vector<size_t> &indices,
                          const SweepRequest *sweep, Gather &gather)
{
    Endpoint endpoint;
    {
        std::lock_guard<std::mutex> lock(membershipMutex_);
        endpoint = nodes_[nodeIndex].endpoint;
    }
    std::string error;
    const int fd = connectToEndpoint(endpoint, &error);
    if (fd < 0) {
        markDead(nodeIndex, error);
        return;
    }
    // The channel's destructor closes the socket on every exit path.
    // On a half-dead node that close triggers the daemon-side reap
    // (cancel tokens + lane drop), so the abandoned slice stops
    // simulating for nobody.
    LineChannel channel(fd);

    constexpr uint64_t id = 1;
    Json request;
    if (sweep) {
        // The family compresses the scatter: every node expands the
        // sweep itself and runs only the global indices it owns.
        request = sweepRequestToJson(*sweep);
        Json points = Json::array();
        for (const size_t global : indices)
            points.push(static_cast<uint64_t>(global));
        request.set("points", std::move(points));
    } else {
        request = Json::object();
        Json specs = Json::array();
        for (const size_t global : indices)
            specs.push((*gather.specs)[global].canonical());
        request.set("specs", std::move(specs));
    }
    request.set("op", sweep ? "sweep" : "run");
    request.set("id", id);
    // Never quiet: the blobs are the digest fold input.
    request.set("quiet", false);
    if (!channel.writeLine(request.dump())) {
        markDead(nodeIndex, "write failed (connection lost)");
        return;
    }

    // Consume the subset stream: result frames between the ack and
    // the done line. ANY malformed message — including a line that
    // is not the ack, the done line or an error — is treated as a
    // node failure: the scatter loop reroutes, a bad node must not
    // take the router down.
    uint64_t subsetDigest = 0xcbf29ce484222325ull;
    size_t received = 0;
    bool sawAck = sweep == nullptr;  // the run op has no ack line
    for (;;) {
        std::string message;
        const LineChannel::MessageKind kind =
            channel.readMessage(&message);
        if (kind == LineChannel::MessageKind::Eof) {
            markDead(nodeIndex,
                     format("connection closed after %zu of %zu "
                            "points",
                            received, indices.size()));
            return;
        }
        if (kind == LineChannel::MessageKind::BadFrame) {
            markDead(nodeIndex,
                     format("bad result frame after %zu of %zu "
                            "points",
                            received, indices.size()));
            return;
        }
        try {
            ScopedFatalAsException scope;
            if (kind == LineChannel::MessageKind::Frame) {
                // The spec check and the digest fold work on the
                // frame's raw strings — no stats decode on the
                // integrity path; only the result landed in the
                // gather table is decoded (the caller's hook and
                // compare folds want a RunResult).
                ResultFrame frame;
                std::string frameError;
                if (!decodeResultFrame(message, &frame, &frameError))
                    fatal("bad result frame: %s", frameError.c_str());
                if (frame.id != id) {
                    fatal("frame for unknown request id %llu",
                          static_cast<unsigned long long>(frame.id));
                }
                if (!sawAck)
                    fatal("result frame before the sweep ack");
                const size_t seq = frame.seq;
                if (seq != received || seq >= indices.size()) {
                    fatal("result stream out of order (seq %zu, "
                          "expected %zu)",
                          seq, received);
                }
                if (!frame.hasBlob)
                    fatal("node streamed a result without a blob");
                if (frame.spec !=
                    (*gather.specs)[indices[seq]].canonical()) {
                    fatal("node answered the wrong spec for point "
                          "%zu",
                          indices[seq]);
                }
                subsetDigest = fnv1a64(frame.blob.data(),
                                       frame.blob.size(),
                                       subsetDigest);
                const size_t global = indices[seq];
                ++received;
                {
                    std::lock_guard<std::mutex> lock(gather.mutex);
                    if (!gather.done[global]) {
                        gather.done[global] = 1;
                        gather.results[global] =
                            resultFromFrame(frame);
                        gather.blobs[global] = std::move(frame.blob);
                        if (*gather.hook) {
                            (*gather.hook)(global,
                                           gather.results[global],
                                           gather.blobs[global]);
                        }
                    }
                }
                std::lock_guard<std::mutex> lock(membershipMutex_);
                ++nodes_[nodeIndex].pointsServed;
                continue;
            }
            Json msg;
            std::string parseError;
            if (!Json::parse(message, &msg, &parseError))
                fatal("malformed response: %s", parseError.c_str());
            if (msg.has("error"))
                fatal("node error: %s", msg.getString("error").c_str());
            if (msg.get("id").asU64() != id) {
                fatal("response for unknown request id %llu",
                      static_cast<unsigned long long>(
                          msg.get("id").asU64()));
            }
            if (!sawAck) {
                if (!msg.getBool("ack", false) ||
                    msg.get("count").asU64() != indices.size()) {
                    fatal("bad sweep ack: %s", msg.dump().c_str());
                }
                sawAck = true;
                continue;
            }
            if (!msg.getBool("done", false))
                fatal("unexpected line: %s", msg.dump().c_str());
            if (msg.getBool("cancelled", false) ||
                received != indices.size()) {
                fatal("stream ended after %zu of %zu points",
                      received, indices.size());
            }
            // Integrity cross-check: the node folded the same digest
            // over the bytes it sent; a mismatch means the subset we
            // received is not what it computed.
            const std::string server = msg.getString("digest");
            const std::string local = format(
                "%016llx",
                static_cast<unsigned long long>(subsetDigest));
            if (server != local) {
                fatal("node digest %s != router fold %s",
                      server.c_str(), local.c_str());
            }
            return;  // subset complete
        } catch (const FatalError &e) {
            markDead(nodeIndex, e.what());
            return;
        }
    }
}

FleetOutcome
FleetRouter::scatter(const std::vector<RunSpec> &specs,
                     const SweepRequest *sweep,
                     std::vector<SweepSlice> slices,
                     const PointHook &hook)
{
    const size_t n = specs.size();
    Gather gather;
    gather.specs = &specs;
    gather.done.assign(n, 0);
    gather.results.resize(n);
    gather.blobs.resize(n);
    gather.hook = &hook;

    FleetOutcome outcome;
    outcome.slices = std::move(slices);
    {
        std::lock_guard<std::mutex> lock(membershipMutex_);
        deadDuringBatch_.clear();
    }

    // Scatter rounds: assign every unfinished point to its ring
    // owner, stream all subsets concurrently, then re-assign whatever
    // a dying node left behind. Each extra round means at least one
    // node was newly marked dead (a successful subset lands all its
    // points), so the loop terminates: the batch completes or the
    // last node dies and nodeFor() fatal()s.
    bool firstRound = true;
    for (;;) {
        std::vector<std::vector<size_t>> assignment(nodes_.size());
        size_t pending = 0;
        {
            std::lock_guard<std::mutex> lock(membershipMutex_);
            if (ring_.liveCount() == 0) {
                fatal("fleet: all %zu nodes are dead (last error: "
                      "%s)",
                      nodes_.size(),
                      nodes_.empty()
                          ? "none"
                          : nodes_.back().lastError.c_str());
            }
            for (size_t i = 0; i < n; ++i) {
                if (gather.done[i])
                    continue;
                assignment[ring_.nodeFor(specs[i].canonical())]
                    .push_back(i);
                ++pending;
            }
        }
        if (pending == 0)
            break;
        if (!firstRound) {
            // These points were assigned to a node that died before
            // finishing them — this round recomputes them on the
            // survivors.
            outcome.rerouted += pending;
            obsReroutes_->inc(pending);
            inform("fleet: rerouting %zu unfinished points to %zu "
                   "surviving nodes",
                   pending, aliveCount());
        }
        firstRound = false;

        std::vector<std::thread> readers;
        for (size_t node = 0; node < assignment.size(); ++node) {
            if (assignment[node].empty())
                continue;
            obsScatterPoints_->observe(assignment[node].size());
            readers.emplace_back([this, node, &assignment, sweep,
                                  &gather] {
                streamSubset(node, assignment[node], sweep, gather);
            });
        }
        for (std::thread &reader : readers)
            reader.join();
    }

    // Fold the fleet-wide digest in GLOBAL submission order — the
    // property that makes it bit-identical to a single-node run.
    outcome.results = std::move(gather.results);
    uint64_t digest = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
        const std::string &blob = gather.blobs[i];
        digest = fnv1a64(blob.data(), blob.size(), digest);
        const RunResult &r = outcome.results[i];
        if (r.cached)
            ++outcome.cacheServed;
        else if (r.fromStore)
            ++outcome.storeServed;
        else
            ++outcome.simulated;
    }
    outcome.digest = digest;
    {
        std::lock_guard<std::mutex> lock(membershipMutex_);
        outcome.deadNodes = deadDuringBatch_;
    }
    return outcome;
}

FleetOutcome
FleetRouter::runSweep(const SweepRequest &request,
                      const PointHook &hook,
                      const ExpandHook &onExpanded)
{
    // Expanded ONCE, router-side: the slice map and the global point
    // order come from here; nodes re-derive the identical expansion
    // from the family name (expandSweep is deterministic).
    SweepBuilder sweep = expandSweep(request);
    std::vector<SweepSlice> slices = sweep.slices();
    const std::vector<RunSpec> specs = sweep.take();
    if (onExpanded)
        onExpanded(specs.size(), slices);
    return scatter(specs, &request, std::move(slices), hook);
}

FleetOutcome
FleetRouter::runSpecs(const std::vector<RunSpec> &specs,
                      const PointHook &hook)
{
    return scatter(specs, nullptr, {}, hook);
}

} // namespace mtv
