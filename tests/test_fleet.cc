/**
 * @file
 * Tests for src/fleet: hash-ring determinism and minimal remap,
 * endpoint parsing, and a live 3-node fleet served by in-process
 * MtvServices (one reached over TCP, two over unix sockets). The
 * fleet's scatter/fold must be bit-identical to a single in-process
 * engine, node ownership must follow the ring, and a node dying —
 * before the batch or mid-stream — must reroute exactly its
 * unfinished points to the survivors.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <set>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/api/engine.hh"
#include "src/common/logging.hh"
#include "src/fleet/fleet_service.hh"
#include "src/fleet/ring.hh"
#include "src/fleet/router.hh"
#include "src/obs/metrics.hh"
#include "src/service/json.hh"
#include "src/service/server.hh"
#include "src/store/stats_codec.hh"

namespace mtv
{
namespace
{

constexpr double testScale = 2e-5;

// ---------------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------------

std::vector<std::string>
testKeys(int n)
{
    std::vector<std::string> keys;
    keys.reserve(n);
    for (int i = 0; i < n; ++i)
        keys.push_back("spec-key-" + std::to_string(i));
    return keys;
}

TEST(HashRing, DeterministicAcrossInstances)
{
    const std::vector<std::string> nodes = {"a:1", "b:2", "c:3"};
    HashRing first(nodes);
    HashRing second(nodes);
    for (const std::string &key : testKeys(200))
        EXPECT_EQ(first.nodeFor(key), second.nodeFor(key)) << key;
}

TEST(HashRing, PartitionsKeysAcrossEveryNode)
{
    HashRing ring({"a:1", "b:2", "c:3"});
    std::vector<size_t> owned(ring.size(), 0);
    for (const std::string &key : testKeys(300))
        ++owned[ring.nodeFor(key)];
    size_t total = 0;
    for (size_t node = 0; node < ring.size(); ++node) {
        // 64 vnodes keep every node in the game for 300 keys.
        EXPECT_GT(owned[node], 0u) << "node " << node;
        total += owned[node];
    }
    // nodeFor() names exactly one owner per key: a full partition.
    EXPECT_EQ(total, 300u);
}

TEST(HashRing, RemoveNodeRemapsOnlyItsKeys)
{
    HashRing ring({"a:1", "b:2", "c:3"});
    const auto keys = testKeys(300);
    std::vector<size_t> before;
    before.reserve(keys.size());
    for (const std::string &key : keys)
        before.push_back(ring.nodeFor(key));

    ring.removeNode(1);
    EXPECT_EQ(ring.liveCount(), 2u);
    EXPECT_FALSE(ring.isLive(1));
    size_t remapped = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
        const size_t after = ring.nodeFor(keys[i]);
        if (before[i] == 1) {
            // The dead node's keys land on a survivor.
            EXPECT_NE(after, 1u) << keys[i];
            ++remapped;
        } else {
            // Everyone else's keys keep their owner — the property
            // that bounds a failover to the dead node's slice.
            EXPECT_EQ(after, before[i]) << keys[i];
        }
    }
    EXPECT_GT(remapped, 0u);

    // Idempotent: removing the same node again changes nothing.
    ring.removeNode(1);
    EXPECT_EQ(ring.liveCount(), 2u);
}

TEST(HashRing, NodeForFatalsWithNoLiveNodes)
{
    HashRing ring({"a:1", "b:2"});
    ring.removeNode(0);
    ring.removeNode(1);
    EXPECT_EQ(ring.liveCount(), 0u);
    ScopedFatalAsException scope;
    EXPECT_THROW(ring.nodeFor("anything"), FatalError);
}

// ---------------------------------------------------------------------
// Endpoint parsing
// ---------------------------------------------------------------------

TEST(Endpoint, ParsesUnixAndTcpForms)
{
    const Endpoint unixEp = parseEndpoint("/tmp/some.sock");
    EXPECT_EQ(unixEp.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(unixEp.path, "/tmp/some.sock");
    EXPECT_EQ(unixEp.describe(), "/tmp/some.sock");
    EXPECT_NE(unixEp.startHint().find("mtvd"), std::string::npos);
    EXPECT_NE(unixEp.startHint().find("/tmp/some.sock"),
              std::string::npos);

    const Endpoint tcpEp = parseEndpoint("127.0.0.1:9000");
    EXPECT_EQ(tcpEp.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(tcpEp.host, "127.0.0.1");
    EXPECT_EQ(tcpEp.port, 9000);
    EXPECT_EQ(tcpEp.describe(), "127.0.0.1:9000");
    EXPECT_NE(tcpEp.startHint().find("--tcp 127.0.0.1:9000"),
              std::string::npos);
}

TEST(Endpoint, RejectsMalformedTcpForms)
{
    ScopedFatalAsException scope;
    EXPECT_THROW(parseEndpoint("host:abc"), FatalError);
    EXPECT_THROW(parseEndpoint("host:0"), FatalError);
    EXPECT_THROW(parseEndpoint("host:65536"), FatalError);
    EXPECT_THROW(parseEndpoint(":9000"), FatalError);
}

// ---------------------------------------------------------------------
// FleetRouter configuration (no live nodes needed)
// ---------------------------------------------------------------------

TEST(FleetRouterConfig, RejectsBadNodeLists)
{
    ScopedFatalAsException scope;
    EXPECT_THROW(FleetRouter({}), FatalError);
    EXPECT_THROW(FleetRouter({"/tmp/a.sock", "/tmp/a.sock"}),
                 FatalError);
    EXPECT_THROW(FleetRouter({"/tmp/a.sock", ""}), FatalError);
}

TEST(FleetRouterConfig, RoutesLikeAParallelRing)
{
    // The ring identities are the endpoint texts, so any router (or
    // test) built over the same list routes identically — the
    // property that lets N mtvctl --fleet clients share node caches.
    const std::vector<std::string> nodes = {"/tmp/n0.sock",
                                            "10.0.0.2:7000",
                                            "/tmp/n2.sock"};
    FleetRouter router(nodes);
    HashRing ring(nodes);
    EXPECT_EQ(router.nodeCount(), nodes.size());
    EXPECT_EQ(router.aliveCount(), nodes.size());
    for (const std::string &key : testKeys(100))
        EXPECT_EQ(router.nodeForKey(key), ring.nodeFor(key)) << key;
}

// ---------------------------------------------------------------------
// Live fleet: three in-process MtvServices
// ---------------------------------------------------------------------

/** @p n distinct cheap single-mode specs. */
std::vector<RunSpec>
distinctSpecs(int n)
{
    std::vector<RunSpec> specs;
    specs.reserve(n);
    for (int i = 0; i < n; ++i) {
        MachineParams params = MachineParams::reference();
        params.memLatency = 20 + i;
        specs.push_back(RunSpec::single(i % 2 ? "swm256" : "trfd",
                                        params, testScale));
    }
    return specs;
}

/** Reference run: an in-process engine plus the digest fold the
 *  daemon protocol defines (FNV-1a over blobs in submission order). */
struct LocalFold
{
    std::vector<RunResult> results;
    uint64_t digest = 0xcbf29ce484222325ull;
};

LocalFold
localFold(const std::vector<RunSpec> &specs)
{
    ExperimentEngine engine;
    LocalFold fold;
    fold.results = engine.runAll(specs);
    for (const RunResult &result : fold.results) {
        const std::string blob = serializeSimStats(result.stats);
        fold.digest = fnv1a64(blob.data(), blob.size(), fold.digest);
    }
    return fold;
}

/**
 * Three MtvServices on temp sockets, served from background threads.
 * Node 0 is addressed over TCP (ephemeral loopback port), nodes 1
 * and 2 over their unix sockets — every fleet test exercises both
 * transports.
 */
class FleetFixture : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        for (int n = 0; n < 3; ++n) {
            ServiceOptions options;
            options.socketPath = tempPath(n);
            options.workers = 2;
            if (n == 0) {
                options.tcpHost = "127.0.0.1";
                options.tcpPort = 0;  // kernel-chosen
            }
            services_.push_back(
                std::make_unique<MtvService>(options));
            serveThreads_.emplace_back(
                [service = services_.back().get()] {
                    service->serve();
                });
        }
        endpoints_ = {
            "127.0.0.1:" + std::to_string(services_[0]->tcpPort()),
            services_[1]->socketPath(),
            services_[2]->socketPath(),
        };
    }

    void
    TearDown() override
    {
        for (auto &service : services_)
            service->stop();
        for (auto &thread : serveThreads_)
            thread.join();
        services_.clear();
    }

    std::string
    tempPath(int n)
    {
        return (std::filesystem::temp_directory_path() /
                ("mtv_test_fleet_" + std::to_string(::getpid()) +
                 "_" + std::to_string(n) + ".sock"))
            .string();
    }

    /** Keys each node owns out of @p specs, per the router's ring. */
    std::vector<size_t>
    ownershipCensus(const FleetRouter &router,
                    const std::vector<RunSpec> &specs, size_t nodes)
    {
        std::vector<size_t> census(nodes, 0);
        for (const RunSpec &spec : specs)
            ++census[router.nodeForKey(spec.canonical())];
        return census;
    }

    std::vector<std::unique_ptr<MtvService>> services_;
    std::vector<std::thread> serveThreads_;
    std::vector<std::string> endpoints_;
};

TEST_F(FleetFixture, SweepScatterFoldsBitIdenticalToLocal)
{
    SweepRequest request;
    request.family = "groupings";
    request.program = "trfd";
    request.contexts = 2;
    request.scale = testScale;
    SweepBuilder reference = expandSweep(request);
    const LocalFold expected = localFold(reference.specs());

    FleetRouter router(endpoints_);
    size_t ackCount = 0;
    size_t ackSlices = 0;
    std::set<size_t> arrived;
    const FleetOutcome outcome = router.runSweep(
        request,
        [&arrived](size_t global, const RunResult &,
                   const std::string &) { arrived.insert(global); },
        [&](size_t count, const std::vector<SweepSlice> &slices) {
            ackCount = count;
            ackSlices = slices.size();
        });

    // The expand hook fired with the full expansion (the ack data).
    EXPECT_EQ(ackCount, expected.results.size());
    EXPECT_EQ(ackSlices, reference.slices().size());
    // Every point arrived exactly once through the hook.
    EXPECT_EQ(arrived.size(), expected.results.size());

    // Point-by-point and folded bit-identity with the local engine.
    ASSERT_EQ(outcome.results.size(), expected.results.size());
    for (size_t i = 0; i < expected.results.size(); ++i) {
        EXPECT_EQ(serializeSimStats(outcome.results[i].stats),
                  serializeSimStats(expected.results[i].stats))
            << "point " << i;
    }
    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_EQ(outcome.rerouted, 0u);
    EXPECT_TRUE(outcome.deadNodes.empty());
    EXPECT_EQ(outcome.slices.size(), reference.slices().size());
    EXPECT_EQ(outcome.simulated + outcome.cacheServed +
                  outcome.storeServed,
              expected.results.size());

    // Each node streamed exactly the points the ring assigns it.
    const auto census =
        ownershipCensus(router, reference.specs(), 3);
    uint64_t served = 0;
    const auto status = router.status();
    for (size_t n = 0; n < status.size(); ++n) {
        EXPECT_TRUE(status[n].alive) << status[n].lastError;
        EXPECT_EQ(status[n].pointsServed, census[n]) << "node " << n;
        served += status[n].pointsServed;
    }
    EXPECT_EQ(served, expected.results.size());
}

TEST_F(FleetFixture, SpecBatchScatterMatchesLocalAndOwnership)
{
    const auto specs = distinctSpecs(24);
    const LocalFold expected = localFold(specs);

    FleetRouter router(endpoints_);
    const auto census = ownershipCensus(router, specs, 3);
    const FleetOutcome outcome = router.runSpecs(specs);

    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_EQ(outcome.rerouted, 0u);
    const auto status = router.status();
    for (size_t n = 0; n < status.size(); ++n)
        EXPECT_EQ(status[n].pointsServed, census[n]) << "node " << n;
}

TEST_F(FleetFixture, DeadEndpointAtStartReroutesToSurvivors)
{
    // Node 2 is replaced by an endpoint nobody serves: the first
    // scatter round marks it dead on connect failure and the second
    // round recomputes its slice on the survivors.
    const std::string bogus = tempPath(9) + ".nothere";
    const std::vector<std::string> fleet = {endpoints_[0],
                                            endpoints_[1], bogus};
    const auto specs = distinctSpecs(40);
    const LocalFold expected = localFold(specs);

    FleetRouter router(fleet);
    const auto census = ownershipCensus(router, specs, 3);
    ASSERT_GT(census[2], 0u)
        << "test needs the bogus node to own some points";

    const FleetOutcome outcome = router.runSpecs(specs);
    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_EQ(outcome.rerouted, census[2]);
    ASSERT_EQ(outcome.deadNodes.size(), 1u);
    EXPECT_EQ(outcome.deadNodes[0], bogus);
    EXPECT_EQ(router.aliveCount(), 2u);

    const auto status = router.status();
    EXPECT_FALSE(status[2].alive);
    EXPECT_FALSE(status[2].lastError.empty());
    EXPECT_EQ(status[2].pointsServed, 0u);
    EXPECT_EQ(status[0].pointsServed + status[1].pointsServed,
              specs.size());

    // Death is sticky: a second batch routes around it from round 1.
    const FleetOutcome again = router.runSpecs(specs);
    EXPECT_EQ(again.digest, expected.digest);
    EXPECT_EQ(again.rerouted, 0u);
    EXPECT_TRUE(again.deadNodes.empty());
}

/**
 * A protocol impostor: accepts ONE connection, serves the first
 * point of the run request it receives as a frame carrying a genuine
 * engine result, then slams the connection — a node dying
 * mid-stream, after real progress was acked.
 */
class FakeHalfDeadNode
{
  public:
    explicit FakeHalfDeadNode(const std::string &path) : path_(path)
    {
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (listenFd_ < 0 || path.size() >= sizeof(addr.sun_path))
            fatal("fake node: unusable socket path %s", path.c_str());
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(path.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listenFd_, 4) != 0) {
            fatal("fake node: cannot listen on %s", path.c_str());
        }
        thread_ = std::thread([this] { serveOne(); });
    }

    ~FakeHalfDeadNode()
    {
        ::shutdown(listenFd_, SHUT_RDWR);
        thread_.join();
        ::close(listenFd_);
        ::unlink(path_.c_str());
    }

    size_t served() const { return served_.load(); }

  private:
    void
    serveOne()
    {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return;
        LineChannel channel(fd);
        std::string line;
        if (!channel.readLine(&line))
            return;
        Json request;
        std::string error;
        if (!Json::parse(line, &request, &error))
            return;
        const auto &specs = request.get("specs").asArray();
        if (specs.empty())
            return;
        // One genuine result (seq 0 of the subset), then EOF: the
        // router must keep this point and reroute only the rest.
        ExperimentEngine engine;
        const RunResult result =
            engine.run(RunSpec::parse(specs[0].asString()));
        const std::string blob = serializeSimStats(result.stats);
        std::string frame;
        appendResultFrame(&frame, result, request.get("id").asU64(), 0,
                          &blob);
        if (channel.writeBytes(frame))
            served_ = 1;
        // The channel destructor closes the socket mid-stream.
    }

    std::string path_;
    int listenFd_ = -1;
    std::thread thread_;
    /** Written by the serving thread, read by the test thread. */
    std::atomic<size_t> served_{0};
};

TEST_F(FleetFixture, NodeDeathMidStreamReroutesUnfinishedPoints)
{
    const std::string fakePath = tempPath(8) + ".fake";
    FakeHalfDeadNode fake(fakePath);
    const std::vector<std::string> fleet = {endpoints_[0],
                                            endpoints_[1], fakePath};
    const auto specs = distinctSpecs(40);
    const LocalFold expected = localFold(specs);

    FleetRouter router(fleet);
    const auto census = ownershipCensus(router, specs, 3);
    ASSERT_GT(census[2], 1u)
        << "test needs the fake node to own >= 2 points (one "
           "served, some abandoned)";

    const FleetOutcome outcome = router.runSpecs(specs);
    EXPECT_EQ(fake.served(), 1u);
    // The batch completed bit-identical despite the mid-stream death,
    // and the served point was NOT recomputed: only the abandoned
    // remainder of the fake node's slice rerouted.
    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_EQ(outcome.rerouted, census[2] - 1);
    ASSERT_EQ(outcome.deadNodes.size(), 1u);
    EXPECT_EQ(outcome.deadNodes[0], fakePath);

    const auto status = router.status();
    EXPECT_FALSE(status[2].alive);
    EXPECT_EQ(status[2].pointsServed, 1u);
    EXPECT_EQ(status[0].pointsServed + status[1].pointsServed,
              specs.size() - 1);
}

TEST_F(FleetFixture, PingAllRevivesARestartedNode)
{
    FleetRouter router(endpoints_);
    ASSERT_EQ(router.pingAll(), 3u);
    const uint64_t revivesBefore =
        MetricsRegistry::instance()
            .counter("fleet_revives_total")
            ->value();

    // Node 2 goes away; it stays sticky-dead across pings.
    const std::string path = services_[2]->socketPath();
    services_[2]->stop();
    serveThreads_[2].join();
    services_[2].reset();
    EXPECT_EQ(router.pingAll(), 2u);
    EXPECT_FALSE(router.status()[2].alive);
    EXPECT_EQ(router.pingAll(), 2u);

    // A daemon restarted on the same endpoint pongs the next ping:
    // the node rejoins the ring and the revival is counted.
    ServiceOptions options;
    options.socketPath = path;
    options.workers = 2;
    services_[2] = std::make_unique<MtvService>(options);
    serveThreads_[2] =
        std::thread([s = services_[2].get()] { s->serve(); });
    EXPECT_EQ(router.pingAll(), 3u);
    EXPECT_TRUE(router.status()[2].alive)
        << router.status()[2].lastError;
    EXPECT_GE(MetricsRegistry::instance()
                  .counter("fleet_revives_total")
                  ->value(),
              revivesBefore + 1);

    // And the revived node serves points again, bit-identical.
    const auto specs = distinctSpecs(6);
    const LocalFold expected = localFold(specs);
    const FleetOutcome outcome = router.runSpecs(specs);
    EXPECT_EQ(outcome.digest, expected.digest);
    EXPECT_TRUE(outcome.deadNodes.empty());
}

TEST_F(FleetFixture, PingAllMarksUnreachableNodesDead)
{
    const std::string bogus = tempPath(7) + ".nothere";
    FleetRouter router({endpoints_[0], endpoints_[1], bogus});
    EXPECT_EQ(router.pingAll(), 2u);
    const auto status = router.status();
    EXPECT_TRUE(status[0].alive) << status[0].lastError;
    EXPECT_TRUE(status[1].alive) << status[1].lastError;
    EXPECT_FALSE(status[2].alive);

    // The background monitor is the same pingAll on a timer; make
    // sure it starts and stops cleanly (TSan covers the rest).
    router.startHealthMonitor();
    router.stopHealthMonitor();
    EXPECT_EQ(router.aliveCount(), 2u);
}

TEST_F(FleetFixture, MetricsOpAggregatesAcrossNodes)
{
    // A routing daemon over the three fixture nodes: its "metrics"
    // op must gather every node's registry and sum the counters.
    FleetServiceOptions options;
    options.socketPath = tempPath(8);
    options.nodes = endpoints_;
    FleetService fleet(options);
    std::thread serveThread([&fleet] { fleet.serve(); });

    std::string error;
    const int fd = connectToDaemon(fleet.socketPath(), &error);
    ASSERT_GE(fd, 0) << error;
    {
        LineChannel channel(fd);
        Json request = Json::object();
        request.set("op", "metrics");
        ASSERT_TRUE(channel.writeLine(request.dump()));
        std::string line;
        ASSERT_TRUE(channel.readLine(&line));
        Json response;
        ASSERT_TRUE(Json::parse(line, &response, &error)) << error;

        EXPECT_TRUE(response.getBool("ok"));
        EXPECT_TRUE(response.getBool("fleet"));
        ASSERT_EQ(response.get("nodes").type(), Json::Type::Array);
        ASSERT_EQ(response.get("nodes").asArray().size(), 3u);
        for (const Json &node : response.get("nodes").asArray()) {
            EXPECT_TRUE(node.getBool("ok"))
                << node.getString("error");
            EXPECT_EQ(node.get("metrics").type(),
                      Json::Type::Object);
        }
        // The router carries its own registry too.
        EXPECT_EQ(response.get("router").type(), Json::Type::Object);

        // The gather itself connects once per node, and all three
        // nodes share this test process's registry — so the summed
        // connection counter is at least one per node. (No exact
        // check: the router's health monitor pings concurrently.)
        const Json &totals = response.get("totals");
        ASSERT_EQ(totals.type(), Json::Type::Object);
        EXPECT_GE(totals.get("service_connections_total").asU64(),
                  3u);
    }

    fleet.stop();
    serveThread.join();
}

TEST_F(FleetFixture, CompareOpScattersAndMatchesLocalTable)
{
    // The fleet frontend's "compare" op: scatter the family across
    // the ring, fold router-side, answer one aggregated line whose
    // rows and digest are bit-identical to a local computation.
    SweepRequest request;
    request.family = "ext-compare";
    request.contexts = 2;
    request.jobs = {"flo52", "trfd"};
    request.scale = testScale;
    SweepBuilder reference = expandSweep(request);
    const LocalFold expected = localFold(reference.specs());
    const std::vector<CompareRow> localRows =
        compareDesigns(reference.slices(), expected.results);

    FleetServiceOptions options;
    options.socketPath = tempPath(9);
    options.nodes = endpoints_;
    FleetService fleet(options);
    std::thread serveThread([&fleet] { fleet.serve(); });

    std::string error;
    const int fd = connectToDaemon(fleet.socketPath(), &error);
    ASSERT_GE(fd, 0) << error;
    {
        LineChannel channel(fd);
        Json line = sweepRequestToJson(request);
        line.set("op", "compare");
        line.set("id", 31);
        ASSERT_TRUE(channel.writeLine(line.dump()));
        std::string text;
        ASSERT_TRUE(channel.readLine(&text));
        Json response;
        ASSERT_TRUE(Json::parse(text, &response, &error)) << error;
        ASSERT_FALSE(response.has("error"))
            << response.getString("error");
        EXPECT_TRUE(response.getBool("ok", false));
        EXPECT_TRUE(response.getBool("compare", false));
        EXPECT_TRUE(response.getBool("fleet", false));
        EXPECT_EQ(response.getString("family"), "ext-compare");
        EXPECT_EQ(response.get("count").asU64(),
                  expected.results.size());
        EXPECT_EQ(response.getString("baseline"),
                  reference.slices()[0].label);
        char digestHex[17];
        std::snprintf(digestHex, sizeof(digestHex), "%016llx",
                      static_cast<unsigned long long>(
                          expected.digest));
        EXPECT_EQ(response.getString("digest"), digestHex);
        const auto &rows = response.get("rows").asArray();
        ASSERT_EQ(rows.size(), localRows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
            const CompareRow row = compareRowFromJson(rows[i]);
            EXPECT_EQ(row.design, localRows[i].design)
                << "row " << i;
            EXPECT_EQ(row.cycles, localRows[i].cycles)
                << "row " << i;
            EXPECT_DOUBLE_EQ(row.speedup, localRows[i].speedup)
                << "row " << i;
        }

        // A non-design-parallel family is rejected before any node
        // sees work, same structured error as a single daemon.
        SweepRequest grouping;
        grouping.family = "groupings";
        grouping.program = "trfd";
        grouping.contexts = 2;
        grouping.scale = testScale;
        Json bad = sweepRequestToJson(grouping);
        bad.set("op", "compare");
        bad.set("id", 32);
        ASSERT_TRUE(channel.writeLine(bad.dump()));
        ASSERT_TRUE(channel.readLine(&text));
        Json answer;
        ASSERT_TRUE(Json::parse(text, &answer, &error)) << error;
        EXPECT_TRUE(answer.has("error"));
        EXPECT_EQ(answer.getString("notComparable"), "groupings");
    }

    fleet.stop();
    serveThread.join();
}

/** Send one request line and read up to its last answer line: an
 *  error, a done line or a one-line answer (acks and result frames
 *  are skipped). */
Json
lastAnswer(LineChannel &channel, const std::string &request)
{
    EXPECT_TRUE(channel.writeLine(request)) << request;
    std::string message;
    for (;;) {
        const LineChannel::MessageKind kind =
            channel.readMessage(&message);
        if (kind == LineChannel::MessageKind::Frame)
            continue;
        if (kind != LineChannel::MessageKind::Line)
            break;
        Json answer;
        std::string error;
        EXPECT_TRUE(Json::parse(message, &answer, &error)) << error;
        if (!answer.has("ack"))
            return answer;
    }
    ADD_FAILURE() << "connection lost after " << request;
    return Json::object();
}

TEST_F(FleetFixture, RouterAnswersEveryRequestLikeANode)
{
    // A node and a routing daemon run one front end, so each line
    // gets the same answer from both: the same error (text, id and
    // structured fields) or the same accepted stream (id, count and
    // digest), on one connection each that survives every line. The
    // router is reached over its TCP listener.
    FleetServiceOptions options;
    options.socketPath = tempPath(6);
    options.tcpHost = "127.0.0.1";
    options.tcpPort = 0;
    options.nodes = endpoints_;
    FleetService fleet(options);
    std::thread serveThread([&fleet] { fleet.serve(); });

    std::string error;
    const int nodeFd =
        connectToDaemon(services_[1]->socketPath(), &error);
    ASSERT_GE(nodeFd, 0) << error;
    const int routerFd = connectToEndpoint(
        Endpoint::tcp("127.0.0.1", fleet.tcpPort()), &error);
    ASSERT_GE(routerFd, 0) << error;
    {
        LineChannel node(nodeFd);
        LineChannel router(routerFd);
        const std::string latency =
            "\"family\":\"latency\",\"scale\":2e-05,\"quiet\":true";
        const std::vector<std::string> rows = {
            "[1,2]",
            "3",
            "\"x\"",
            "null",
            "{not json",
            "{\"id\":9}",
            "{\"op\":\"explode\",\"id\":4}",
            "{\"op\":\"hello\",\"wire\":\"morse\"}",
            "{\"op\":\"sweep\",\"id\":2.5," + latency + "}",
            "{\"op\":\"sweep\",\"id\":-1," + latency + "}",
            "{\"op\":\"sweep\",\"id\":1e300," + latency + "}",
            "{\"op\":\"sweep\"," + latency + "}",
            "{\"op\":\"sweep\",\"id\":3,\"family\":\"nope\"}",
            "{\"op\":\"compare\",\"id\":4,\"family\":\"nope\"}",
            "{\"op\":\"run\",\"id\":5,\"specs\":[]}",
            "{\"op\":\"run\",\"id\":6,\"specs\":[\"bogus\"]}",
        };
        for (const std::string &row : rows) {
            const Json expected = lastAnswer(node, row);
            const Json got = lastAnswer(router, row);
            EXPECT_EQ(got.get("id").dump(), expected.get("id").dump())
                << row;
            if (expected.has("error")) {
                EXPECT_EQ(got.getString("error"),
                          expected.getString("error"))
                    << row;
                EXPECT_EQ(got.get("badFamily").dump(),
                          expected.get("badFamily").dump())
                    << row;
                EXPECT_EQ(got.get("families").dump(),
                          expected.get("families").dump())
                    << row;
            } else {
                ASSERT_TRUE(expected.getBool("done"))
                    << row << " -> " << expected.dump();
                EXPECT_TRUE(got.getBool("done"))
                    << row << " -> " << got.dump();
                EXPECT_EQ(got.get("count").dump(),
                          expected.get("count").dump())
                    << row;
                EXPECT_EQ(got.getString("digest"),
                          expected.getString("digest"))
                    << row;
            }
        }
    }

    fleet.stop();
    serveThread.join();
}

TEST(FleetRouterDeath, AllNodesDeadFatals)
{
    const std::string base =
        (std::filesystem::temp_directory_path() /
         ("mtv_test_fleet_dead_" + std::to_string(::getpid())))
            .string();
    FleetRouter router({base + "_a.nothere", base + "_b.nothere"});
    ScopedFatalAsException scope;
    EXPECT_THROW(router.runSpecs(distinctSpecs(4)), FatalError);
    EXPECT_EQ(router.aliveCount(), 0u);
}

} // namespace
} // namespace mtv
