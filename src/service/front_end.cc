#include "src/service/front_end.hh"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/common/logging.hh"

namespace mtv
{

namespace
{

/** The request id; absent or malformed ids read 0, so the id is
 *  extractable even on the error path, where fatal() no longer
 *  throws. */
uint64_t
safeRequestId(const Json &request)
{
    const Json &id = request.get("id");
    if (id.type() != Json::Type::Number)
        return 0;
    const double v = id.asNumber();
    if (v < 0 || v != std::floor(v) || v > 9.007199254740992e15)
        return 0;
    return static_cast<uint64_t>(v);
}

} // namespace

Json
errorJson(const std::string &message)
{
    Json j = Json::object();
    j.set("error", message);
    return j;
}

Json
requestErrorJson(uint64_t id, const std::string &message)
{
    Json j = errorJson(message);
    j.set("id", id);
    return j;
}

Json
sweepFamilyNames()
{
    Json families = Json::array();
    for (const SweepFamilyInfo &family : sweepFamilies())
        families.push(family.name);
    return families;
}

Connection::Connection(FrontEnd &frontEnd, int fd, uint64_t id)
    : frontEnd_(frontEnd), id_(id), channel_(fd)
{
}

bool
Connection::writeOut(const std::string &bytes, bool frame)
{
    // Write-stall accounting covers the whole funnel: waiting on the
    // write mutex (another stream holds it) plus the blocking send
    // itself (slow reader, full socket buffer). Two clock reads per
    // line, next to a syscall.
    const uint64_t startUs = monotonicMicros();
    bool ok;
    {
        std::lock_guard<std::mutex> lock(writeMutex_);
        if (writeFailed_.load())
            return false;
        ok = frame ? channel_.writeBytes(bytes)
                   : channel_.writeLine(bytes);
        const uint64_t sent = channel_.bytesWritten();
        frontEnd_.obsBytesSent_->inc(sent - lastBytesSent_);
        lastBytesSent_ = sent;
        if (!ok) {
            // Sticky: once the peer is gone the read loop stops
            // admitting its pipelined requests and closes, and the
            // session learns at once that its streams serve nobody.
            writeFailed_.store(true);
            frontEnd_.obsWriteFailures_->inc();
            if (session_)
                session_->peerGone();
        }
    }
    frontEnd_.obsWriteStallUs_->inc(monotonicMicros() - startUs);
    return ok;
}

FrontEnd::FrontEnd(const ListenOptions &options, SessionFactory open)
    : open_(std::move(open)),
      socketPath_(options.socketPath.empty() ? defaultSocketPath()
                                             : options.socketPath)
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    obsConnections_ = reg.gauge("service_connections");
    obsConnectionsTotal_ = reg.counter("service_connections_total");
    obsWriteStallUs_ = reg.counter("service_write_stall_us_total");
    obsWriteFailures_ = reg.counter("service_write_failures_total");
    obsBytesSent_ = reg.counter("service_bytes_sent");
    obsBytesReceived_ = reg.counter("service_bytes_received");

    // A leftover socket file from a killed daemon would block bind();
    // only a *connectable* socket means a live daemon.
    std::string connectError;
    const int probe = connectToDaemon(socketPath_, &connectError);
    if (probe >= 0) {
        ::close(probe);
        fatal("another mtvd is already serving '%s'",
              socketPath_.c_str());
    }
    ::unlink(socketPath_.c_str());

    std::vector<Endpoint> endpoints = {Endpoint::unixSocket(socketPath_)};
    if (!options.tcpHost.empty())
        endpoints.push_back(Endpoint::tcp(options.tcpHost, options.tcpPort));
    for (const Endpoint &endpoint : endpoints) {
        Listener listener;
        listener.fd = listenOnEndpoint(endpoint, &listener.endpoint);
        listeners_.push_back(listener);
    }
}

FrontEnd::~FrontEnd()
{
    stop();
    // serve() may never have run; teardown is idempotent.
    closeConnections();
    for (const Listener &listener : listeners_)
        ::close(listener.fd);
    ::unlink(socketPath_.c_str());
}

void
FrontEnd::serve(const std::string &detail)
{
    for (const Listener &listener : listeners_) {
        inform("mtvd: listening on %s (%s)",
               listener.endpoint.describe().c_str(), detail.c_str());
    }
    // One accept loop over every listener (unix + TCP): poll for a
    // readable listening socket, accept, hand the connection its
    // thread. Both transports feed the identical read loop.
    std::vector<pollfd> fds;
    fds.reserve(listeners_.size());
    for (const Listener &listener : listeners_)
        fds.push_back(pollfd{listener.fd, POLLIN, 0});
    while (!stopping_.load()) {
        const int ready = ::poll(fds.data(), fds.size(), 500);
        if (stopping_.load())
            break;
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;  // the listen set is genuinely broken
        }
        for (size_t i = 0; ready > 0 && i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLERR | POLLHUP)))
                continue;
            const int fd = ::accept(listeners_[i].fd, nullptr, nullptr);
            if (fd < 0) {
                if (stopping_.load())
                    break;
                if (errno == EMFILE || errno == ENFILE ||
                    errno == ECONNABORTED || errno == EPROTO) {
                    // Transient pressure (fd exhaustion, aborted
                    // handshake) must not take the shared daemon
                    // down; back off and keep serving.
                    warn("mtvd: accept failed: %s — retrying",
                         std::strerror(errno));
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(100));
                }
                continue;
            }
            if (listeners_[i].endpoint.kind == Endpoint::Kind::Tcp) {
                // Nagle would stall every small response line by up
                // to 40ms; the protocol is latency-bound lines.
                int one = 1;
                ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof(one));
            }
            std::lock_guard<std::mutex> lock(connectionsMutex_);
            for (auto &thread : finishedConnections_)
                thread.join();  // no dead-thread accumulation
            finishedConnections_.clear();
            activeConnections_.emplace(
                fd, std::thread([this, fd] { handleConnection(fd); }));
        }
    }
}

void
FrontEnd::stop()
{
    // Kept async-signal-safe (mtvd calls this from SIGTERM/SIGINT):
    // flag + shutdown only; joining happens in closeConnections().
    stopping_.store(true);
    for (const Listener &listener : listeners_)
        ::shutdown(listener.fd, SHUT_RDWR);
}

void
FrontEnd::closeConnections()
{
    // Joins happen OUTSIDE connectionsMutex_: a connection thread's
    // last act is to lock it and retire its own handle.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        for (auto &connection : activeConnections_) {
            ::shutdown(connection.first, SHUT_RDWR);
            threads.push_back(std::move(connection.second));
        }
        activeConnections_.clear();
        for (auto &thread : finishedConnections_)
            threads.push_back(std::move(thread));
        finishedConnections_.clear();
    }
    for (auto &thread : threads)
        thread.join();
}

void
FrontEnd::handleConnection(int fd)
{
    Connection connection(*this, fd, nextConnectionId_.fetch_add(1));
    obsConnections_->add(1);
    obsConnectionsTotal_->inc();
    {
        const std::unique_ptr<Session> session = open_(connection);
        connection.session_ = session.get();
        std::string line;
        uint64_t lastBytesReceived = 0;
        while (!stopping_.load() && !connection.writeFailed()) {
            const LineChannel::MessageKind kind =
                connection.channel_.readMessage(&line);
            const uint64_t received = connection.channel_.bytesRead();
            obsBytesReceived_->inc(received - lastBytesReceived);
            lastBytesReceived = received;
            if (kind == LineChannel::MessageKind::Eof)
                break;
            if (kind != LineChannel::MessageKind::Line) {
                // Frames flow server->client only: the peer lost the
                // framing, and an unframed byte stream cannot be
                // resynchronized. One structured error, then close.
                Json err =
                    errorJson("binary frame on the request channel");
                err.set("badFrame", true);
                connection.write(err.dump());
                break;
            }
            if (!line.empty() && !dispatch(line, connection, *session))
                break;
        }
    }
    obsConnections_->add(-1);
    // Retire our own thread handle while the descriptor is still
    // open, so teardown can never shutdown() a recycled fd. During
    // teardown the entry may already be gone (teardown owns it then).
    std::lock_guard<std::mutex> lock(connectionsMutex_);
    auto self = activeConnections_.find(fd);
    if (self != activeConnections_.end()) {
        finishedConnections_.push_back(std::move(self->second));
        activeConnections_.erase(self);
    }
}

bool
FrontEnd::dispatch(const std::string &line, Connection &connection,
                   Session &session)
{
    Json body;
    std::string parseError;
    if (!Json::parse(line, &body, &parseError))
        return connection.write(errorJson(parseError).dump());
    try {
        // Client input flows through fatal()-reporting validation
        // (JSON shape, RunSpec::parse, expandSweep, a fleet with no
        // live node left); it must answer this client, not kill the
        // daemon.
        ScopedFatalAsException fatalScope;
        Request request{body, body.getString("op"),
                        safeRequestId(body), monotonicMicros(), {}};
        if (request.op == "hello") {
            // Result points stream as frames on every connection; a
            // v6-style hello only confirms that (or errors for any
            // other encoding, "json" included).
            const std::string wanted = body.getString("wire", "binary");
            if (wanted != "binary") {
                return connection.write(
                    errorJson("unsupported wire format '" + wanted +
                              "' (result points stream as binary "
                              "frames only)")
                        .dump());
            }
            Json ok = Json::object();
            ok.set("ok", true);
            ok.set("hello", true);
            ok.set("wire", wanted);
            ok.set("protocol", serviceProtocolVersion);
            return connection.write(ok.dump());
        }
        if (request.op == "shutdown") {
            Json ok = Json::object();
            ok.set("ok", true);
            ok.set("stopping", true);
            connection.write(ok.dump());
            inform("mtvd: shutdown requested by client");
            stop();
            return false;
        }
        if (request.op != "sweep" && request.op != "compare")
            return session.handle(request);
        // Errors with machine-matchable fields, so routers and
        // scripted clients need not parse prose: an unknown family
        // names itself and the registered ones, ...
        request.sweep = sweepRequestFromJson(body);
        const std::string &family = request.sweep.family;
        bool known = false;
        for (const SweepFamilyInfo &info : sweepFamilies())
            known = known || info.name == family;
        if (!known) {
            Json err = requestErrorJson(
                request.id, "unknown sweep family '" + family + "'");
            err.set("badFamily", family);
            err.set("families", sweepFamilyNames());
            return connection.write(err.dump());
        }
        // ... and a compare needs slices that pair row-wise against
        // slice 0, the baseline design (suite-grouping and groupings
        // do not), checked before any point runs.
        if (request.op == "compare") {
            const SweepBuilder expansion = expandSweep(request.sweep);
            const std::vector<SweepSlice> &slices = expansion.slices();
            bool comparable = slices.size() >= 2;
            for (const SweepSlice &slice : slices)
                comparable = comparable && slice.count == slices[0].count;
            if (!comparable) {
                Json err = requestErrorJson(
                    request.id, "sweep family '" + family +
                                    "' is not design-parallel and "
                                    "cannot be compared");
                err.set("notComparable", family);
                return connection.write(err.dump());
            }
        }
        return session.handle(request);
    } catch (const FatalError &e) {
        // A line that is JSON but no object lands here too (its first
        // member lookup fails). A request id, when present, routes
        // the error to its sender.
        Json err = errorJson(e.what());
        if (body.type() == Json::Type::Object && body.has("id"))
            err.set("id", safeRequestId(body));
        return connection.write(err.dump());
    }
}

} // namespace mtv
