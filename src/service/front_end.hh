/**
 * @file
 * FrontEnd: everything an mtvd daemon does before a request reaches
 * its engine (MtvService, src/service/server.hh) or its fleet router
 * (FleetService, src/fleet/fleet_service.hh). Both daemons run it, so
 * they answer framing and client errors identically;
 * only the op table behind it (a Session per connection) differs.
 *
 * Listening: a unix socket (a connectable one means another live
 * daemon, which is fatal; a stale file is unlinked) plus an optional
 * TCP endpoint, one poll()-based accept loop, one thread per
 * connection, TCP_NODELAY on TCP.
 *
 * Reading: a binary frame on the request channel answers a badFrame
 * error and closes (framing is lost); a line that is not JSON, or not
 * a JSON object, answers an error without id and the connection lives
 * on. The front end serves "hello" and "shutdown" itself and rejects
 * a sweep or compare of an unknown family, or a compare of a family
 * that is not design-parallel. Every other request goes to the
 * Session, synchronously, under ScopedFatalAsException: a fatal() in
 * a handler answers one error line carrying the request's id when it
 * has one (absent or malformed ids read 0), never a crash.
 */

#ifndef MTV_SERVICE_FRONT_END_HH
#define MTV_SERVICE_FRONT_END_HH

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/api/sweep.hh"
#include "src/obs/metrics.hh"
#include "src/service/protocol.hh"

namespace mtv
{

/** {"error":message}: an error no request id is attributable to. */
Json errorJson(const std::string &message);

/** {"error":message,"id":id}: an error that belongs to one request. */
Json requestErrorJson(uint64_t id, const std::string &message);

/** The registered sweep family names (ping and badFamily errors). */
Json sweepFamilyNames();

/** Where a daemon listens. */
struct ListenOptions
{
    /** Unix socket path to listen on. Empty = defaultSocketPath(). */
    std::string socketPath;
    /** TCP listen host ("mtvd --tcp HOST:PORT"); empty = unix socket
     *  only. Both listeners serve the identical protocol; TCP is what
     *  lets mtvd nodes form a fleet across machines (src/fleet/). */
    std::string tcpHost;
    /** TCP listen port; 0 = ephemeral (tests and smoke scripts read
     *  the bound port back via tcpPort() or the startup line). */
    int tcpPort = 0;
};

/** One request line, parsed and pre-checked by the front end. */
struct Request
{
    const Json &body;        ///< the request line, a JSON object
    std::string op;
    uint64_t id = 0;         ///< "id"; 0 when absent or malformed
    uint64_t arrivedUs = 0;  ///< monotonicMicros() when read
    SweepRequest sweep;      ///< sweep/compare: the family fields
};

class FrontEnd;
class Session;

/**
 * One client connection: the line channel behind a write funnel
 * (response lines and frames may come from several threads) and a
 * sticky failure flag.
 */
class Connection
{
  public:
    Connection(FrontEnd &frontEnd, int fd, uint64_t id);

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Daemon-unique connection id (status reporting). */
    uint64_t id() const { return id_; }

    /** Thread-safe line write; false once the peer is gone. */
    bool write(const std::string &line) { return writeOut(line, false); }
    /** The same for pre-encoded frame bytes (no newline added). */
    bool writeFrameBytes(const std::string &b) { return writeOut(b, true); }

    /** A write found the peer gone (sticky). */
    bool writeFailed() const { return writeFailed_.load(); }

  private:
    friend class FrontEnd;

    bool writeOut(const std::string &bytes, bool frame);

    FrontEnd &frontEnd_;
    uint64_t id_;
    LineChannel channel_;
    std::mutex writeMutex_;
    std::atomic<bool> writeFailed_{false};
    /** channel_.bytesWritten() already counted (under writeMutex_). */
    uint64_t lastBytesSent_ = 0;
    /** Told when a write finds the peer gone; set before the first
     *  request, and the session outlives every write made for it. */
    Session *session_ = nullptr;
};

/**
 * A daemon's side of one connection: its op table plus whatever
 * per-connection state the ops need. Created when the connection is
 * accepted; destroyed on the connection's thread once its read loop
 * ended (the peer is gone or the daemon is stopping).
 */
class Session
{
  public:
    Session() = default;
    virtual ~Session() = default;

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Serve one request: any op but hello and shutdown. Returns
     *  false when the connection should close. */
    virtual bool handle(const Request &request) = 0;

    /** A write found the peer gone. Called once, from the writing
     *  thread, under the connection's write mutex. */
    virtual void peerGone() {}
};

/** Listeners, accept loop and read loop of one daemon. */
class FrontEnd
{
  public:
    /** Makes the Session of a freshly accepted connection. */
    using SessionFactory =
        std::function<std::unique_ptr<Session>(Connection &)>;

    /** Bind and listen. fatal()s on an unusable endpoint or when
     *  another live daemon already serves the socket. */
    FrontEnd(const ListenOptions &options, SessionFactory open);
    ~FrontEnd();

    FrontEnd(const FrontEnd &) = delete;
    FrontEnd &operator=(const FrontEnd &) = delete;

    /** Log "mtvd: listening on <endpoint> (<detail>)" per listener,
     *  then accept clients until stop(). Connections outlive it;
     *  closeConnections() ends them. */
    void serve(const std::string &detail);

    /** Ask serve() to return: a flag and a listener shutdown, so it
     *  is safe from any thread and from signal context. */
    void stop();

    bool stopping() const { return stopping_.load(); }

    /** Shut down every connection and join its thread. Idempotent. */
    void closeConnections();

    const std::string &socketPath() const { return socketPath_; }

    /** Bound TCP port, or 0 when no TCP listener was configured (the
     *  TCP listener comes last; a unix endpoint has port 0). */
    int tcpPort() const { return listeners_.back().endpoint.port; }

  private:
    friend class Connection;

    struct Listener
    {
        int fd = -1;
        Endpoint endpoint;
    };

    void handleConnection(int fd);
    /** Serve one request line; false closes the connection. */
    bool dispatch(const std::string &line, Connection &connection,
                  Session &session);

    SessionFactory open_;
    std::string socketPath_;
    std::vector<Listener> listeners_;
    std::atomic<bool> stopping_{false};
    std::atomic<uint64_t> nextConnectionId_{1};

    std::mutex connectionsMutex_;
    /** Live connections: fd -> serving thread. */
    std::unordered_map<int, std::thread> activeConnections_;
    /** Threads whose connection ended, joined on the next accept. */
    std::vector<std::thread> finishedConnections_;

    // Process-wide connection health (src/obs/metrics.hh); the write
    // counters are fed by Connection::writeOut().
    Gauge *obsConnections_ = nullptr;
    Counter *obsConnectionsTotal_ = nullptr;
    Counter *obsWriteStallUs_ = nullptr;
    Counter *obsWriteFailures_ = nullptr;
    Counter *obsBytesSent_ = nullptr;
    Counter *obsBytesReceived_ = nullptr;
};

} // namespace mtv

#endif // MTV_SERVICE_FRONT_END_HH
