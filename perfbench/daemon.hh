/**
 * @file
 * The client side of the benchmark: mtvd child processes, their /proc
 * readings, and the figure pass driven over one binary-wire
 * connection.
 */

#ifndef MTVBENCH_DAEMON_HH
#define MTVBENCH_DAEMON_HH

#include <sys/types.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.hh"
#include "src/service/json.hh"
#include "src/service/protocol.hh"

namespace mtvbench
{

/** One mtvd child process, started in the current directory. */
class Daemon
{
  public:
    /** Fork and exec @p binary with @p args; stdout and stderr go to
     *  @p logPath. spawnNs() is taken just before the fork. */
    Daemon(const std::string &binary, const std::vector<std::string> &args,
           const std::string &socket, const std::string &logPath);
    /** Kills a daemon that was never shut down (error paths only). */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    uint64_t spawnNs() const { return spawnNs_; }

    /** User plus system CPU of the process so far, in seconds. */
    double cpuSeconds() const;
    /** Peak resident set (VmHWM), in MiB. */
    double peakRssMb() const;

    /**
     * Stop the daemon with the `shutdown` op and wait for it to exit.
     * False when it had to be killed or exited uncleanly — a killed
     * daemon leaves header-only store segments behind.
     */
    bool shutdown(std::string *error);

  private:
    bool waitExit(double timeoutS, int *status);

    std::string socket_;
    pid_t pid_ = -1;
    uint64_t spawnNs_ = 0;
};

/**
 * Connect to the daemon at @p socket once it listens, then `ping` and
 * negotiate the binary wire. Null (with @p error set) on timeout or a
 * refused hello.
 */
std::unique_ptr<mtv::LineChannel>
connectReady(const std::string &socket, double timeoutS,
             std::string *error);

/** One request line answered by one JSON line (nothing else may be in
 *  flight on @p channel). */
bool roundTrip(mtv::LineChannel &channel, const mtv::Json &request,
               mtv::Json *response, std::string *error);

/** A metrics registry read through the `metrics` op. */
struct Registry
{
    std::map<std::string, double> counters;
    /** Histogram name -> (count, sum). */
    std::map<std::string, std::pair<double, double>> histograms;

    double counter(const std::string &name) const;
    /** Sum of every counter whose name starts with @p prefix (labelled
     *  series such as per-shard counters). */
    double counterSum(const std::string &prefix) const;
};

/** The `metrics` op answer: the daemon's own registry, plus one
 *  registry per node when the daemon is a fleet router. */
struct MetricsReading
{
    Registry own;
    std::vector<Registry> nodes;
};

bool readMetrics(mtv::LineChannel &channel, MetricsReading *out,
                 std::string *error);

/** What one figure pass delivered. */
struct PassOutcome
{
    uint64_t attempted = 0;    ///< points the pass asked for
    uint64_t completed = 0;    ///< points delivered with a good digest
    uint64_t simulated = 0;    ///< from the done lines
    uint64_t firstPointNs = 0; ///< send -> first point
    uint64_t doneNs = 0;       ///< send -> last done line
    std::vector<std::string> errors;

    uint64_t failed() const { return attempted - completed; }
};

/**
 * Send the pass's six sweep requests pipelined on @p channel (family
 * order @p order, scale variant @p variant, request ids from
 * @p firstId) and read until every done line arrived. Every point's
 * blob is folded client-side; each request's digest must equal both
 * the done line's and the pinned one. With a @p tracer, records the
 * pass span, one span per request and one per readMessage() call.
 */
PassOutcome runPass(mtv::LineChannel &channel, const std::vector<int> &order,
                    int variant, uint64_t firstId, Tracer *tracer,
                    uint32_t passId);

/**
 * Send the same six requests as runPass() but read only until the
 * first point arrives; the caller then drops the connection, which
 * makes the daemon discard the rest. Returns send -> first point in
 * ns, or 0 when the stream failed first.
 */
uint64_t probeFirstPoint(mtv::LineChannel &channel,
                         const std::vector<int> &order, int variant,
                         uint64_t firstId);

} // namespace mtvbench

#endif // MTVBENCH_DAEMON_HH
