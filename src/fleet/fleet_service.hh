/**
 * @file
 * FleetService: the `mtvd --route node1,node2,...` mode — a routing
 * daemon that owns NO engine. It runs the same FrontEnd as a regular
 * mtvd (src/service/front_end.hh: listeners, read loop, "hello",
 * "shutdown", client errors) with an op table that scatters requests
 * across the nodes through a FleetRouter. A client sees one ordinary
 * daemon whose sweep stream is the folded, in-order merge of N nodes:
 * same ack, same per-point frames, same done-line digest (bit-identical
 * to a single node or `mtvctl sweep --local`), with mid-sweep node
 * deaths absorbed by the router's reroute path.
 *
 * Op table: ping and status answer with fleet fields (node counts,
 * the membership/health table); metrics gathers every live node's
 * registry plus fleet-wide counter totals and the router's own
 * registry; sweep, compare and run scatter. Engine-bound ops (stats,
 * clear, cancel) and sweeps carrying "points" answer an error: the
 * router has no cache, and scatter ends at the nodes.
 *
 * Requests are served synchronously in the front end's read loop (a
 * routed sweep streams inline). The router's health monitor runs
 * while serve() does, so dead nodes are found between requests too.
 */

#ifndef MTV_FLEET_FLEET_SERVICE_HH
#define MTV_FLEET_FLEET_SERVICE_HH

#include <string>
#include <vector>

#include "src/fleet/router.hh"
#include "src/service/front_end.hh"

namespace mtv
{

/** Configuration of one FleetService instance. */
struct FleetServiceOptions : ListenOptions
{
    /** Downstream node endpoints ("HOST:PORT" or socket paths). */
    std::vector<std::string> nodes;
    FleetOptions fleet;
};

/** The mtvd routing-daemon core (a FleetRouter behind the front end). */
class FleetService
{
  public:
    /** Parses the node list and binds the listeners; fatal()s on an
     *  unusable endpoint. Does NOT require the nodes to be up yet. */
    explicit FleetService(const FleetServiceOptions &options);

    FleetService(const FleetService &) = delete;
    FleetService &operator=(const FleetService &) = delete;

    /** Accept and serve clients until stop(); blocks. */
    void serve();

    /** Ask serve() to return. Safe from any thread / signal. */
    void stop() { frontEnd_.stop(); }

    const std::string &socketPath() const { return frontEnd_.socketPath(); }

    /** Bound TCP port (kernel-chosen for an ephemeral bind), or 0
     *  when no TCP listener was configured. */
    int tcpPort() const { return frontEnd_.tcpPort(); }

  private:
    FleetRouter router_;
    /** Declared last: destroyed first, so every connection is joined
     *  before the router it calls into goes (whose destructor stops
     *  the health monitor). */
    FrontEnd frontEnd_;
};

} // namespace mtv

#endif // MTV_FLEET_FLEET_SERVICE_HH
