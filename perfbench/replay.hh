/**
 * @file
 * The traced run's in-process replay: the points of one figure pass
 * sent through the public layer APIs the daemon uses — sweep
 * expansion, the engine over a real ResultStore, program generation,
 * the simulator, the stats codec, the result wire encoders and the
 * fleet ring's routing — with a span around every call.
 */

#ifndef MTVBENCH_REPLAY_HH
#define MTVBENCH_REPLAY_HH

#include <map>
#include <string>
#include <vector>

#include "perfbench/bench.hh"
#include "src/core/sim.hh"

namespace mtvbench
{

/** Which daemon path the replay mirrors. */
enum class ReplayPath
{
    Cold,  ///< empty store: every point simulates
    Warm   ///< filled store: points load, then hit the memory cache
};

struct ReplayPlan
{
    ReplayPath path = ReplayPath::Cold;
    /** Family order and scale variant of the pass. */
    std::vector<int> order;
    int variant = 1;
    /** The engine's store directory: a fresh copy of a filled store,
     *  or an empty directory on the cold path. */
    std::string storeDir;
    /** Fleet node endpoint strings, the ring's keys. */
    std::vector<std::string> ring;
    /** Engine workers. */
    int workers = 1;
    /** The daemon's default kernel. */
    mtv::SimKernel kernel = mtv::SimKernel::Event;
};

/**
 * Run the replay, recording spans into @p tracer, and fill
 * @p metrics with the per-layer numbers it measures (see README.md).
 * False with @p error set when a check fails: a replayed simulation
 * whose blob differs from the engine's, a frame that does not round
 * trip, or a warm store that does not cover the pass.
 */
bool runReplay(const ReplayPlan &plan, Tracer &tracer,
               std::map<std::string, double> *metrics,
               std::string *error);

} // namespace mtvbench

#endif // MTVBENCH_REPLAY_HH
