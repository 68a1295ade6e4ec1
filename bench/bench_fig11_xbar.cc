/**
 * @file
 * Figure 11: slowdown from increasing the vector register file
 * read/write crossbar latency from 2 to 3 cycles (the cost of
 * replicating the register file for 4 contexts), across memory
 * latencies. The paper finds it under 1.009 everywhere.
 */

#include <algorithm>

#include "bench/bench_util.hh"
#include "src/common/table.hh"

int
main()
{
    using namespace mtv;
    const double scale = benchScale();
    benchBanner("Figure 11 - register-crossbar latency slowdown",
                "Espasa & Valero, HPCA-3 1997, Figure 11", scale);

    const auto &jobs = jobQueueOrder();
    const auto &lats = sweepLatencies();
    const std::vector<int> contexts = {2, 3, 4};

    // Fast (xbar 2/2) and slow (xbar 3/3) machine per point.
    SweepBuilder sweep(scale);
    for (const int lat : lats) {
        for (const int c : contexts) {
            MachineParams fast = MachineParams::multithreaded(c);
            fast.memLatency = lat;
            MachineParams slow = fast;
            slow.readXbar = 3;
            slow.writeXbar = 3;
            sweep.addJobQueue(jobs, fast).addJobQueue(jobs, slow);
        }
    }

    ExperimentEngine engine = benchEngine();
    const std::vector<RunResult> results = engine.runAll(sweep.specs());

    Table t({"latency", "2 threads", "3 threads", "4 threads"});
    double worst = 0;
    size_t next = 0;
    for (const int lat : lats) {
        t.row().add(lat);
        for (size_t c = 0; c < contexts.size(); ++c) {
            const double fast =
                static_cast<double>(results[next].stats.cycles);
            const double slow =
                static_cast<double>(results[next + 1].stats.cycles);
            next += 2;
            const double slowdown = slow / fast;
            t.add(slowdown, 4);
            worst = std::max(worst, slowdown);
        }
    }
    t.print();
    std::printf("\nworst slowdown: %.4f (paper: < 1.009 — vector "
                "granularity, multithreading and chaining all mask "
                "the extra cycle)\n",
                worst);
    return 0;
}
