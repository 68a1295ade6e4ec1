/**
 * @file
 * Figure 12: the Fujitsu VP2000-style dual-scalar machine (two full
 * decode/scalar units sharing the vector facility, up to 2 dispatches
 * per cycle) versus pure 2-context multithreading, with the 3- and
 * 4-context machines for reference, across memory latencies.
 */

#include "bench/bench_util.hh"
#include "src/common/table.hh"

int
main()
{
    using namespace mtv;
    const double scale = benchScale();
    benchBanner("Figure 12 - dual scalar units vs multithreading",
                "Espasa & Valero, HPCA-3 1997, Figure 12", scale);

    const auto &jobs = jobQueueOrder();
    const auto &lats = sweepLatencies();

    // Four machines per latency: mth2, fujitsu, mth3, mth4.
    const std::vector<MachineParams> machines = {
        MachineParams::multithreaded(2),
        MachineParams::fujitsuDualScalar(),
        MachineParams::multithreaded(3),
        MachineParams::multithreaded(4),
    };
    SweepBuilder sweep(scale);
    for (const int lat : lats) {
        for (MachineParams p : machines) {
            p.memLatency = lat;
            sweep.addJobQueue(jobs, p);
        }
    }

    ExperimentEngine engine = benchEngine();
    const std::vector<RunResult> results = engine.runAll(sweep.specs());

    Table t({"latency", "mth2 (k)", "fujitsu (k)", "mth3 (k)",
             "mth4 (k)", "fuj advantage %"});
    double advAt1 = 0;
    double advAt100 = 0;
    size_t next = 0;
    for (const int lat : lats) {
        const double mth2 =
            static_cast<double>(results[next++].stats.cycles);
        const double fuj =
            static_cast<double>(results[next++].stats.cycles);
        const double mth3 =
            static_cast<double>(results[next++].stats.cycles);
        const double mth4 =
            static_cast<double>(results[next++].stats.cycles);
        const double adv = 100.0 * (mth2 / fuj - 1.0);
        t.row()
            .add(lat)
            .add(mth2 / 1e3, 1)
            .add(fuj / 1e3, 1)
            .add(mth3 / 1e3, 1)
            .add(mth4 / 1e3, 1)
            .add(adv, 2);
        if (lat == 1)
            advAt1 = adv;
        if (lat == 100)
            advAt100 = adv;
    }
    t.print();
    std::printf("\nfujitsu advantage over mth2: %.2f%% at latency 1 "
                "(paper: ~3%%), %.2f%% at latency 100 (paper: <0.1%% — "
                "the curves converge as scalar code leaves the "
                "critical path). mth3/mth4 outperform both.\n",
                advAt1, advAt100);
    return 0;
}
