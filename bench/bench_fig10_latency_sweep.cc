/**
 * @file
 * Figure 10: total execution time of the ten-benchmark job queue as
 * main-memory latency sweeps from 1 to 100 cycles — baseline, 2/3/4
 * multithreaded contexts, and the dependence-free IDEAL bound. The
 * whole sweep (baseline reference runs included) is declared as one
 * RunSpec batch, so the engine saturates every worker; run with
 * MTV_WORKERS=1 to measure the serial baseline of the sweep itself.
 */

#include <chrono>

#include "bench/bench_util.hh"
#include "src/common/chart.hh"
#include "src/common/strutil.hh"
#include "src/common/table.hh"

int
main()
{
    using namespace mtv;
    const double scale = benchScale();
    benchBanner("Figure 10 - execution time vs memory latency",
                "Espasa & Valero, HPCA-3 1997, Figure 10", scale);

    ExperimentEngine engine = benchEngine();
    const auto &jobs = jobQueueOrder();
    const IdealBound ideal = engine.idealTime(jobs, scale);

    // Declare the full sweep: per latency, the ten baseline reference
    // runs (whose cycles sum to the sequential time) and the 2/3/4-
    // context job-queue runs.
    const auto &lats = sweepLatencies();
    const std::vector<int> contexts = {2, 3, 4};
    SweepBuilder sweep(scale);
    for (const int lat : lats) {
        MachineParams ref = MachineParams::reference();
        ref.memLatency = lat;
        for (const auto &job : jobs)
            sweep.addReference(job, ref);
        for (const int c : contexts) {
            MachineParams p = MachineParams::multithreaded(c);
            p.memLatency = lat;
            sweep.addJobQueue(jobs, p);
        }
    }

    const auto startTime = std::chrono::steady_clock::now();
    const std::vector<RunResult> results = engine.runAll(sweep.specs());
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               startTime)
                               .count();

    Table t({"latency", "baseline (k)", "mth2 (k)", "mth3 (k)",
             "mth4 (k)", "IDEAL (k)", "speedup mth2", "speedup mth3",
             "speedup mth4"});
    double base1 = 0;
    double mth2At1 = 0;
    double base100 = 0;
    double mth2At100 = 0;
    std::vector<double> xs;
    std::vector<double> ysBase;
    std::vector<double> ys2;
    std::vector<double> ys3;
    std::vector<double> ys4;
    std::vector<double> ysIdeal;
    const size_t perLat = jobs.size() + contexts.size();
    for (size_t l = 0; l < lats.size(); ++l) {
        const int lat = lats[l];
        const RunResult *block = &results[l * perLat];
        double base = 0;
        for (size_t j = 0; j < jobs.size(); ++j)
            base += static_cast<double>(block[j].stats.cycles);
        double mth[5] = {};
        for (size_t c = 0; c < contexts.size(); ++c) {
            mth[contexts[c]] = static_cast<double>(
                block[jobs.size() + c].stats.cycles);
        }
        t.row()
            .add(lat)
            .add(base / 1e3, 1)
            .add(mth[2] / 1e3, 1)
            .add(mth[3] / 1e3, 1)
            .add(mth[4] / 1e3, 1)
            .add(static_cast<double>(ideal.bound) / 1e3, 1)
            .add(base / mth[2], 3)
            .add(base / mth[3], 3)
            .add(base / mth[4], 3);
        if (lat == 1) {
            base1 = base;
            mth2At1 = mth[2];
        }
        if (lat == 100) {
            base100 = base;
            mth2At100 = mth[2];
        }
        xs.push_back(lat);
        ysBase.push_back(base / 1e3);
        ys2.push_back(mth[2] / 1e3);
        ys3.push_back(mth[3] / 1e3);
        ys4.push_back(mth[4] / 1e3);
        ysIdeal.push_back(static_cast<double>(ideal.bound) / 1e3);
    }
    t.print();

    std::printf("\nexecution time (k cycles) vs memory latency:\n");
    LineChart chart(64, 18);
    chart.series("baseline", xs, ysBase)
        .series("2 threads", xs, ys2)
        .series("3 threads", xs, ys3)
        .series("4 threads", xs, ys4)
        .series("IDEAL", xs, ysIdeal);
    std::fputs(chart.render().c_str(), stdout);

    std::printf("\nIDEAL binds on the %s.\n", ideal.binding());
    std::printf("baseline degradation 1 -> 100 cycles: +%.1f%%\n",
                100.0 * (base100 / base1 - 1.0));
    std::printf("mth2 degradation 1 -> 100 cycles:     +%.1f%% "
                "(paper: ~6.8%%)\n",
                100.0 * (mth2At100 / mth2At1 - 1.0));
    std::printf("paper: mth2 speedup 1.15 at latency 1, 1.45 at "
                "latency 100; the curve for 2 contexts is nearly "
                "flat.\n");
    benchEngineSummary(engine, seconds);
    return 0;
}
