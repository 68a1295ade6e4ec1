/**
 * @file
 * Figure 4: execution time of each benchmark on the reference
 * architecture, broken into the eight (FU2, FU1, LD) joint states,
 * for memory latencies 1, 20, 70 and 100. The program x latency grid
 * is declared as one RunSpec batch and executed in parallel.
 */

#include "bench/bench_util.hh"
#include "src/common/strutil.hh"
#include "src/common/table.hh"

int
main()
{
    using namespace mtv;
    const double scale = benchScale();
    benchBanner("Figure 4 - functional unit usage, reference machine",
                "Espasa & Valero, HPCA-3 1997, Figure 4", scale);

    const auto &lats = figure4Latencies();
    SweepBuilder sweep(scale);
    for (const auto &spec : benchmarkSuite()) {
        for (const int lat : lats) {
            MachineParams p = MachineParams::reference();
            p.memLatency = lat;
            sweep.addReference(spec.name, p);
        }
    }

    ExperimentEngine engine = benchEngine();
    const std::vector<RunResult> results = engine.runAll(sweep.specs());

    size_t next = 0;
    for (const auto &spec : benchmarkSuite()) {
        std::printf("%s:\n", spec.name.c_str());
        const RunResult *row = &results[next];
        next += lats.size();

        std::vector<std::string> headers = {"state"};
        for (const int lat : lats)
            headers.push_back(format("lat %d", lat));
        Table t(headers);
        // Rows in the paper's legend order, cycles in thousands.
        for (int state = 0; state < numFuStates; ++state) {
            t.row().add(fuStateName(state));
            for (size_t l = 0; l < lats.size(); ++l) {
                t.add(static_cast<double>(
                          row[l].stats.stateHist[state]) /
                          1e3,
                      1);
            }
        }
        t.row().add("total cycles (k)");
        for (size_t l = 0; l < lats.size(); ++l)
            t.add(static_cast<double>(row[l].stats.cycles) / 1e3, 1);
        t.print();
        std::printf("\n");
    }
    return 0;
}
