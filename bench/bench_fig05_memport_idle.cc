/**
 * @file
 * Figure 5: percentage of cycles the single memory port is idle on
 * the reference architecture, for four memory latencies. The paper
 * reads 30-65% idle at latency 70 — all of it an opportunity for
 * another thread's memory instructions.
 */

#include "bench/bench_util.hh"
#include "src/common/strutil.hh"
#include "src/common/table.hh"

int
main()
{
    using namespace mtv;
    const double scale = benchScale();
    benchBanner("Figure 5 - % cycles with the memory port idle",
                "Espasa & Valero, HPCA-3 1997, Figure 5", scale);

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

    std::vector<std::string> headers = {"program"};
    for (const int lat : lats)
        headers.push_back(format("lat %d", lat));
    Table t(headers);
    size_t next = 0;
    for (const auto &spec : benchmarkSuite()) {
        t.row().add(spec.name);
        for (size_t l = 0; l < lats.size(); ++l)
            t.add(100.0 * results[next++].stats.memPortIdleFraction(),
                  1);
    }
    t.print();
    return 0;
}
