/**
 * @file
 * Example: the fairness/throughput trade-off between thread
 * scheduling policies. The paper's unfair run-until-block policy
 * exists so thread 0 barely notices its companions; this example
 * measures exactly that — thread 0's slowdown versus its solo run —
 * for each policy, alongside aggregate throughput.
 */

#include <cstdio>
#include <cstdlib>

#include "src/api/engine.hh"
#include "src/common/table.hh"
#include "src/workload/suite.hh"

int
main(int argc, char **argv)
{
    using namespace mtv;
    const double scale =
        argc > 1 ? std::atof(argv[1]) : workloadDefaultScale;
    ExperimentEngine engine;

    // Thread 0 runs arc2d; three latency-hungry companions compete.
    const std::vector<std::string> group = {"arc2d", "tomcatv", "trfd",
                                            "dyfesm"};
    const std::vector<SchedPolicy> policies = {
        SchedPolicy::UnfairLowest, SchedPolicy::FairLru,
        SchedPolicy::RoundRobin};

    std::vector<RunSpec> specs;
    for (const auto policy : policies) {
        MachineParams p = MachineParams::multithreaded(4);
        p.sched = policy;
        specs.push_back(RunSpec::group(group, p, scale));
    }
    const std::vector<RunResult> results = engine.runAll(specs);

    const uint64_t solo =
        engine
            .run(RunSpec::reference("arc2d", MachineParams::reference(),
                                    scale))
            .stats.cycles;
    std::printf("thread 0 = arc2d (solo: %llu cycles); companions: "
                "tomcatv, trfd, dyfesm\n\n",
                static_cast<unsigned long long>(solo));

    Table t({"policy", "thread-0 slowdown", "speedup (all work)",
             "mem-port"});
    for (size_t i = 0; i < policies.size(); ++i) {
        const RunResult &r = results[i];
        t.row()
            .add(schedPolicyName(policies[i]))
            .add(static_cast<double>(r.stats.cycles) / solo, 3)
            .add(r.speedup, 3)
            .add(r.mthOccupation, 3);
    }
    t.print();
    std::printf("\nthread-0 slowdown is the group completion time of "
                "thread 0's single run over its solo time. The unfair "
                "policy keeps it lowest — the property the paper "
                "designed for.\n");
    return 0;
}
