/**
 * @file
 * Table 2: the randomly-selected companion programs used to form the
 * 2-, 3- and 4-thread groupings of the section 4.1 methodology (our
 * reconstruction; see DESIGN.md).
 */

#include "bench/bench_util.hh"
#include "src/common/table.hh"

int
main()
{
    using namespace mtv;
    benchBanner("Table 2 - grouping companion programs",
                "Espasa & Valero, HPCA-3 1997, Table 2", 1.0);

    Table t({"num threads", "companion programs"});
    auto join = [](const std::vector<std::string> &names) {
        std::string out;
        for (const auto &n : names) {
            if (!out.empty())
                out += ", ";
            out += n + " (" + findProgram(n).abbrev + ")";
        }
        return out;
    };
    t.row().add("2").add(join(groupingColumn2()));
    t.row().add("3").add(join(groupingColumn3()));
    t.row().add("4").add(join(groupingColumn4()));
    t.print();

    std::printf("\nper measured program X this yields:\n");
    std::printf("  %zu two-thread runs, %zu three-thread runs, "
                "%zu four-thread runs\n",
                groupingsFor("swm256", 2).size(),
                groupingsFor("swm256", 3).size(),
                groupingsFor("swm256", 4).size());
    return 0;
}
