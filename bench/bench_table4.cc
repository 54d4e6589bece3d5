/**
 * @file
 * Regenerates the paper's Table 4: selective vectorization's speedup
 * over modulo scheduling when communication overhead is considered
 * during partitioning vs ignored. When ignored, the transfer
 * operations are still inserted before scheduling (they are needed
 * for correctness) — the partitioner is simply blind to their cost,
 * and most benchmarks degrade severely.
 */

#include <cstdio>

#include "bench_common.hh"
#include "driver/evaluate.hh"
#include "machine/machine.hh"
#include "workloads/workloads.hh"

namespace
{

struct PaperRow
{
    const char *name;
    double considered;
    double ignored;
};

const PaperRow kPaper[] = {
    {"093.nasa7", 1.04, 0.78},  {"101.tomcatv", 1.38, 1.22},
    {"103.su2cor", 1.15, 1.02}, {"104.hydro2d", 1.03, 0.98},
    {"125.turb3d", 0.95, 0.81}, {"146.wave5", 1.03, 0.99},
    {"171.swim", 1.17, 1.08},   {"172.mgrid", 1.26, 1.14},
    {"301.apsi", 1.02, 0.97},
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace selvec;
    BenchCli cli = BenchCli::parse(argc, argv);
    Machine machine = paperMachine();
    JsonValue doc = benchDocument("bench_table4", cli.mode());
    JsonValue suites = JsonValue::array();

    std::printf("Table 4: selective vectorization speedup with "
                "communication cost considered vs ignored\n");
    std::printf("%-14s %19s %19s\n", "Benchmark",
                "Considered (paper)", "Ignored (paper)");

    for (const PaperRow &row : kPaper) {
        Suite suite = makeSuite(row.name);
        if (cli.quick)
            applyQuickMode(suite);
        SuiteReport base = evaluateSuite(
            suite, machine, Technique::ModuloOnly, cli.evalOptions());

        EvaluateOptions consider = cli.evalOptions();
        SuiteReport with_comm = evaluateSuite(
            suite, machine, Technique::Selective, consider);

        EvaluateOptions ignore = cli.evalOptions();
        ignore.driver.partition.cost.considerCommunication = false;
        SuiteReport without_comm = evaluateSuite(
            suite, machine, Technique::Selective, ignore);

        std::printf("%-14s %8.2f | %4.2f %11.2f | %4.2f\n", row.name,
                    speedupOver(base, with_comm), row.considered,
                    speedupOver(base, without_comm), row.ignored);

        // Two selective variants: entry 0 considers communication,
        // entry 1 ignores it (position is part of the schema).
        suites.append(
            jsonOfSuiteComparison(base, {with_comm, without_comm}));
    }
    doc.set("suites", std::move(suites));
    finishBenchJson(cli, doc);
    return 0;
}
