/**
 * @file
 * Regenerates the paper's Table 2: speedup of traditional, full and
 * selective vectorization over modulo scheduling on the nine SPEC FP
 * analog suites (Table 1 machine, VL = 2, misaligned vector memory,
 * communication costs considered).
 *
 * Paper reference values are printed beside the measured ones; the
 * *shape* — who wins, by roughly what factor — is the reproduction
 * target (the workloads are synthetic analogs, not SPEC).
 */

#include <cmath>
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
    double traditional;
    double full;
    double selective;
};

const PaperRow kPaper[] = {
    {"093.nasa7", 0.18, 0.76, 1.04},  {"101.tomcatv", 0.71, 0.99, 1.38},
    {"103.su2cor", 0.63, 0.94, 1.15}, {"104.hydro2d", 0.94, 1.00, 1.03},
    {"125.turb3d", 0.38, 0.93, 0.95}, {"146.wave5", 0.76, 0.96, 1.03},
    {"171.swim", 1.01, 1.00, 1.17},   {"172.mgrid", 0.53, 0.99, 1.26},
    {"301.apsi", 0.51, 0.97, 1.02},
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace selvec;
    BenchCli cli = BenchCli::parse(argc, argv);
    Machine machine = paperMachine();
    JsonValue doc = benchDocument("bench_table2", cli.mode());
    JsonValue suites = JsonValue::array();

    std::printf("Table 2: speedup over modulo scheduling "
                "(measured | paper)\n");
    std::printf("%-14s %19s %19s %19s\n", "Benchmark", "Traditional",
                "Full", "Selective");

    double geo_meas = 1.0;
    double geo_paper = 1.0;
    int count = 0;

    for (const PaperRow &row : kPaper) {
        Suite suite = makeSuite(row.name);
        if (cli.quick)
            applyQuickMode(suite);
        EvaluateOptions eopt = cli.evalOptions();
        SuiteReport base =
            evaluateSuite(suite, machine, Technique::ModuloOnly, eopt);
        SuiteReport trad = evaluateSuite(suite, machine,
                                         Technique::Traditional, eopt);
        SuiteReport full =
            evaluateSuite(suite, machine, Technique::Full, eopt);
        SuiteReport sel =
            evaluateSuite(suite, machine, Technique::Selective, eopt);

        double s_trad = speedupOver(base, trad);
        double s_full = speedupOver(base, full);
        double s_sel = speedupOver(base, sel);
        std::printf("%-14s %8.2f | %4.2f %11.2f | %4.2f %11.2f | %4.2f\n",
                    row.name, s_trad, row.traditional, s_full, row.full,
                    s_sel, row.selective);
        geo_meas *= s_sel;
        geo_paper *= row.selective;
        ++count;

        suites.append(jsonOfSuiteComparison(base, {trad, full, sel}));
    }
    double geomean = std::pow(geo_meas, 1.0 / count);
    std::printf("%-14s %19s %19s %9.2f | %4.2f\n", "geomean", "", "",
                geomean, std::pow(geo_paper, 1.0 / count));

    doc.set("suites", std::move(suites));
    doc.set("geomean_selective_speedup", geomean);
    finishBenchJson(cli, doc);
    return 0;
}
