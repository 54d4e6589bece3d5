/**
 * @file
 * selvec_suites: per-loop compilation reports for the SPEC FP analog
 * suites.
 *
 * Usage:
 *   selvec_suites                 # summary of all nine suites
 *   selvec_suites 101.tomcatv     # per-loop detail for one suite
 *
 * For each kernel the report shows, under all four techniques, the
 * per-original-iteration ResMII and achieved II, the pipeline depth,
 * how many loops compilation produced (distribution), and the
 * simulated cycles per invocation — the raw material behind Tables
 * 2 and 3.
 */

#include <cstdio>
#include <string>

#include "driver/evaluate.hh"
#include "machine/machine.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace selvec;

void
summary()
{
    Machine machine = paperMachine();
    std::printf("%-14s %8s %8s %8s %8s\n", "suite", "trad", "full",
                "select", "loops");
    for (const std::string &name : suiteNames()) {
        Suite suite = makeSuiteOrDie(name);
        SuiteReport base =
            evaluateSuite(suite, machine, Technique::ModuloOnly);
        SuiteReport trad =
            evaluateSuite(suite, machine, Technique::Traditional);
        SuiteReport full =
            evaluateSuite(suite, machine, Technique::Full);
        SuiteReport sel =
            evaluateSuite(suite, machine, Technique::Selective);
        std::printf("%-14s %8.2f %8.2f %8.2f %8zu\n", name.c_str(),
                    speedupOver(base, trad), speedupOver(base, full),
                    speedupOver(base, sel), suite.loops.size());
    }
    std::printf("\n(run with a suite name for per-loop detail)\n");
}

void
detail(const std::string &name)
{
    Machine machine = paperMachine();
    Suite suite = makeSuiteOrDie(name);
    std::printf("%s — %s\n\n", suite.name.c_str(),
                suite.description.c_str());

    for (Technique t : {Technique::ModuloOnly, Technique::Traditional,
                        Technique::Full, Technique::Selective}) {
        SuiteReport report = evaluateSuite(suite, machine, t);
        std::printf("=== %s ===\n", techniqueName(t));
        std::printf("%-20s %6s %6s %8s %8s %6s %12s\n", "loop", "trip",
                    "invoc", "res/it", "ii/it", "loops", "cyc/invoc");
        for (const LoopReport &lr : report.loops) {
            std::printf("%-20s %6lld %6lld %8.2f %8.2f %6d %12lld",
                        lr.name.c_str(),
                        static_cast<long long>(lr.tripCount),
                        static_cast<long long>(lr.invocations),
                        lr.resMiiPerIter, lr.iiPerIter,
                        lr.distributedLoops,
                        static_cast<long long>(
                            lr.cyclesPerInvocation));
            if (t == Technique::Selective && lr.partition.anyVector()) {
                int vec = 0;
                for (bool b : lr.partition.vectorize)
                    vec += b ? 1 : 0;
                std::printf("  [vectorized %d ops, cost %lld]", vec,
                            static_cast<long long>(
                                lr.partition.bestCost));
            }
            if (!lr.resourceLimited)
                std::printf("  (recurrence-limited)");
            std::printf("\n");
        }
        std::printf("total weighted cycles: %lld\n\n",
                    static_cast<long long>(report.totalCycles));
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc > 1)
        detail(argv[1]);
    else
        summary();
    return 0;
}
