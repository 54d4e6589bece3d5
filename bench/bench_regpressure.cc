/**
 * @file
 * Register pressure study (the paper's section 6: separate scalar and
 * vector register files mean selective vectorization can reduce
 * spilling by using both). For each suite, the maximum MaxLive over
 * its hot loops per register file and technique: the baseline loads
 * everything onto the scalar FP file, full vectorization onto the
 * vector file, and selective vectorization splits the demand.
 */

#include <algorithm>
#include <cstdio>

#include "analysis/depgraph.hh"
#include "driver/driver.hh"
#include "machine/machine.hh"
#include "pipeline/regpressure.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace selvec;

struct FilePressure
{
    int scalarInt = 0;
    int scalarFp = 0;
    int vector = 0;
};

FilePressure
suitePressure(const Suite &suite, const Machine &machine,
              Technique technique)
{
    FilePressure result;
    for (const WorkloadLoop &wl : suite.loops) {
        ArrayTable arrays = suite.module.arrays;
        CompiledProgram p = compileLoopOrDie(suite.loopOf(wl), arrays,
                                             machine, technique);
        for (const CompiledLoop &cl : p.loops) {
            RegPressure rp = computeMaxLive(cl.main, cl.mainSchedule);
            result.scalarInt = std::max(result.scalarInt, rp.scalarInt);
            result.scalarFp = std::max(result.scalarFp, rp.scalarFp);
            result.vector = std::max(result.vector, rp.vector);
        }
    }
    return result;
}

} // anonymous namespace

int
main()
{
    using namespace selvec;
    Machine machine = paperMachine();

    std::printf("Register pressure (MaxLive) per file: "
                "int/fp/vector\n");
    std::printf("%-14s %16s %16s %16s\n", "Benchmark", "modulo",
                "full", "selective");
    for (const std::string &name : suiteNames()) {
        Suite suite = makeSuiteOrDie(name);
        FilePressure base =
            suitePressure(suite, machine, Technique::ModuloOnly);
        FilePressure full =
            suitePressure(suite, machine, Technique::Full);
        FilePressure sel =
            suitePressure(suite, machine, Technique::Selective);
        std::printf("%-14s %6d/%3d/%3d %6d/%3d/%3d %6d/%3d/%3d\n",
                    name.c_str(), base.scalarInt, base.scalarFp,
                    base.vector, full.scalarInt, full.scalarFp,
                    full.vector, sel.scalarInt, sel.scalarFp,
                    sel.vector);
    }
    std::printf("\n(The paper's Table 1 files hold 128 scalar and 64 "
                "vector registers; none of\nthese kernels spill, but "
                "the split demand is the point of section 6.)\n");
    return 0;
}
