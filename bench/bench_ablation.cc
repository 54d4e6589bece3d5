/**
 * @file
 * Ablation studies for the design choices DESIGN.md calls out:
 *
 *  1. Vector length sweep — the paper (section 4) predicts selective
 *     vectorization matters most at short vector lengths; as VL grows
 *     the vector units overwhelm the scalar side and full
 *     vectorization catches up.
 *  2. Operand transfer model — through-memory (the evaluated machine)
 *     vs direct register moves vs free transfers.
 *  3. Bin-packing insertion order — constrained-ops-first (the
 *     paper's heuristic) vs program order.
 *  4. Kernighan-Lin iterations — converged vs capped at one pass.
 */

#include <cmath>
#include <cstdio>

#include "driver/evaluate.hh"
#include "lir/lir.hh"
#include "machine/binpack.hh"
#include "machine/machine.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace selvec;

double
geomeanSpeedup(const Machine &machine, Technique technique,
               const DriverOptions &options = {})
{
    double product = 1.0;
    int count = 0;
    for (const std::string &name : suiteNames()) {
        Suite suite = makeSuiteOrDie(name);
        EvaluateOptions eval;
        eval.driver = options;
        SuiteReport base = evaluateSuite(suite, machine,
                                         Technique::ModuloOnly, eval);
        SuiteReport tech =
            evaluateSuite(suite, machine, technique, eval);
        product *= speedupOver(base, tech);
        ++count;
    }
    return std::pow(product, 1.0 / count);
}

void
vectorLengthSweep()
{
    std::printf("Ablation 1: vector length sweep (geomean speedup "
                "over modulo scheduling)\n");
    std::printf("%6s %12s %12s %12s\n", "VL", "full", "selective",
                "sel-full");
    for (int vl : {2, 4, 8}) {
        Machine machine = paperMachine();
        machine.vectorLength = vl;
        double full = geomeanSpeedup(machine, Technique::Full);
        double sel = geomeanSpeedup(machine, Technique::Selective);
        std::printf("%6d %12.3f %12.3f %+12.3f\n", vl, full, sel,
                    sel - full);
    }
    std::printf("\n");
}

void
transferModelSweep()
{
    std::printf("Ablation 2: operand transfer model (selective "
                "geomean speedup)\n");
    struct Row
    {
        const char *name;
        TransferModel model;
    };
    for (const Row &row :
         {Row{"through-memory", TransferModel::ThroughMemory},
          Row{"direct-move", TransferModel::DirectMove},
          Row{"free", TransferModel::Free}}) {
        Machine machine = paperMachine();
        machine.transfer = row.model;
        std::printf("%16s %8.3f\n", row.name,
                    geomeanSpeedup(machine, Technique::Selective));
    }
    std::printf("\n");
}

void
packingOrderAblation()
{
    std::printf("Ablation 3: bin-packing insertion order over random "
                "op bags\n");
    Machine machine = paperMachine();
    Rng rng(2024);
    GeneratorOptions heavy;
    heavy.minOps = 24;
    heavy.maxOps = 48;
    heavy.divProb = 0.25;   // multi-cycle reservations stress order
    int ordered_better = 0, equal = 0, worse = 0;
    for (int trial = 0; trial < 200; ++trial) {
        GeneratedLoop g = generateLoop(rng, heavy);
        std::vector<Opcode> bag;
        for (const Operation &op : g.loop().ops)
            bag.push_back(op.opcode);

        int64_t ordered = packedHighWater(machine, bag);
        ReservationBins raw(machine);
        for (Opcode op : bag)
            raw.reserve(op);
        int64_t unordered = raw.highWaterMark();
        if (ordered < unordered)
            ++ordered_better;
        else if (ordered == unordered)
            ++equal;
        else
            ++worse;
    }
    std::printf("  constrained-first better: %d  equal: %d  worse: "
                "%d (of 200)\n",
                ordered_better, equal, worse);
    std::printf("  (with disjoint unit classes and the squared-weight "
                "tiebreak the high-water\n   mark is order-insensitive; "
                "the ordering heuristic matters on machines whose\n"
                "   opcodes overlap several unit kinds)\n\n");
}

void
klIterationAblation()
{
    std::printf("Ablation 4: Kernighan-Lin converged vs one pass "
                "(selective geomean speedup)\n");
    Machine machine = paperMachine();
    DriverOptions converged;
    DriverOptions capped;
    capped.partition.maxIterations = 1;
    std::printf("%16s %8.3f\n", "converged",
                geomeanSpeedup(machine, Technique::Selective,
                               converged));
    std::printf("%16s %8.3f\n", "one pass",
                geomeanSpeedup(machine, Technique::Selective, capped));
}

void
reductionRecognitionAblation()
{
    std::printf("\nAblation 5: reduction recognition (paper section 6 "
                "extension) on the dot product\n");
    Machine machine = paperMachine();
    Suite suite = dotProductSuite();
    SuiteReport base =
        evaluateSuite(suite, machine, Technique::ModuloOnly);

    EvaluateOptions off;
    off.verify = true;
    SuiteReport plain =
        evaluateSuite(suite, machine, Technique::Selective, off);

    EvaluateOptions on;
    on.verify = false;   // reassociated FP sums differ bitwise
    on.driver.vectorize.recognizeReductions = true;
    SuiteReport red =
        evaluateSuite(suite, machine, Technique::Selective, on);

    std::printf("%24s %8.3f\n", "selective (paper)",
                speedupOver(base, plain));
    std::printf("%24s %8.3f\n", "selective + reductions",
                speedupOver(base, red));
}

void
iterationSplitAblation()
{
    std::printf("\nAblation 6: iteration partitioning (section 6 "
                "larger scheduling window) vs op partitioning\n");
    // Hardware unaligned access (required by iteration splitting) and
    // through-memory transfers (which iteration splitting avoids
    // entirely).
    Machine machine = paperMachine();
    machine.alignment = AlignPolicy::AssumeAligned;

    Module m = parseLirOrDie(R"(
array U f64 34000
array V f64 34000
loop stencil {
    livein w f64
    body {
        uc = load U[i + 131]
        ue = load U[i + 132]
        uw = load U[i + 130]
        hx = fadd ue uw
        d1 = fsub hx uc
        d2 = fmul d1 w
        du = fmul d2 d2
        corr = fadd d2 du
        u1 = fadd uc corr
        store V[i + 131] = u1
    }
}
)");
    LiveEnv env;
    env["w"] = RtVal::scalarF(0.25);

    std::printf("%-18s %10s %10s\n", "technique", "II/iter", "cycles");
    for (Technique t :
         {Technique::ModuloOnly, Technique::Full, Technique::Selective,
          Technique::IterationSplit}) {
        ArrayTable arrays = m.arrays;
        DriverOptions options;
        CompiledProgram p =
            compileLoopOrDie(m.loops[0], arrays, machine, t, options);
        MemoryImage mem(arrays);
        mem.fillPattern(61);
        ExecResult r =
            tryRunCompiled(p, arrays, machine, mem, env, 4096).takeValue();
        std::printf("%-18s %10.2f %10lld\n", techniqueName(t),
                    p.iiPerIteration(),
                    static_cast<long long>(r.cycles));
    }
    for (int unroll : {4, 6}) {
        ArrayTable arrays = m.arrays;
        DriverOptions options;
        options.iterSplitUnroll = unroll;
        CompiledProgram p = compileLoopOrDie(m.loops[0], arrays, machine,
                                             Technique::IterationSplit,
                                             options);
        MemoryImage mem(arrays);
        mem.fillPattern(61);
        ExecResult r =
            tryRunCompiled(p, arrays, machine, mem, env, 4096).takeValue();
        std::printf("iter-split (u=%d)  %10.2f %10lld\n", unroll,
                    p.iiPerIteration(),
                    static_cast<long long>(r.cycles));
    }
}

} // anonymous namespace

int
main()
{
    vectorLengthSweep();
    transferModelSweep();
    packingOrderAblation();
    klIterationAblation();
    reductionRecognitionAblation();
    iterationSplitAblation();
    return 0;
}
