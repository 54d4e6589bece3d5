/**
 * @file
 * The reduction-recognition extension (paper section 6) in action: a
 * sum-of-squares loop whose floating-point accumulation chain bounds
 * the baseline pipeline at the FP-add latency. With
 * recognizeReductions enabled, the partitioner turns the accumulator
 * into a vector of partial sums (seeded [s0, 0]), the recurrence
 * bound divides by the vector length, and a post-loop fold restores
 * the scalar result.
 *
 * Floating-point sums are reassociated, so the result is compared
 * against the sequential reference with a tolerance rather than
 * bitwise — exactly why the paper's own evaluation left reductions
 * sequential and why the extension is opt-in here.
 */

#include <cmath>
#include <cstdio>

#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "pipeline/printer.hh"

int
main()
{
    using namespace selvec;

    Module module = parseLirOrDie(R"(
array X f64 8192

loop sumsq {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        x2 = fmul x x
        s1 = fadd s x2
    }
    liveout s1
}
)");
    const Loop &loop = module.loops.front();
    Machine machine = paperMachine();
    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);
    const int64_t n = 8192;

    MemoryImage ref_mem(module.arrays);
    ref_mem.fillPattern(3);
    ExecResult ref = tryRunReference(loop, module.arrays, machine,
                                     ref_mem, env, n).takeValue();
    double want = ref.env.at("s1").laneF(0);

    struct Config
    {
        const char *label;
        bool reductions;
    };
    int64_t baseline_cycles = 0;
    for (Config config : {Config{"sequential reduction", false},
                          Config{"partial accumulators", true}}) {
        ArrayTable arrays = module.arrays;
        DriverOptions options;
        options.vectorize.recognizeReductions = config.reductions;
        CompiledProgram p = compileLoopOrDie(loop, arrays, machine,
                                             Technique::Selective, options);

        MemoryImage mem(arrays);
        mem.fillPattern(3);
        ExecResult r =
            tryRunCompiled(p, arrays, machine, mem, env, n).takeValue();
        double got = r.env.at("s1").laneF(0);
        if (config.reductions == false)
            baseline_cycles = r.cycles;

        std::printf("--- %s ---\n", config.label);
        std::printf("II/iter %.2f, RecMII %lld, cycles %lld "
                    "(%.2fx)\n",
                    p.iiPerIteration(),
                    static_cast<long long>(p.loops[0].mainRecMii),
                    static_cast<long long>(r.cycles),
                    static_cast<double>(baseline_cycles) /
                        static_cast<double>(r.cycles));
        std::printf("sum %.10g vs reference %.10g (|diff| %.3g)\n",
                    got, want, std::fabs(got - want));
        std::printf("%s\n", formatKernel(p.loops[0].main, machine,
                                         p.loops[0].mainSchedule)
                                .c_str());
    }
    return 0;
}
