/**
 * @file
 * Quickstart: compile the paper's dot product with selective
 * vectorization and watch it beat plain software pipelining.
 *
 * The flow below is the whole public API story:
 *   1. describe the loop in LIR (or build it with LoopBuilder);
 *   2. pick a machine;
 *   3. compileLoopOrDie() with a technique;
 *   4. tryRunVerified() on a memory pattern; takeValue() of its
 *      Expected result (a failed run dies with its status) holds the
 *      cycles, the live-outs and, given the source loop, the
 *      reference check's verdict.
 */

#include <cstdio>

#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "pipeline/printer.hh"

int
main()
{
    using namespace selvec;

    // 1. The loop: a dot product whose floating-point reduction must
    //    stay sequential (the paper's running example).
    Module module = parseLirOrDie(R"(
array X f64 4096
array Y f64 4096

loop dot {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        y = load Y[i]
        t = fmul x y
        s1 = fadd s t
    }
    liveout s1
}
)");
    const Loop &dot = module.loops.front();

    // 2. The machine: the paper's Figure 1 example (3 issue slots,
    //    one vector instruction per cycle, free scalar<->vector
    //    communication). On this machine the dot product is the
    //    paper's headline: II 2.0 scalar, 1.0 selective. (On the
    //    Table 1 machine this loop is bound by the FP-add recurrence
    //    and no technique can improve it -- try paperMachine() here
    //    and watch every II come out equal.)
    Machine machine = toyMachine();

    // 3. Compile under the baseline and under selective vectorization.
    ArrayTable arrays = module.arrays;
    CompiledProgram baseline =
        compileLoopOrDie(dot, arrays, machine, Technique::ModuloOnly);
    CompiledProgram selective =
        compileLoopOrDie(dot, arrays, machine, Technique::Selective);

    std::printf("baseline II/iteration:  %.2f\n",
                baseline.iiPerIteration());
    std::printf("selective II/iteration: %.2f\n",
                selective.iiPerIteration());
    std::printf("\nselective kernel:\n%s\n",
                formatKernel(selective.loops[0].main, machine,
                             selective.loops[0].mainSchedule)
                    .c_str());

    // 4. Execute both over 4096 iterations and compare.
    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);

    ExecResult base = tryRunVerified(baseline, arrays, machine, 1, env,
                                     4096, nullptr)
                          .takeValue()
                          .run;
    // Passing the source loop also runs the reference interpreter on
    // the same memory pattern and compares memory and live-outs.
    VerifiedRun checked = tryRunVerified(selective, arrays, machine, 1,
                                         env, 4096, &dot)
                              .takeValue();
    const ExecResult &sel = checked.run;

    std::printf("baseline cycles:  %lld\n",
                static_cast<long long>(base.cycles));
    std::printf("selective cycles: %lld  (speedup %.2fx)\n",
                static_cast<long long>(sel.cycles),
                static_cast<double>(base.cycles) /
                    static_cast<double>(sel.cycles));
    std::printf("dot product: selective %s reference (%s)\n",
                checked.mismatch.empty() ? "matches" : "DIVERGES from",
                sel.env.at("s1").str().c_str());
    return 0;
}
