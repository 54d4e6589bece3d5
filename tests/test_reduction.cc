/**
 * @file
 * Tests for the reduction-recognition extension (paper section 6):
 * associative recurrences vectorized with partial accumulators and a
 * post-loop fold. Integer reductions are exact and compared bitwise;
 * floating-point reductions are reordered by design and compared with
 * tolerance.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/depgraph.hh"
#include "core/transform.hh"
#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"

namespace selvec
{
namespace
{

const char *kDot = R"(
array X f64 512
array Y f64 512
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
)";

const char *kIntSum = R"(
array A i64 512
loop isum {
    livein s0 i64
    carried s i64 init s0 update s1
    body {
        x = load A[i]
        x2 = imul x x
        s1 = iadd s x2
    }
    liveout s1
}
)";

const char *kMaxNorm = R"(
array A f64 512
loop fnorm {
    livein m0 f64
    carried m f64 init m0 update m1
    body {
        x = load A[i]
        ax = fabs x
        m1 = fmax m ax
    }
    liveout m1
}
)";

struct Compiled
{
    Module module;
    ArrayTable arrays;
    CompiledProgram program;
};

Compiled
compileWithReductions(const char *text, const Machine &machine)
{
    Compiled c;
    c.module = parseLirOrDie(text);
    c.arrays = c.module.arrays;
    DriverOptions options;
    options.vectorize.recognizeReductions = true;
    c.program = compileLoopOrDie(c.module.loops[0], c.arrays, machine,
                                 Technique::Selective, options);
    return c;
}

TEST(Reduction, AnalysisMarksTheCycle)
{
    Module m = parseLirOrDie(kDot);
    Machine mach = paperMachine();
    DepGraph graph(m.arrays, m.loops[0], mach);
    VectOptions on;
    on.recognizeReductions = true;
    VectAnalysis va = analyzeVectorizable(m.loops[0], graph, mach, on);
    EXPECT_TRUE(va.vectorizable[3]);
    EXPECT_TRUE(va.reduction[3]);
}

TEST(Reduction, TransformBuildsAccumulatorMachinery)
{
    Module m = parseLirOrDie(kDot);
    Machine mach = paperMachine();
    DepGraph graph(m.arrays, m.loops[0], mach);
    VectOptions on;
    on.recognizeReductions = true;
    VectAnalysis va = analyzeVectorizable(m.loops[0], graph, mach, on);
    Loop vec = transformLoop(m.loops[0], m.arrays, va, va.vectorizable,
                             mach);

    EXPECT_EQ(vec.reduceInits.size(), 1u);
    ASSERT_EQ(vec.postReduces.size(), 1u);
    EXPECT_EQ(vec.postReduces[0].op, Opcode::FAdd);
    EXPECT_NE(vec.postReduces[0].chainIn, kNoValue);
    EXPECT_EQ(vec.valueInfo(vec.postReduces[0].chainIn).name, "s");
    // The fold keeps the original live-out name.
    ASSERT_EQ(vec.liveOuts.size(), 1u);
    EXPECT_EQ(vec.valueInfo(vec.liveOuts[0]).name, "s1");
    // The recurrence is now a vector accumulator: one VFAdd, no
    // scalar FAdd chain.
    int vfadd = 0, fadd = 0;
    for (const Operation &op : vec.ops) {
        vfadd += op.opcode == Opcode::VFAdd;
        fadd += op.opcode == Opcode::FAdd;
    }
    EXPECT_EQ(vfadd, 1);
    EXPECT_EQ(fadd, 0);
}

TEST(Reduction, BreaksTheRecurrenceBound)
{
    // On the Table 1 machine the scalar dot product is bound by the
    // FP-add recurrence (II 4 per iteration); partial accumulators
    // remove the bound entirely.
    Machine mach = paperMachine();
    Module m = parseLirOrDie(kDot);
    ArrayTable plain_arrays = m.arrays;
    CompiledProgram plain = compileLoopOrDie(m.loops[0], plain_arrays, mach,
                                             Technique::Selective);
    Compiled red = compileWithReductions(kDot, mach);
    EXPECT_LT(red.program.iiPerIteration(), plain.iiPerIteration());
}

TEST(Reduction, IntegerSumIsExact)
{
    Machine mach = paperMachine();
    Compiled c = compileWithReductions(kIntSum, mach);
    LiveEnv env;
    env["s0"] = RtVal::scalarI(100);

    for (int64_t n : {0, 1, 7, 64, 65}) {
        MemoryImage mem(c.arrays);
        mem.fillPattern(21);
        ExecResult got = tryRunCompiled(c.program, c.arrays, mach, mem,
                                        env, n).takeValue();
        MemoryImage ref(c.arrays);
        ref.fillPattern(21);
        ExecResult want = tryRunReference(c.module.loops[0], c.arrays,
                                          mach, ref, env, n).takeValue();
        if (n == 0)
            continue;   // body live-out undefined either way
        ASSERT_TRUE(got.env.count("s1")) << "n=" << n;
        EXPECT_EQ(got.env.at("s1"), want.env.at("s1")) << "n=" << n;
    }
}

TEST(Reduction, FloatSumMatchesWithinTolerance)
{
    Machine mach = paperMachine();
    Compiled c = compileWithReductions(kDot, mach);
    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.5);

    for (int64_t n : {1, 2, 63, 64, 65}) {
        MemoryImage mem(c.arrays);
        mem.fillPattern(22);
        ExecResult got = tryRunCompiled(c.program, c.arrays, mach, mem,
                                        env, n).takeValue();
        MemoryImage ref(c.arrays);
        ref.fillPattern(22);
        ExecResult want = tryRunReference(c.module.loops[0], c.arrays,
                                          mach, ref, env, n).takeValue();
        double g = got.env.at("s1").laneF(0);
        double w = want.env.at("s1").laneF(0);
        EXPECT_NEAR(g, w, 1e-9 * (std::fabs(w) + 1.0)) << "n=" << n;
    }
}

TEST(Reduction, MaxNormIsExact)
{
    // min/max reductions are insensitive to reassociation: bitwise
    // equality holds.
    Machine mach = paperMachine();
    Compiled c = compileWithReductions(kMaxNorm, mach);
    LiveEnv env;
    env["m0"] = RtVal::scalarF(0.0);

    for (int64_t n : {1, 2, 31, 64}) {
        MemoryImage mem(c.arrays);
        mem.fillPattern(23);
        ExecResult got = tryRunCompiled(c.program, c.arrays, mach, mem,
                                        env, n).takeValue();
        MemoryImage ref(c.arrays);
        ref.fillPattern(23);
        ExecResult want = tryRunReference(c.module.loops[0], c.arrays,
                                          mach, ref, env, n).takeValue();
        EXPECT_EQ(got.env.at("m1"), want.env.at("m1")) << "n=" << n;
    }
}

TEST(Reduction, EscapingUpdateIsNotVectorized)
{
    // The running sum is observed inside the body: partial
    // accumulators would change the observed values, so recognition
    // must decline.
    Module m = parseLirOrDie(R"(
array A f64 512
array B f64 512
loop prefix {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load A[i]
        s1 = fadd s x
        store B[i] = s1
    }
    liveout s1
}
)");
    Machine mach = paperMachine();
    DepGraph graph(m.arrays, m.loops[0], mach);
    VectOptions on;
    on.recognizeReductions = true;
    VectAnalysis va = analyzeVectorizable(m.loops[0], graph, mach, on);
    EXPECT_FALSE(va.reduction[1]);
    EXPECT_FALSE(va.vectorizable[1]);
}

TEST(Reduction, ReferenceCheckSkipsTheReassociatedSum)
{
    // The x^5 addends need more than 53 bits to sum exactly, so the
    // partial accumulators round differently from the sequential sum:
    // a bitwise live-out check would report reassociation as a
    // miscompile.
    Machine mach = paperMachine();
    Compiled c = compileWithReductions(R"(
array X f64 512
loop fifth {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        y = fmul x x
        t = fmul y x
        u = fmul t y
        s1 = fadd s u
    }
    liveout s1
}
)", mach);
    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.5);
    MemoryImage mem(c.arrays);
    mem.fillPattern(23);
    ExecResult got = tryRunCompiled(c.program, c.arrays, mach, mem, env,
                                    512).takeValue();
    MemoryImage ref(c.arrays);
    ref.fillPattern(23);
    ExecResult want = tryRunReference(c.module.loops[0], c.arrays, mach,
                                      ref, env, 512).takeValue();
    const Loop &loop = c.module.loops[0];
    EXPECT_NE(referenceMismatch(loop, mem, got, ref, want)
                  .find("live-out 's1' diverged"),
              std::string::npos);
    EXPECT_EQ(referenceMismatch(loop, mem, got, ref, want, true), "");
}

TEST(Reduction, OffByDefault)
{
    Machine mach = paperMachine();
    Module m = parseLirOrDie(kDot);
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoopOrDie(m.loops[0], arrays, mach, Technique::Selective);
    for (const CompiledLoop &cl : p.loops)
        EXPECT_TRUE(cl.main.postReduces.empty());
}

TEST(Reduction, LirRoundTrip)
{
    Machine mach = paperMachine();
    Module m = parseLirOrDie(kDot);
    DepGraph graph(m.arrays, m.loops[0], mach);
    VectOptions on;
    on.recognizeReductions = true;
    VectAnalysis va = analyzeVectorizable(m.loops[0], graph, mach, on);
    Loop vec = transformLoop(m.loops[0], m.arrays, va, va.vectorizable,
                             mach);

    Module round;
    round.arrays = m.arrays;
    round.loops.push_back(vec);
    std::string text = writeLir(round);
    ParseResult pr = parseLir(text);
    ASSERT_TRUE(pr.ok) << pr.error << "\n" << text;
    const Loop &back = pr.module.loops.front();
    EXPECT_EQ(back.reduceInits.size(), vec.reduceInits.size());
    EXPECT_EQ(back.postReduces.size(), vec.postReduces.size());
    ASSERT_FALSE(back.postReduces.empty());
    EXPECT_EQ(back.postReduces[0].op, vec.postReduces[0].op);
    EXPECT_NE(back.postReduces[0].chainIn, kNoValue);
}

} // anonymous namespace
} // namespace selvec
