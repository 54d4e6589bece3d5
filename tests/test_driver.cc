/**
 * @file
 * Unit tests for the compilation driver and the suite evaluator.
 */

#include <gtest/gtest.h>

#include "driver/evaluate.hh"
#include "driver/reportjson.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "workloads/workloads.hh"

namespace selvec
{
namespace
{

const char *kSaxpy = R"(
array X f64 300
array Y f64 300
loop saxpy {
    livein a f64
    body {
        x = load X[i]
        y = load Y[i]
        ax = fmul a x
        s = fadd ax y
        store Y[i] = s
    }
}
)";

TEST(Driver, CompileProducesMainAndCleanup)
{
    Module m = parseLirOrDie(kSaxpy);
    Machine mach = paperMachine();
    for (Technique t : {Technique::ModuloOnly, Technique::Full,
                        Technique::Selective}) {
        ArrayTable arrays = m.arrays;
        CompiledProgram p = compileLoopOrDie(m.loops[0], arrays, mach, t);
        ASSERT_EQ(p.loops.size(), 1u) << techniqueName(t);
        EXPECT_EQ(p.loops[0].coverage, 2);
        EXPECT_EQ(p.loops[0].cleanup.coverage, 1);
        EXPECT_GT(p.loops[0].mainSchedule.ii, 0);
        EXPECT_GT(p.loops[0].cleanupSchedule.ii, 0);
    }
}

TEST(Driver, TraditionalMayProduceSeveralLoops)
{
    Module m = parseLirOrDie(R"(
array X f64 300
loop t {
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
    Machine mach = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoopOrDie(m.loops[0], arrays, mach, Technique::Traditional);
    EXPECT_EQ(p.loops.size(), 2u);
}

TEST(Driver, PerIterationMetricsUseCoverage)
{
    Module m = parseLirOrDie(kSaxpy);
    Machine mach = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoopOrDie(m.loops[0], arrays, mach, Technique::ModuloOnly);
    EXPECT_DOUBLE_EQ(
        p.iiPerIteration(),
        static_cast<double>(p.loops[0].mainSchedule.ii) / 2.0);
    EXPECT_DOUBLE_EQ(p.resMiiPerIteration(),
                     static_cast<double>(p.loops[0].mainResMii) / 2.0);
}

TEST(Driver, RemainderRunsCleanup)
{
    Module m = parseLirOrDie(kSaxpy);
    Machine mach = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoopOrDie(m.loops[0], arrays, mach, Technique::Selective);

    LiveEnv env;
    env["a"] = RtVal::scalarF(1.25);

    for (int64_t n : {0, 1, 2, 3, 63, 64, 65}) {
        MemoryImage mem(arrays);
        mem.fillPattern(11);
        ExecResult got =
            tryRunCompiled(p, arrays, mach, mem, env, n).takeValue();

        MemoryImage ref(arrays);
        ref.fillPattern(11);
        tryRunReference(m.loops[0], arrays, mach, ref, env, n).takeValue();
        EXPECT_EQ(mem.diff(ref), "") << "n=" << n;
        if (n > 0) {
            EXPECT_GT(got.cycles, 0);
        }
    }
}

TEST(Driver, ReductionChainsAcrossMainAndCleanup)
{
    Module m = parseLirOrDie(R"(
array X f64 300
loop t {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        s1 = fadd s x
    }
    liveout s1
}
)");
    Machine mach = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoopOrDie(m.loops[0], arrays, mach, Technique::ModuloOnly);

    LiveEnv env;
    env["s0"] = RtVal::scalarF(2.0);
    // Odd trip count: the final element flows through the cleanup.
    MemoryImage mem(arrays);
    mem.fillPattern(13);
    ExecResult got = tryRunCompiled(p, arrays, mach, mem, env, 65).takeValue();

    MemoryImage ref(arrays);
    ref.fillPattern(13);
    ExecResult want =
        tryRunReference(m.loops[0], arrays, mach, ref, env, 65).takeValue();
    ASSERT_TRUE(got.env.count("s1"));
    EXPECT_EQ(got.env.at("s1"), want.env.at("s1"));
}

const char *kSum = R"(
array X f64 64
loop sum {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        s1 = fadd s x
    }
    liveout s1
}
)";

TEST(ReferenceMismatch, AgreeingRunsGiveEmpty)
{
    Module m = parseLirOrDie(kSum);
    Machine mach = paperMachine();
    LiveEnv env;
    env["s0"] = RtVal::scalarF(1.0);
    MemoryImage ref_mem(m.arrays);
    ref_mem.fillPattern(5);
    ExecResult ref = tryRunReference(m.loops[0], m.arrays, mach,
                                     ref_mem, env, 64)
                         .takeValue();
    ExecResult run = ref;
    EXPECT_EQ(referenceMismatch(m.loops[0], ref_mem, run, ref_mem, ref),
              "");

    // Memory is compared first.
    MemoryImage mem(m.arrays);
    mem.fillPattern(6);
    EXPECT_EQ(referenceMismatch(m.loops[0], mem, run, ref_mem, ref)
                  .rfind("memory diverged: ", 0),
              0u);
}

TEST(ReferenceMismatch, NamesTheDivergedLiveOut)
{
    Module m = parseLirOrDie(kSum);
    Machine mach = paperMachine();
    LiveEnv env;
    env["s0"] = RtVal::scalarF(1.0);
    MemoryImage ref_mem(m.arrays);
    ref_mem.fillPattern(5);
    ExecResult ref = tryRunReference(m.loops[0], m.arrays, mach,
                                     ref_mem, env, 64)
                         .takeValue();

    // Identical memory; only the live-out differs.
    ExecResult run = ref;
    run.env["s1"] = RtVal::scalarF(ref.env.at("s1").laneF(0) + 1.0);
    std::string mismatch =
        referenceMismatch(m.loops[0], ref_mem, run, ref_mem, ref);
    EXPECT_NE(mismatch.find("live-out 's1' diverged"),
              std::string::npos)
        << mismatch;

    run.env.erase("s1");
    EXPECT_NE(referenceMismatch(m.loops[0], ref_mem, run, ref_mem, ref)
                  .find("<absent>"),
              std::string::npos);
}

TEST(ReferenceMismatch, SkipsLiveOutsTheReferenceLacks)
{
    Module m = parseLirOrDie(kSum);
    MemoryImage mem(m.arrays);
    mem.fillPattern(5);
    ExecResult run, ref;
    run.env["s1"] = RtVal::scalarF(3.0);
    EXPECT_EQ(referenceMismatch(m.loops[0], mem, run, mem, ref), "");
}

TEST(ReferenceMismatch, ReassociatedSkipsOnlyFloatReductionLiveOuts)
{
    Module m = parseLirOrDie(kSum);
    MemoryImage mem(m.arrays);
    mem.fillPattern(5);
    ExecResult run, ref;
    ref.env["s1"] = RtVal::scalarF(1.0);
    run.env["s1"] = RtVal::scalarF(1.0 + 1e-12);
    // Bitwise by default; a reordered f64 sum is skipped.
    EXPECT_NE(referenceMismatch(m.loops[0], mem, run, mem, ref), "");
    EXPECT_EQ(referenceMismatch(m.loops[0], mem, run, mem, ref, true),
              "");

    // Integer reductions are exact: still compared.
    Module mi = parseLirOrDie(R"(
array X i64 64
loop isum {
    livein s0 i64
    carried s i64 init s0 update s1
    body {
        x = load X[i]
        s1 = iadd s x
    }
    liveout s1
}
)");
    MemoryImage imem(mi.arrays);
    ExecResult irun, iref;
    iref.env["s1"] = RtVal::scalarI(7);
    irun.env["s1"] = RtVal::scalarI(8);
    EXPECT_NE(referenceMismatch(mi.loops[0], imem, irun, imem, iref, true)
                  .find("live-out 's1' diverged"),
              std::string::npos);
}

TEST(Driver, ResourceLimitedFlag)
{
    Machine mach = paperMachine();
    {
        Module m = parseLirOrDie(kSaxpy);
        ArrayTable arrays = m.arrays;
        CompiledProgram p = compileLoopOrDie(m.loops[0], arrays, mach,
                                             Technique::ModuloOnly);
        EXPECT_TRUE(p.resourceLimited);
    }
    {
        // A long fdiv recurrence is recurrence-bound.
        Module m = parseLirOrDie(R"(
array X f64 300
loop t {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        s1 = fdiv s x
    }
    liveout s1
}
)");
        ArrayTable arrays = m.arrays;
        CompiledProgram p = compileLoopOrDie(m.loops[0], arrays, mach,
                                             Technique::ModuloOnly);
        EXPECT_FALSE(p.resourceLimited);
    }
}

TEST(Driver, InvocationOverheadCharged)
{
    Module m = parseLirOrDie(kSaxpy);
    Machine mach = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoopOrDie(m.loops[0], arrays, mach, Technique::ModuloOnly);
    LiveEnv env;
    env["a"] = RtVal::scalarF(1.0);
    MemoryImage mem(arrays);
    ExecResult r0 = tryRunCompiled(p, arrays, mach, mem, env, 0).takeValue();
    EXPECT_EQ(r0.cycles, mach.invocationOverhead);
}

TEST(Evaluate, SuiteReportsAreConsistent)
{
    Suite suite = dotProductSuite();
    Machine mach = paperMachine();
    SuiteReport base =
        evaluateSuite(suite, mach, Technique::ModuloOnly);
    ASSERT_EQ(base.loops.size(), 1u);
    EXPECT_GT(base.totalCycles, 0);
    EXPECT_EQ(base.loops[0].weightedCycles,
              base.loops[0].cyclesPerInvocation *
                  base.loops[0].invocations);
    EXPECT_EQ(base.totalCycles, base.loops[0].weightedCycles);
    EXPECT_DOUBLE_EQ(speedupOver(base, base), 1.0);
}

TEST(Evaluate, SelectiveNeverSlowerOnDot)
{
    Suite suite = dotProductSuite();
    Machine mach = paperMachine();
    SuiteReport base =
        evaluateSuite(suite, mach, Technique::ModuloOnly);
    SuiteReport sel =
        evaluateSuite(suite, mach, Technique::Selective);
    EXPECT_GE(speedupOver(base, sel), 0.95);
}

// ---------------------------------------------------------------------
// The machine-readable report surface.

TEST(ReportJson, CompiledProgramReportsIiAtLeastResMii)
{
    Module m = parseLirOrDie(kSaxpy);
    Machine mach = paperMachine();
    for (Technique t : {Technique::ModuloOnly, Technique::Full,
                        Technique::Selective}) {
        ArrayTable arrays = m.arrays;
        CompiledProgram p = compileLoopOrDie(m.loops[0], arrays, mach, t);
        JsonValue json = jsonOfCompiledProgram(p);

        EXPECT_EQ(json.find("technique")->stringValue(),
                  techniqueName(t));
        double ii = json.find("ii_per_iter")->numberValue();
        double res = json.find("res_mii_per_iter")->numberValue();
        EXPECT_GT(ii, 0.0) << techniqueName(t);
        EXPECT_GE(ii, res) << techniqueName(t);

        const JsonValue *loops = json.find("loops");
        ASSERT_NE(loops, nullptr);
        ASSERT_GT(loops->size(), 0u);
        for (const JsonValue &cl : loops->items()) {
            // The scheduler can never beat the resource bound.
            EXPECT_GE(cl.find("ii")->intValue(),
                      cl.find("res_mii")->intValue())
                << techniqueName(t);
            EXPECT_GT(cl.find("coverage")->intValue(), 0);
        }
    }
}

TEST(ReportJson, SuiteComparisonCarriesSpeedupAndMiis)
{
    Suite suite = dotProductSuite();
    Machine mach = paperMachine();
    SuiteReport base =
        evaluateSuite(suite, mach, Technique::ModuloOnly);
    SuiteReport sel =
        evaluateSuite(suite, mach, Technique::Selective);
    JsonValue json = jsonOfSuiteComparison(base, {sel});

    ASSERT_EQ(json.find("techniques")->size(), 1u);
    const JsonValue &tech = json.find("techniques")->items()[0];
    EXPECT_EQ(tech.find("technique")->stringValue(), "selective");
    EXPECT_DOUBLE_EQ(tech.find("speedup")->numberValue(),
                     speedupOver(base, sel));
    for (const JsonValue &loop : tech.find("loops")->items()) {
        double ii = loop.find("ii_per_iter")->numberValue();
        EXPECT_GE(ii, loop.find("res_mii_per_iter")->numberValue());
        EXPECT_GT(loop.find("weighted_cycles")->intValue(), 0);
        EXPECT_GT(loop.find("speedup")->numberValue(), 0.0);
    }

    // The emitted document survives a serialize/parse round-trip.
    Expected<JsonValue> back = parseJson(json.dump(2));
    ASSERT_TRUE(back.ok()) << back.status().str();
    EXPECT_EQ(back.value(), json);
}

} // anonymous namespace
} // namespace selvec
