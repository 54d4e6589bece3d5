/**
 * @file
 * Tests for the register pressure (MaxLive) analysis.
 */

#include <gtest/gtest.h>

#include "analysis/depgraph.hh"
#include "driver/driver.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "pipeline/regpressure.hh"

namespace selvec
{
namespace
{

RegPressure
pressureOf(const char *text, Technique technique)
{
    Module m = parseLirOrDie(text);
    Machine machine = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoopOrDie(m.loops[0], arrays, machine, technique);
    return computeMaxLive(p.loops[0].main, p.loops[0].mainSchedule);
}

const char *kFpChain = R"(
array A f64 300
array B f64 300
loop t {
    livein c f64
    body {
        x = load A[i]
        a = fmul x c
        b = fadd a c
        d = fmul b b
        e = fadd d a
        store B[i] = e
    }
}
)";

TEST(RegPressure, ScalarLoopUsesNoVectorRegisters)
{
    RegPressure rp = pressureOf(kFpChain, Technique::ModuloOnly);
    EXPECT_EQ(rp.vector, 0);
    EXPECT_GT(rp.scalarFp, 0);
}

TEST(RegPressure, FullVectorizationMovesDemandToVectorFile)
{
    RegPressure scalar = pressureOf(kFpChain, Technique::ModuloOnly);
    RegPressure full = pressureOf(kFpChain, Technique::Full);
    EXPECT_GT(full.vector, 0);
    EXPECT_LT(full.scalarFp, scalar.scalarFp);
}

TEST(RegPressure, LongLatencyValuesCountAcrossStages)
{
    // A value produced by a load (latency 3) at II 1 overlaps itself
    // across stages: MaxLive must exceed the static value count / II.
    Module m = parseLirOrDie(R"(
array A f64 300
array B f64 300
loop t {
    body {
        x = load A[i]
        store B[i] = x
    }
}
)");
    Machine machine = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoopOrDie(m.loops[0], arrays, machine, Technique::ModuloOnly);
    RegPressure rp =
        computeMaxLive(p.loops[0].main, p.loops[0].mainSchedule);
    // Two unrolled copies of x, each live for >= load latency cycles,
    // at a small II: several instances coexist.
    EXPECT_GE(rp.scalarFp, 2);
}

TEST(RegPressure, LiveInsAlwaysOccupyARegister)
{
    RegPressure rp = pressureOf(kFpChain, Technique::ModuloOnly);
    // 'c' holds an FP register for the whole loop on top of the
    // pipeline values.
    EXPECT_GE(rp.scalarFp, 2);
    // Lowering's __iv chain keeps at least one integer register.
    EXPECT_GE(rp.scalarInt, 1);
}

TEST(RegPressure, CarriedValueSpansTheBackEdge)
{
    Module m = parseLirOrDie(R"(
array A f64 300
loop t {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load A[i]
        s1 = fadd s x
    }
    liveout s1
}
)");
    Machine machine = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoopOrDie(m.loops[0], arrays, machine, Technique::ModuloOnly);
    RegPressure rp =
        computeMaxLive(p.loops[0].main, p.loops[0].mainSchedule);
    // The accumulator is live through the whole kernel.
    EXPECT_GE(rp.scalarFp, 2);
}

TEST(Mve, FactorCoversLongestLifetime)
{
    // At II 1 with load latency 3, a loaded value lives >= 4 cycles:
    // a non-rotating machine must unroll the kernel several times.
    Module m = parseLirOrDie(R"(
array A f64 300
array B f64 300
loop t {
    body {
        x = load A[i]
        store B[i] = x
    }
}
)");
    Machine machine = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoopOrDie(m.loops[0], arrays, machine, Technique::ModuloOnly);
    int64_t q = mveUnrollFactor(p.loops[0].main,
                                p.loops[0].mainSchedule);
    EXPECT_GE(q, 2);
}

TEST(Mve, RelaxedScheduleNeedsNoExpansion)
{
    // A recurrence-bound loop (II 4+) with short lifetimes fits in
    // one kernel copy.
    Module m = parseLirOrDie(R"(
array A f64 300
loop t {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load A[i]
        s1 = fadd s x
    }
    liveout s1
}
)");
    Machine machine = paperMachine();
    ArrayTable arrays = m.arrays;
    CompiledProgram p =
        compileLoopOrDie(m.loops[0], arrays, machine, Technique::ModuloOnly);
    int64_t q = mveUnrollFactor(p.loops[0].main,
                                p.loops[0].mainSchedule);
    EXPECT_LE(q, 2);
    EXPECT_GE(q, 1);
}

} // anonymous namespace
} // namespace selvec
