/**
 * @file
 * Integration tests over the nine SPEC-FP-analog suites: every kernel
 * of every suite compiles under every technique and matches the
 * reference interpreter bit-for-bit (evaluateSuite fatals otherwise),
 * and the headline Table 2 orderings hold.
 */

#include <gtest/gtest.h>

#include "driver/evaluate.hh"
#include "machine/machine.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace selvec
{
namespace
{

TEST(Workloads, NineSuitesExist)
{
    EXPECT_EQ(suiteNames().size(), 9u);
    for (const std::string &name : suiteNames()) {
        Suite suite = makeSuiteOrDie(name);
        EXPECT_EQ(suite.name, name);
        EXPECT_FALSE(suite.loops.empty()) << name;
        EXPECT_FALSE(suite.description.empty()) << name;
        for (const WorkloadLoop &wl : suite.loops) {
            EXPECT_GT(wl.tripCount, 0);
            EXPECT_GT(wl.invocations, 0);
            EXPECT_LT(wl.loopIndex,
                      static_cast<int>(suite.module.loops.size()));
        }
    }
}

TEST(Workloads, UnknownSuiteDies)
{
    EXPECT_DEATH(makeSuiteOrDie("999.bogus"), "unknown suite");
}

class SuiteTechniques
    : public ::testing::TestWithParam<std::tuple<int, Technique>>
{
};

TEST_P(SuiteTechniques, VerifiesAgainstReference)
{
    const std::string &name =
        suiteNames()[static_cast<size_t>(std::get<0>(GetParam()))];
    Technique technique = std::get<1>(GetParam());
    Suite suite = makeSuiteOrDie(name);
    Machine machine = paperMachine();

    // evaluateSuite() fatals on any memory or live-out divergence.
    EvaluateOptions options;
    options.verify = true;
    SuiteReport report =
        evaluateSuite(suite, machine, technique, options);
    EXPECT_GT(report.totalCycles, 0);
    EXPECT_EQ(report.loops.size(), suite.loops.size());
}

std::string
suiteTechName(
    const ::testing::TestParamInfo<std::tuple<int, Technique>> &info)
{
    std::string suite = suiteNames()[static_cast<size_t>(
        std::get<0>(info.param))];
    for (char &ch : suite) {
        if (ch == '.')
            ch = '_';
    }
    return suite + "_" + techniqueName(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    All, SuiteTechniques,
    ::testing::Combine(
        ::testing::Range(0, 9),
        ::testing::Values(Technique::ModuloOnly, Technique::Traditional,
                          Technique::Full, Technique::Selective)),
    suiteTechName);

TEST(Workloads, Table2OrderingHolds)
{
    // The paper's qualitative result: traditional <= full on every
    // suite, and selective is the best technique on all but turb3d.
    Machine machine = paperMachine();
    for (const std::string &name : suiteNames()) {
        Suite suite = makeSuiteOrDie(name);
        SuiteReport base =
            evaluateSuite(suite, machine, Technique::ModuloOnly);
        double trad = speedupOver(
            base, evaluateSuite(suite, machine,
                                Technique::Traditional));
        double full = speedupOver(
            base, evaluateSuite(suite, machine, Technique::Full));
        double sel = speedupOver(
            base, evaluateSuite(suite, machine, Technique::Selective));

        EXPECT_LE(trad, full + 0.02) << name;
        EXPECT_GE(sel, full - 0.02) << name;
        EXPECT_GE(sel, trad - 0.02) << name;
    }
}

TEST(Workloads, TomcatvIsTheBigSelectiveWin)
{
    Machine machine = paperMachine();
    Suite suite = makeSuiteOrDie("101.tomcatv");
    SuiteReport base =
        evaluateSuite(suite, machine, Technique::ModuloOnly);
    SuiteReport sel =
        evaluateSuite(suite, machine, Technique::Selective);
    EXPECT_GE(speedupOver(base, sel), 1.3);
}

TEST(Workloads, Turb3dSelectiveDoesNotWin)
{
    // Low trip counts: prologue/epilogue eat the II gains.
    Machine machine = paperMachine();
    Suite suite = makeSuiteOrDie("125.turb3d");
    SuiteReport base =
        evaluateSuite(suite, machine, Technique::ModuloOnly);
    SuiteReport sel =
        evaluateSuite(suite, machine, Technique::Selective);
    EXPECT_LE(speedupOver(base, sel), 1.0);
}

TEST(Workloads, GeneratorIsDeterministic)
{
    Rng a(99), b(99);
    GeneratedLoop ga = generateLoop(a);
    GeneratedLoop gb = generateLoop(b);
    EXPECT_EQ(ga.loop().numOps(), gb.loop().numOps());
    for (OpId i = 0; i < ga.loop().numOps(); ++i)
        EXPECT_EQ(ga.loop().op(i).opcode, gb.loop().op(i).opcode);
}

} // anonymous namespace
} // namespace selvec
