/**
 * @file
 * Unit tests for the structured error-handling layer: Status /
 * Expected<T> semantics and their propagation through the recoverable
 * pipeline entry points (tryParseLir, verifyLoopStatus,
 * Machine::validateStatus, tryCompileLoop, tryRunReference,
 * tryMakeSuite).
 */

#include <gtest/gtest.h>

#include "driver/driver.hh"
#include "ir/verifier.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "workloads/workloads.hh"

namespace selvec
{
namespace
{

const char *kDotProduct = R"(
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
)";

TEST(Status, SuccessIsOk)
{
    Status st = Status::success();
    EXPECT_TRUE(st.ok());
    EXPECT_TRUE(static_cast<bool>(st));
    EXPECT_EQ(st.code(), ErrorCode::Ok);
    EXPECT_EQ(st.str(), "ok");
}

TEST(Status, ErrorCarriesCodeStageMessage)
{
    Status st = Status::error(ErrorCode::PartitionFailed, "partition",
                              "analysis mismatch");
    EXPECT_FALSE(st.ok());
    EXPECT_FALSE(static_cast<bool>(st));
    EXPECT_EQ(st.code(), ErrorCode::PartitionFailed);
    EXPECT_EQ(st.stage(), "partition");
    EXPECT_EQ(st.message(), "analysis mismatch");
    EXPECT_EQ(st.str(),
              "[partition] partition-failed: analysis mismatch");
}

TEST(Status, ErrorWithOkCodeBecomesInternal)
{
    Status st = Status::error(ErrorCode::Ok, "stage", "oops");
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::Internal);
}

TEST(Status, EveryCodeHasAName)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
    EXPECT_STREQ(errorCodeName(ErrorCode::InvalidInput),
                 "invalid-input");
    EXPECT_STREQ(errorCodeName(ErrorCode::VerifyFailed),
                 "verify-failed");
    EXPECT_STREQ(errorCodeName(ErrorCode::ScheduleBudgetExhausted),
                 "schedule-budget-exhausted");
    EXPECT_STREQ(errorCodeName(ErrorCode::PartitionFailed),
                 "partition-failed");
    EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "internal");
    EXPECT_STREQ(errorCodeName(ErrorCode::DeadlineExceeded),
                 "deadline-exceeded");
    EXPECT_STREQ(errorCodeName(ErrorCode::WatchdogTripped),
                 "watchdog-tripped");
}

TEST(Expected, HoldsValue)
{
    Expected<int> e(7);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value(), 7);
    EXPECT_TRUE(e.status().ok());
}

TEST(Expected, HoldsStatus)
{
    Expected<int> e(
        Status::error(ErrorCode::InvalidInput, "stage", "bad"));
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.status().code(), ErrorCode::InvalidInput);
}

TEST(Expected, TakeValueMoves)
{
    Expected<std::string> e(std::string("payload"));
    std::string s = e.takeValue();
    EXPECT_EQ(s, "payload");
}

TEST(StatusPropagation, ParseFailureIsInvalidInput)
{
    Expected<Module> m = tryParseLir("loop { nonsense");
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), ErrorCode::InvalidInput);
    EXPECT_EQ(m.status().stage(), "lir-parse");
    EXPECT_FALSE(m.status().message().empty());
}

TEST(StatusPropagation, ParseSuccessYieldsModule)
{
    Expected<Module> m = tryParseLir(kDotProduct);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m.value().loops.size(), 1u);
}

TEST(StatusPropagation, VerifierFailureIsVerifyFailed)
{
    Module module = parseLirOrDie(kDotProduct);
    Loop loop = module.loops.front();
    loop.coverage = 0;   // structurally invalid
    Status st = verifyLoopStatus(module.arrays, loop);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::VerifyFailed);
    EXPECT_EQ(st.stage(), "ir-verify");
    EXPECT_NE(st.message().find("dot"), std::string::npos);
}

TEST(StatusPropagation, BrokenMachineIsInvalidInput)
{
    Machine machine = toyMachine();
    machine.vectorLength = 1;
    Status st = machine.validateStatus();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::InvalidInput);
    EXPECT_EQ(st.stage(), "machine");
}

TEST(StatusPropagation, CompileRejectsBrokenLoop)
{
    Module module = parseLirOrDie(kDotProduct);
    Loop loop = module.loops.front();
    loop.coverage = 0;
    ArrayTable arrays = module.arrays;
    Expected<CompiledProgram> program = tryCompileLoop(
        loop, arrays, toyMachine(), Technique::Selective);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(), ErrorCode::VerifyFailed);
}

TEST(StatusPropagation, ExhaustedIiSearchIsScheduleBudget)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    DriverOptions options;
    // An impossible search window: give up below MII with no budget.
    options.scheduling.budgetFactor = 0;
    options.scheduling.maxIiFactor = 1;
    options.scheduling.maxIiSlack = 0;
    Expected<CompiledProgram> program =
        tryCompileLoop(module.loops.front(), arrays, toyMachine(),
                       Technique::ModuloOnly, options);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(),
              ErrorCode::ScheduleBudgetExhausted);
    EXPECT_EQ(program.status().stage(), "modsched");
    // Satellite: the scheduler failure names the search window, the
    // MII decomposition and the exhausted budget.
    const std::string msg = program.status().message();
    EXPECT_NE(msg.find("MII"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ResMII"), std::string::npos) << msg;
    EXPECT_NE(msg.find("RecMII"), std::string::npos) << msg;
    EXPECT_NE(msg.find("budget"), std::string::npos) << msg;
}

TEST(StatusPropagation, FailedCompileLeavesArraysUntouched)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    int before = arrays.size();
    DriverOptions options;
    options.scheduling.budgetFactor = 0;
    options.scheduling.maxIiFactor = 1;
    options.scheduling.maxIiSlack = 0;
    Expected<CompiledProgram> program =
        tryCompileLoop(module.loops.front(), arrays, toyMachine(),
                       Technique::Traditional, options);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(arrays.size(), before);
}

TEST(StatusPropagation, UnboundLiveInIsInvalidInput)
{
    Module module = parseLirOrDie(kDotProduct);
    const Loop &loop = module.loops.front();

    LiveEnv empty;
    std::vector<std::string> missing = unboundLiveIns(loop, empty);
    ASSERT_EQ(missing.size(), 1u);
    EXPECT_EQ(missing[0], "s0");

    MemoryImage mem(module.arrays);
    mem.fillPattern(1);
    Expected<ExecResult> run = tryRunReference(
        loop, module.arrays, toyMachine(), mem, empty, 8);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), ErrorCode::InvalidInput);
    EXPECT_NE(run.status().message().find("s0"), std::string::npos);

    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.5);
    Expected<ExecResult> ok_run = tryRunReference(
        loop, module.arrays, toyMachine(), mem, env, 8);
    EXPECT_TRUE(ok_run.ok());
}

TEST(StatusPropagation, UnknownSuiteIsInvalidInput)
{
    Expected<Suite> suite = tryMakeSuite("999.nonesuch");
    ASSERT_FALSE(suite.ok());
    EXPECT_EQ(suite.status().code(), ErrorCode::InvalidInput);
    EXPECT_EQ(suite.status().stage(), "workloads");

    Expected<Suite> known = tryMakeSuite("101.tomcatv");
    ASSERT_TRUE(known.ok());
    EXPECT_EQ(known.value().name, "101.tomcatv");
}

} // anonymous namespace
} // namespace selvec
