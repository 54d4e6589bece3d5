/**
 * @file
 * Tests for the failure-containment contract (DESIGN.md §10):
 * deadlines and their ambient context, knob validation, the
 * simulator cycle watchdog, per-loop suite quarantine with
 * byte-identical sibling reports, and replayable repro bundles.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>

#include "driver/evaluate.hh"
#include "driver/repro.hh"
#include "driver/reportjson.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "support/deadline.hh"
#include "support/faultinject.hh"
#include "support/stats.hh"
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

/** Three independent data-parallel kernels over shared arrays: the
 *  quarantine demo's suite. Even trip counts mean ModuloOnly's
 *  cleanup loop never runs, so each loop's simulation is exactly one
 *  bounded pipelined run — fault-site hit counts stay predictable. */
const char *kTrioLir = R"(
array A f64 256
array B f64 256
array C f64 256

loop alpha {
    body {
        a = load A[i]
        b = load B[i]
        s = fadd a b
        store C[i] = s
    }
}

loop beta {
    body {
        a = load A[i]
        c = load C[i]
        p = fmul a c
        store B[i] = p
    }
}

loop gamma {
    body {
        b = load B[i]
        c = load C[i]
        d = fsub c b
        store A[i] = d
    }
}
)";

Suite
trioSuite()
{
    Suite suite;
    suite.name = "trio";
    suite.description = "three independent kernels";
    suite.module = parseLirOrDie(kTrioLir);
    for (int i = 0; i < 3; ++i) {
        WorkloadLoop wl;
        wl.loopIndex = i;
        wl.tripCount = 64;   // even: no cleanup-loop simulation
        wl.invocations = 1;
        suite.loops.push_back(wl);
    }
    return suite;
}

/** A scratch directory under the test temp root, wiped on entry. */
std::string
freshDir(const char *leaf)
{
    std::string dir = ::testing::TempDir() + leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// ---------------------------------------------------------------------
// Deadline primitives.

TEST(Deadline, NeverIsUnlimited)
{
    Deadline d = Deadline::never();
    EXPECT_TRUE(d.unlimited());
    EXPECT_FALSE(d.expired());
    EXPECT_EQ(Deadline().unlimited(), true);
}

TEST(Deadline, AfterMsZeroIsAlreadyExpired)
{
    Deadline d = Deadline::afterMs(0);
    EXPECT_FALSE(d.unlimited());
    EXPECT_TRUE(d.expired());
    EXPECT_EQ(d.remainingMs(), 0);
}

TEST(Deadline, AfterMsLargeIsPending)
{
    Deadline d = Deadline::afterMs(60 * 1000);
    EXPECT_FALSE(d.unlimited());
    EXPECT_FALSE(d.expired());
    EXPECT_GT(d.remainingMs(), 0);
}

TEST(Deadline, SoonerPicksTheTighterBound)
{
    Deadline none = Deadline::never();
    Deadline loose = Deadline::afterMs(60 * 1000);
    Deadline tight = Deadline::afterMs(0);

    EXPECT_TRUE(Deadline::sooner(none, none).unlimited());
    EXPECT_FALSE(Deadline::sooner(none, loose).unlimited());
    EXPECT_TRUE(Deadline::sooner(tight, loose).expired());
    EXPECT_TRUE(Deadline::sooner(loose, tight).expired());
}

// ---------------------------------------------------------------------
// Ambient context: checkDeadline and ScopedDeadline.

TEST(DeadlineContext, UnarmedThreadIsFree)
{
    EXPECT_FALSE(deadlineArmed());
    EXPECT_TRUE(checkDeadline("test").ok());
}

TEST(DeadlineContext, ExpiredScopeTripsWithStage)
{
    {
        ScopedDeadline guard(Deadline::afterMs(0));
        EXPECT_TRUE(deadlineArmed());
        Status st = checkDeadline("kl-pass");
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.code(), ErrorCode::DeadlineExceeded);
        EXPECT_EQ(st.stage(), "kl-pass");
    }
    EXPECT_FALSE(deadlineArmed());
    EXPECT_TRUE(checkDeadline("test").ok());
}

TEST(DeadlineContext, NestedScopeKeepsTheSoonerDeadline)
{
    ScopedDeadline outer(Deadline::afterMs(0));
    // An unlimited inner scope cannot loosen the outer bound.
    ScopedDeadline inner(Deadline::never());
    Status st = checkDeadline("inner");
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::DeadlineExceeded);
}

TEST(DeadlineContext, AdoptInstallsVerbatim)
{
    ScopedDeadline outer(Deadline::afterMs(0));
    ASSERT_FALSE(checkDeadline("outer").ok());
    {
        // Adopting an unarmed context clears the expired bound — the
        // verbatim path the pool workers rely on.
        ScopedDeadline adopted(ScopedDeadline::AdoptTag{},
                               DeadlineContext{});
        EXPECT_FALSE(deadlineArmed());
        EXPECT_TRUE(checkDeadline("worker").ok());
    }
    EXPECT_FALSE(checkDeadline("outer").ok());
}

// ---------------------------------------------------------------------
// Knob validation at the driver entry (negative values are nonsense;
// zero stays meaningful — a zero budget is "give up immediately").

TEST(OptionValidation, NegativeScheduleKnobsAreInvalidInput)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;

    ScheduleOptions broken[4];
    broken[0].budgetFactor = -1;
    broken[1].maxIiFactor = -2;
    broken[2].maxIiSlack = -3;
    broken[3].watchdogFactor = -4;
    for (const ScheduleOptions &so : broken) {
        DriverOptions options;
        options.scheduling = so;
        Expected<CompiledProgram> program = tryCompileLoop(
            module.loops.front(), arrays, toyMachine(),
            Technique::ModuloOnly, options);
        ASSERT_FALSE(program.ok());
        EXPECT_EQ(program.status().code(), ErrorCode::InvalidInput);
        EXPECT_EQ(program.status().stage(), "driver");
        EXPECT_NE(program.status().message().find(">= 0"),
                  std::string::npos)
            << program.status().str();
    }
}

TEST(OptionValidation, NegativePartitionIterationsAreInvalidInput)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    DriverOptions options;
    options.partition.maxIterations = -1;
    Expected<CompiledProgram> program = tryCompileLoop(
        module.loops.front(), arrays, toyMachine(),
        Technique::Selective, options);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(), ErrorCode::InvalidInput);
    EXPECT_EQ(program.status().stage(), "driver");
}

TEST(OptionValidation, ZeroWatchdogFactorIsAValidKnob)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    DriverOptions options;
    options.scheduling.watchdogFactor = 0;   // watchdog disabled
    Expected<CompiledProgram> program = tryCompileLoop(
        module.loops.front(), arrays, toyMachine(),
        Technique::ModuloOnly, options);
    EXPECT_TRUE(program.ok()) << program.status().str();
}

// ---------------------------------------------------------------------
// Deadline trips inside the long pipeline loops.

TEST(DeadlineTrip, ExpiredDeadlineStopsTheKlSearch)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    ScopedDeadline guard(Deadline::afterMs(0));
    Expected<CompiledProgram> program = tryCompileLoop(
        module.loops.front(), arrays, toyMachine(),
        Technique::Selective);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(), ErrorCode::DeadlineExceeded);
}

TEST(DeadlineTrip, ExpiredDeadlineStopsTheModuloScheduler)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    ScopedDeadline guard(Deadline::afterMs(0));
    Expected<CompiledProgram> program = tryCompileLoop(
        module.loops.front(), arrays, toyMachine(),
        Technique::ModuloOnly);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(), ErrorCode::DeadlineExceeded);
}

TEST(DeadlineTrip, SchedulerHangFailsInstantlyWithoutADeadline)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    FaultPlan plan = parseFaultPlan("modsched.stall").value();
    ScopedFaultPlan armed(plan);
    Expected<CompiledProgram> program = tryCompileLoop(
        module.loops.front(), arrays, toyMachine(),
        Technique::ModuloOnly);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(),
              ErrorCode::ScheduleBudgetExhausted);
    EXPECT_NE(program.status().message().find("no deadline armed"),
              std::string::npos)
        << program.status().str();
}

TEST(DeadlineTrip, SchedulerHangIsContainedByTheDeadline)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    FaultPlan plan = parseFaultPlan("modsched.stall").value();
    ScopedFaultPlan armed(plan);
    ScopedDeadline guard(Deadline::afterMs(50));
    Expected<CompiledProgram> program = tryCompileLoop(
        module.loops.front(), arrays, toyMachine(),
        Technique::ModuloOnly);
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(), ErrorCode::DeadlineExceeded);
}

TEST(DeadlineTrip, SequentialPollCadenceStillLandsTheTrip)
{
    // The sequential engine polls the ambient deadline once per 1024
    // op instances, not per instance: the trip must still land both
    // below the cadence (the poll fires on instance 0) and far above
    // it (the poll keeps firing across the run).
    Module module = parseLirOrDie(kDotProduct);
    MemoryImage mem(module.arrays);
    mem.fillPattern(1);
    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);

    ScopedDeadline guard(Deadline::afterMs(0));
    for (int64_t n_body : {int64_t{4}, int64_t{4000}}) {
        Expected<RunOutput> run =
            tryExecuteLoop(module.arrays, module.loops.front(),
                           toyMachine(), mem, env, n_body);
        ASSERT_FALSE(run.ok()) << "n_body " << n_body;
        EXPECT_EQ(run.status().code(), ErrorCode::DeadlineExceeded);
        EXPECT_EQ(run.status().stage(), "sim");
    }
}

// ---------------------------------------------------------------------
// The simulator cycle watchdog.

TEST(Watchdog, ExplicitCycleCeilingTrips)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    CompiledProgram program = compileLoopOrDie(
        module.loops.front(), arrays, toyMachine(),
        Technique::ModuloOnly);

    MemoryImage mem(arrays);
    mem.fillPattern(1);
    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);

    ExecLimits limits;
    limits.maxCycles = 1;   // no pipeline finishes in one cycle
    Expected<ExecResult> run = tryRunCompiled(
        program, arrays, toyMachine(), mem, env, 64, limits);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), ErrorCode::WatchdogTripped);
    EXPECT_EQ(run.status().stage(), "sim");
}

TEST(Watchdog, ValidScheduleNeverTripsTheDerivedBound)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    CompiledProgram program = compileLoopOrDie(
        module.loops.front(), arrays, toyMachine(),
        Technique::ModuloOnly);

    MemoryImage mem(arrays);
    mem.fillPattern(1);
    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);

    ExecLimits limits;
    limits.watchdogFactor = 16;
    Expected<ExecResult> run = tryRunCompiled(
        program, arrays, toyMachine(), mem, env, 64, limits);
    ASSERT_TRUE(run.ok()) << run.status().str();
    EXPECT_GT(run.value().cycles, 0);
}

TEST(Watchdog, FaultSiteForcesATripOnBoundedRunsOnly)
{
    Module module = parseLirOrDie(kDotProduct);
    ArrayTable arrays = module.arrays;
    CompiledProgram program = compileLoopOrDie(
        module.loops.front(), arrays, toyMachine(),
        Technique::ModuloOnly);

    MemoryImage mem(arrays);
    mem.fillPattern(1);
    LiveEnv env;
    env["s0"] = RtVal::scalarF(0.0);

    FaultPlan plan = parseFaultPlan("sim.watchdog:*").value();
    ScopedFaultPlan armed(plan);

    // Unbounded run: the site is never polled, execution is clean.
    Expected<ExecResult> free_run = tryRunCompiled(
        program, arrays, toyMachine(), mem, env, 64, ExecLimits{});
    EXPECT_TRUE(free_run.ok()) << free_run.status().str();

    // Bounded run: the armed site forces the trip.
    ExecLimits limits;
    limits.watchdogFactor = 16;
    MemoryImage mem2(arrays);
    mem2.fillPattern(1);
    Expected<ExecResult> bounded = tryRunCompiled(
        program, arrays, toyMachine(), mem2, env, 64, limits);
    ASSERT_FALSE(bounded.ok());
    EXPECT_EQ(bounded.status().code(), ErrorCode::WatchdogTripped);
}

// ---------------------------------------------------------------------
// Suite quarantine.

TEST(Quarantine, HungAndDivergentLoopsAreContained)
{
    Suite suite = trioSuite();
    Machine machine = paperMachine();

    SuiteReport report;
    {
        // The containment demo: the scheduler "hangs" on the second
        // loop's main schedule (each compile takes two schedules, so
        // hit 2 is beta's), and the simulator watchdog fires on the
        // third loop's pipelined run (hit 0 is alpha's clean run).
        FaultPlan plan =
            parseFaultPlan("modsched.stall:2+1,sim.watchdog:1+1")
                .value();
        ScopedFaultPlan armed(plan);

        EvaluateOptions options;
        options.deadlineMs = 200;   // per loop; contains the stall
        report = evaluateSuite(suite, machine, Technique::ModuloOnly,
                               options);
    }

    ASSERT_EQ(report.loops.size(), 1u);
    EXPECT_EQ(report.loops[0].name, "alpha");

    ASSERT_EQ(report.failures.size(), 2u);
    EXPECT_EQ(report.failures[0].name, "beta");
    EXPECT_EQ(report.failures[0].status.code(),
              ErrorCode::DeadlineExceeded);
    EXPECT_EQ(report.failures[1].name, "gamma");
    EXPECT_EQ(report.failures[1].status.code(),
              ErrorCode::WatchdogTripped);

    // The surviving sibling is byte-identical to its clean-run self.
    SuiteReport clean = evaluateSuite(suite, machine,
                                      Technique::ModuloOnly);
    ASSERT_EQ(clean.loops.size(), 3u);
    EXPECT_TRUE(clean.failures.empty());
    EXPECT_EQ(jsonOfLoopReport(report.loops[0]).dump(),
              jsonOfLoopReport(clean.loops[0]).dump());
    EXPECT_EQ(report.totalCycles, clean.loops[0].weightedCycles);
}

TEST(Quarantine, FailedCompileCostsOneCompile)
{
    Suite suite = trioSuite();
    Machine machine = paperMachine();

    // Each Selective compile partitions once: hit 1 is beta's.
    SuiteReport report;
    StatsRegistry sink;
    {
        ScopedStatsSink scope(sink);
        ScopedFaultPlan armed(parseFaultPlan("partition.kl:1+1").value());
        report = evaluateSuite(suite, machine, Technique::Selective);
    }

    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].name, "beta");
    EXPECT_STREQ(errorCodeName(report.failures[0].status.code()),
                 "partition-failed");
    EXPECT_EQ(sink.value("driver.compiles"),
              static_cast<int64_t>(suite.loops.size()));

    SuiteReport clean = evaluateSuite(suite, machine,
                                      Technique::Selective);
    ASSERT_EQ(report.loops.size(), 2u);
    ASSERT_EQ(clean.loops.size(), 3u);
    EXPECT_EQ(jsonOfLoopReport(report.loops[0]).dump(),
              jsonOfLoopReport(clean.loops[0]).dump());
    EXPECT_EQ(jsonOfLoopReport(report.loops[1]).dump(),
              jsonOfLoopReport(clean.loops[2]).dump());
}

TEST(Quarantine, CleanBoundedRunIsByteIdenticalToUnbounded)
{
    Suite suite = trioSuite();
    Machine machine = paperMachine();

    SuiteReport unbounded = evaluateSuite(suite, machine,
                                          Technique::ModuloOnly);
    EvaluateOptions bounded;
    bounded.deadlineMs = 60 * 1000;
    SuiteReport guarded = evaluateSuite(suite, machine,
                                        Technique::ModuloOnly, bounded);

    EXPECT_TRUE(guarded.failures.empty());
    EXPECT_EQ(jsonOfSuiteReport(guarded).dump(),
              jsonOfSuiteReport(unbounded).dump());
}

TEST(Quarantine, ReportIsJobsInvariant)
{
    Suite suite = trioSuite();
    Machine machine = paperMachine();

    EvaluateOptions serial;
    serial.deadlineMs = 60 * 1000;
    serial.jobs = 1;
    EvaluateOptions wide = serial;
    wide.jobs = 4;

    SuiteReport a = evaluateSuite(suite, machine,
                                  Technique::ModuloOnly, serial);
    SuiteReport b = evaluateSuite(suite, machine,
                                  Technique::ModuloOnly, wide);
    EXPECT_EQ(jsonOfSuiteReport(a).dump(),
              jsonOfSuiteReport(b).dump());
}

TEST(Quarantine, ExpiredOuterDeadlineQuarantinesEveryLoop)
{
    Suite suite = trioSuite();
    Machine machine = paperMachine();

    // The caller's expired deadline reaches every loop task: inline
    // at jobs 1, through the pool's republished context at jobs 4.
    ScopedDeadline expired(Deadline::afterMs(0));
    EvaluateOptions options;
    SuiteReport serial = evaluateSuite(suite, machine,
                                       Technique::ModuloOnly, options);
    EXPECT_TRUE(serial.loops.empty());
    ASSERT_EQ(serial.failures.size(), 3u);
    for (const LoopFailure &f : serial.failures)
        EXPECT_EQ(f.status.code(), ErrorCode::DeadlineExceeded);

    options.jobs = 4;
    SuiteReport wide = evaluateSuite(suite, machine,
                                     Technique::ModuloOnly, options);
    EXPECT_EQ(jsonOfSuiteReport(wide).dump(),
              jsonOfSuiteReport(serial).dump());
}

TEST(Quarantine, FailuresAppearInTheJsonDocument)
{
    Suite suite = trioSuite();
    FaultPlan plan = parseFaultPlan("modsched.search:*").value();
    ScopedFaultPlan armed(plan);

    SuiteReport report = evaluateSuite(suite, paperMachine(),
                                       Technique::ModuloOnly);
    ASSERT_EQ(report.failures.size(), 3u);

    JsonValue doc = jsonOfSuiteReport(report);
    std::string text = doc.dump();
    EXPECT_NE(text.find("\"failures\""), std::string::npos);
    EXPECT_NE(text.find("\"error_code\""), std::string::npos);
    EXPECT_NE(text.find("schedule-budget-exhausted"),
              std::string::npos);
    // Timings stay out of documents unless SELVEC_TIMINGS is set.
    EXPECT_NE(text.find("\"elapsed_ms\": 0"), std::string::npos);
}

// ---------------------------------------------------------------------
// Repro bundles.

TEST(Repro, MachineDescriptionRoundTrips)
{
    const Machine machines[] = {paperMachine(), toyMachine(),
                                directMoveMachine(), wideMachine(),
                                embeddedMachine()};
    for (const Machine &machine : machines) {
        JsonValue doc = jsonOfMachine(machine);
        Expected<Machine> back = machineOfJson(doc);
        ASSERT_TRUE(back.ok()) << back.status().str();
        EXPECT_EQ(jsonOfMachine(back.value()).dump(), doc.dump());
    }
}

TEST(Repro, FailedLoopWritesAReplayableBundle)
{
    std::string dir = freshDir("selvec_repro_test");
    Suite suite = dotProductSuite();

    std::string path;
    {
        FaultPlan plan = parseFaultPlan("modsched.search:*").value();
        ScopedFaultPlan armed(plan);

        EvaluateOptions options;
        options.reproDir = dir;
        SuiteReport report = evaluateSuite(
            suite, paperMachine(), Technique::ModuloOnly, options);
        ASSERT_EQ(report.failures.size(), 1u);
        EXPECT_EQ(report.failures[0].status.code(),
                  ErrorCode::ScheduleBudgetExhausted);

        path = dir + "/" + suite.name + "." +
               report.failures[0].name + "." +
               techniqueName(Technique::ModuloOnly) + ".repro.json";
    }
    // The plan is cleared now; only the bundle remembers it.

    Expected<ReproBundle> loaded = loadReproBundle(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().str();
    const ReproBundle &bundle = loaded.value();
    EXPECT_EQ(bundle.faultPlan, "modsched.search:*");
    EXPECT_EQ(bundle.technique, Technique::ModuloOnly);
    EXPECT_EQ(bundle.failure.code(),
              ErrorCode::ScheduleBudgetExhausted);
    ASSERT_EQ(bundle.module.loops.size(), 1u);

    // The bundle round-trips through its own JSON byte-for-byte.
    JsonValue doc = jsonOfReproBundle(bundle);
    Expected<ReproBundle> again = reproBundleOfJson(doc);
    ASSERT_TRUE(again.ok()) << again.status().str();
    EXPECT_EQ(jsonOfReproBundle(again.value()).dump(), doc.dump());

    // Replaying re-arms the recorded plan and reproduces the code.
    ReplayOutcome outcome = replayBundle(bundle);
    EXPECT_TRUE(outcome.reproduced) << outcome.status.str();
    EXPECT_EQ(outcome.status.code(),
              ErrorCode::ScheduleBudgetExhausted);
    EXPECT_FALSE(faultPlanArmed());   // replay restored the plan

    std::filesystem::remove_all(dir);
}

TEST(Repro, CleanConfigurationDoesNotReproduce)
{
    Suite suite = dotProductSuite();
    const WorkloadLoop &wl = suite.loops.front();

    ReproBundle bundle;
    bundle.name = suite.loopOf(wl).name;
    bundle.module.arrays = suite.module.arrays;
    bundle.module.loops.push_back(suite.loopOf(wl));
    bundle.liveIns = wl.liveIns;
    bundle.machine = paperMachine();
    bundle.technique = Technique::ModuloOnly;
    bundle.tripCount = wl.tripCount;
    bundle.memPattern = 1;
    // Claim a failure that a healthy pipeline cannot produce.
    bundle.failure = Status::error(ErrorCode::ScheduleBudgetExhausted,
                                   "modsched", "stale claim");

    ReplayOutcome outcome = replayBundle(bundle);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.str();
    EXPECT_FALSE(outcome.reproduced);
}

// ---------------------------------------------------------------------
// The footprint rule: a run that would touch a cell outside its
// array's extent is InvalidInput before any engine starts.

/** A strided load that leaves GF0 (2336 elements) past trip 776. */
const char *kStridedLir = R"(
array GF0 f64 2336
array GF2 f64 2336

loop gen {
    body {
        ld = load GF0[3i + 7]
        store GF2[i] = ld
    }
}
)";

/** `lir`'s first loop as a self-contained request at `trip`. */
ReproBundle
bundleOf(const char *lir, Technique technique, int64_t trip)
{
    ReproBundle bundle;
    bundle.module = parseLirOrDie(lir);
    bundle.name = bundle.module.loops.front().name;
    bundle.machine = paperMachine();
    bundle.technique = technique;
    bundle.tripCount = trip;
    bundle.memPattern = 17;
    return bundle;
}

TEST(Footprint, OutOfExtentRunIsInvalidInputInEveryTechnique)
{
    Module module = parseLirOrDie(kStridedLir);
    const Loop &loop = module.loops.front();
    Machine machine = paperMachine();
    for (Technique t : {Technique::ModuloOnly, Technique::Traditional,
                        Technique::Full, Technique::Selective,
                        Technique::IterationSplit}) {
        ArrayTable arrays = module.arrays;
        CompiledProgram program =
            compileLoopOrDie(loop, arrays, machine, t);
        Expected<VerifiedRun> run =
            tryRunVerified(program, arrays, machine, 17, {}, 2048, &loop);
        ASSERT_FALSE(run.ok()) << techniqueName(t);
        EXPECT_EQ(run.status().code(), ErrorCode::InvalidInput);
        EXPECT_EQ(run.status().stage(), "sim");
        EXPECT_NE(run.status().message().find("load GF0["),
                  std::string::npos)
            << run.status().str();
        EXPECT_NE(run.status().message().find("(size 2336)"),
                  std::string::npos)
            << run.status().str();

        // The same loop at a trip that fits runs and verifies.
        Expected<VerifiedRun> fits =
            tryRunVerified(program, arrays, machine, 17, {}, 776, &loop);
        ASSERT_TRUE(fits.ok()) << fits.status().str();
        EXPECT_EQ(fits.value().mismatch, "");
    }

    // The reference alone is held to the same rule.
    MemoryImage mem(module.arrays);
    Expected<ExecResult> ref = tryRunReference(
        loop, module.arrays, machine, mem, {}, 2048);
    ASSERT_FALSE(ref.ok());
    EXPECT_EQ(ref.status().code(), ErrorCode::InvalidInput);

    // A trip count whose indices pass int64 is rejected the same way.
    Expected<ExecResult> huge = tryRunReference(
        loop, module.arrays, machine, mem, {},
        std::numeric_limits<int64_t>::max());
    ASSERT_FALSE(huge.ok());
    EXPECT_NE(huge.status().message().find("load GF0[overflow]"),
              std::string::npos)
        << huge.status().str();
}

TEST(Footprint, LoadsMayUseTheGuardBandStoresMayNot)
{
    const char *lir = R"(
array A f64 64
array B f64 64

loop edge {
    body {
        x = load A[i + 64]
        store B[i] = x
    }
}
)";
    Module module = parseLirOrDie(lir);
    const Loop &loop = module.loops.front();
    Machine machine = paperMachine();
    auto run = [&](int64_t n) {
        MemoryImage mem(module.arrays);
        return tryExecuteLoop(module.arrays, loop, machine, mem, {}, n);
    };
    // Loads reach A[127], the last guard cell, and stores B[63].
    EXPECT_TRUE(run(64).ok());
    // One more iteration stores past B's end.
    Expected<RunOutput> over = run(65);
    ASSERT_FALSE(over.ok());
    EXPECT_NE(over.status().message().find("load A[128]"),
              std::string::npos)
        << over.status().str();
}

TEST(Footprint, StoresPastAnEarlyExitStillCount)
{
    // The exit fires on the first iteration, but the footprint rule
    // counts every iteration's store (DESIGN.md §10).
    const char *lir = R"(
array A f64 16

loop leave {
    livein k i64
    body {
        one = iconst 1
        c = icmplt k one
        exitif c
        x = fconst 1.5
        store A[i] = x
    }
}
)";
    Module module = parseLirOrDie(lir);
    const Loop &loop = module.loops.front();
    MemoryImage mem(module.arrays);
    LiveEnv env{{"k", RtVal::scalarI(0)}};
    EXPECT_TRUE(tryExecuteLoop(module.arrays, loop, paperMachine(), mem,
                               env, 16)
                    .ok());
    Expected<RunOutput> over = tryExecuteLoop(
        module.arrays, loop, paperMachine(), mem, env, 17);
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.status().code(), ErrorCode::InvalidInput);
    EXPECT_NE(over.status().message().find("store A[16]"),
              std::string::npos)
        << over.status().str();
}

TEST(Footprint, DenseEngineFailsLikeTheStreamingEngine)
{
    const char *lir = R"(
array A f64 16

loop fill {
    body {
        x = fconst 1.5
        store A[i] = x
    }
}
)";
    Module module = parseLirOrDie(lir);
    const Loop &loop = module.loops.front();
    Machine machine = paperMachine();
    ArrayTable arrays = module.arrays;
    const CompiledLoop cl =
        compileLoopOrDie(loop, arrays, machine, Technique::ModuloOnly)
            .loops.front();

    // Sequentially and pipelined, both entry points reject the run
    // with one status before any engine touches memory.
    for (const ModuloSchedule *schedule :
         {static_cast<const ModuloSchedule *>(nullptr),
          &cl.mainSchedule}) {
        const Loop &body = schedule != nullptr ? cl.main : loop;
        MemoryImage mem(arrays);
        Expected<RunOutput> stream = tryExecuteLoop(
            arrays, body, machine, mem, {}, 100, 0, schedule);
        Expected<RunOutput> dense = tryExecuteLoopDense(
            arrays, body, machine, mem, {}, 100, 0, schedule);
        ASSERT_FALSE(stream.ok());
        ASSERT_FALSE(dense.ok());
        EXPECT_EQ(dense.status().code(), ErrorCode::InvalidInput);
        EXPECT_EQ(dense.status().str(), stream.status().str());
        EXPECT_NE(dense.status().message().find("is out of extent"),
                  std::string::npos)
            << dense.status().str();

        Expected<RunOutput> negative = tryExecuteLoopDense(
            arrays, body, machine, mem, {}, -1, 0, schedule);
        ASSERT_FALSE(negative.ok());
        EXPECT_EQ(negative.status().code(), ErrorCode::InvalidInput);
    }
}

TEST(Footprint, ReplayOfAnOutOfExtentBundleIsInvalidInput)
{
    ReproBundle bundle =
        bundleOf(kStridedLir, Technique::Selective, 100000);
    bundle.failure = Status::error(ErrorCode::InvalidInput, "sim", "");
    ReplayOutcome outcome = replayBundle(bundle);
    EXPECT_EQ(outcome.status.code(), ErrorCode::InvalidInput)
        << outcome.status.str();
    EXPECT_EQ(outcome.status.stage(), "sim");
    EXPECT_TRUE(outcome.reproduced);
}

// ---------------------------------------------------------------------
// The one verified run (tryRunVerified).

TEST(VerifiedRun, MatchesSeparatelyFilledRuns)
{
    Module module = parseLirOrDie(kDotProduct);
    const Loop &loop = module.loops.front();
    Machine machine = paperMachine();
    ArrayTable arrays = module.arrays;
    CompiledProgram program =
        compileLoopOrDie(loop, arrays, machine, Technique::Selective);
    LiveEnv env{{"s0", RtVal::scalarF(0.5)}};

    VerifiedRun checked =
        tryRunVerified(program, arrays, machine, 9, env, 1001, &loop)
            .takeValue();
    EXPECT_EQ(checked.mismatch, "");

    // The same runs on two separately filled images.
    MemoryImage mem(arrays);
    mem.fillPattern(9);
    ExecResult run =
        tryRunCompiled(program, arrays, machine, mem, env, 1001)
            .takeValue();
    MemoryImage ref_mem(arrays);
    ref_mem.fillPattern(9);
    ExecResult ref =
        tryRunReference(loop, arrays, machine, ref_mem, env, 1001)
            .takeValue();
    EXPECT_EQ(checked.run.cycles, run.cycles);
    EXPECT_TRUE(checked.run.env == run.env);
    EXPECT_TRUE(checked.run.env.at("s1") == ref.env.at("s1"));

    // Without a source loop nothing is compared.
    VerifiedRun unchecked =
        tryRunVerified(program, arrays, machine, 9, env, 1001, nullptr)
            .takeValue();
    EXPECT_EQ(unchecked.mismatch, "");
    EXPECT_EQ(unchecked.run.cycles, run.cycles);
}

TEST(VerifiedRun, MutatedProgramReportsTheMismatch)
{
    Module module = parseLirOrDie(kTrioLir);
    const Loop &alpha = module.loops.front();   // C[i] = A[i] + B[i]
    Machine machine = paperMachine();
    ArrayTable arrays = module.arrays;
    CompiledProgram program =
        compileLoopOrDie(alpha, arrays, machine, Technique::ModuloOnly);

    // Turn the add into a subtract: same class and latency, so the
    // schedule stays valid and only the values change.
    bool mutated = false;
    for (Operation &op : program.loops[0].main.ops) {
        if (op.opcode == Opcode::FAdd && !mutated) {
            op.opcode = Opcode::FSub;
            mutated = true;
        }
    }
    ASSERT_TRUE(mutated);

    VerifiedRun checked =
        tryRunVerified(program, arrays, machine, 17, {}, 64, &alpha)
            .takeValue();
    EXPECT_EQ(checked.mismatch.rfind("memory diverged: C[0]: ", 0), 0u)
        << checked.mismatch;
}

TEST(VerifiedRun, ReplayOfADivergingRunIsVerifyFailed)
{
    // A reassociated f64 reduction whose terms are inexact: partial
    // accumulators change the sum's low bits, and replay compares
    // every live-out bitwise.
    const char *lir = R"(
array X f64 4096

loop tenth {
    livein s0 f64
    carried s f64 init s0 update s1
    body {
        x = load X[i]
        k = fconst 0.1
        t = fmul x k
        s1 = fadd s t
    }
    liveout s1
}
)";
    ReproBundle bundle = bundleOf(lir, Technique::Selective, 4000);
    bundle.liveIns = {{"s0", RtVal::scalarF(0.0)}};
    bundle.options.vectorize.recognizeReductions = true;
    bundle.failure = Status::error(ErrorCode::VerifyFailed, "replay", "");
    ReplayOutcome outcome = replayBundle(bundle);
    EXPECT_EQ(outcome.status.code(), ErrorCode::VerifyFailed)
        << outcome.status.str();
    EXPECT_EQ(outcome.status.stage(), "replay");
    EXPECT_NE(outcome.status.message().find("live-out 's1' diverged"),
              std::string::npos)
        << outcome.status.str();
    EXPECT_TRUE(outcome.reproduced);

    // Scalar order is exact: the unreassociated compile replays clean.
    bundle.options.vectorize.recognizeReductions = false;
    EXPECT_TRUE(replayBundle(bundle).status.ok());
}

} // anonymous namespace
} // namespace selvec
