#include "driver/driver.hh"

#include <optional>

#include "analysis/depgraph.hh"
#include "driver/compilecache.hh"
#include "analysis/recmii.hh"
#include "core/itersplit.hh"
#include "core/transform.hh"
#include "ir/verifier.hh"
#include "machine/binpack.hh"
#include "pipeline/checker.hh"
#include "pipeline/lowering.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/threadpool.hh"
#include "support/trace.hh"
#include "vectorize/full.hh"
#include "vectorize/traditional.hh"

namespace selvec
{

const char *
techniqueName(Technique t)
{
    switch (t) {
      case Technique::ModuloOnly:  return "modulo";
      case Technique::Traditional: return "traditional";
      case Technique::Full:        return "full";
      case Technique::Selective:   return "selective";
      case Technique::IterationSplit: return "iter-split";
    }
    return "?";
}

double
CompiledProgram::resMiiPerIteration() const
{
    double total = 0.0;
    for (const CompiledLoop &cl : loops) {
        total += static_cast<double>(cl.mainResMii) /
                 static_cast<double>(cl.coverage);
    }
    return total;
}

double
CompiledProgram::recMiiPerIteration() const
{
    double total = 0.0;
    for (const CompiledLoop &cl : loops) {
        total += static_cast<double>(cl.mainRecMii) /
                 static_cast<double>(cl.coverage);
    }
    return total;
}

double
CompiledProgram::iiPerIteration() const
{
    double total = 0.0;
    for (const CompiledLoop &cl : loops) {
        total += static_cast<double>(cl.mainSchedule.ii) /
                 static_cast<double>(cl.coverage);
    }
    return total;
}

namespace
{

/** Lower, build dependences, schedule, and validate one loop. */
Status
scheduleInto(const Loop &body, const ArrayTable &arrays,
             const Machine &machine, const ScheduleOptions &options,
             Loop &lowered_out, ModuloSchedule &schedule_out,
             int64_t *res_mii, int64_t *rec_mii)
{
    Expected<Loop> lowered =
        tryLowerForScheduling(body, arrays, machine);
    if (!lowered.ok())
        return lowered.status();
    lowered_out = lowered.takeValue();
    DepGraph graph(arrays, lowered_out, machine);
    ScheduleResult sr =
        moduloSchedule(lowered_out, graph, machine, options);
    if (!sr.ok) {
        return Status::error(sr.code == ErrorCode::Ok
                                 ? ErrorCode::ScheduleBudgetExhausted
                                 : sr.code,
                             "modsched", sr.error);
    }
    if (faultPointHit("checker.validate")) {
        return Status::error(
            ErrorCode::VerifyFailed, "checker",
            strfmt("fault injected at checker.validate: schedule of "
                   "loop '%s' forced to fail validation",
                   body.name.c_str()));
    }
    std::string check =
        validateSchedule(lowered_out, graph, machine, sr.schedule);
    if (!check.empty()) {
        return Status::error(ErrorCode::VerifyFailed, "checker",
                             "invalid schedule for loop '" +
                                 body.name + "': " + check);
    }
    schedule_out = std::move(sr.schedule);
    if (res_mii != nullptr)
        *res_mii = sr.resMii;
    if (rec_mii != nullptr)
        *rec_mii = sr.recMii;
    return Status::success();
}

Expected<CompiledLoop>
compilePair(const Loop &main_body, const Loop &cleanup_body,
            const ArrayTable &arrays, const Machine &machine,
            const ScheduleOptions &options)
{
    CompiledLoop cl;
    cl.coverage = main_body.coverage;
    Status st =
        scheduleInto(main_body, arrays, machine, options, cl.main,
                     cl.mainSchedule, &cl.mainResMii, &cl.mainRecMii);
    if (!st.ok())
        return st;
    st = scheduleInto(cleanup_body, arrays, machine, options,
                      cl.cleanup, cl.cleanupSchedule, nullptr,
                      nullptr);
    if (!st.ok())
        return st;
    return cl;
}

/** Whether the baseline of `loop` is resource- (not recurrence-)
 *  limited: ResMII >= RecMII on the unrolled form. */
bool
isResourceLimited(const Loop &loop, const ArrayTable &arrays,
                  const Machine &machine)
{
    Loop unrolled = unrollLoop(loop, arrays, machine);
    Loop lowered = lowerForScheduling(unrolled, machine);
    DepGraph graph(arrays, lowered, machine);

    std::vector<Opcode> opcodes;
    for (const Operation &op : lowered.ops)
        opcodes.push_back(op.opcode);
    int64_t res = packedHighWater(machine, opcodes);
    int64_t rec = computeRecMii(graph);
    return res >= rec;
}

/**
 * The compile body proper. Works on `arrays` directly; tryCompileLoop
 * hands it a scratch copy so failed attempts leave no temporaries
 * behind.
 */
Expected<CompiledProgram>
tryCompileLoopImpl(const Loop &loop, ArrayTable &arrays,
                   const Machine &machine, Technique technique,
                   const DriverOptions &options)
{
    CompiledProgram program;
    program.technique = technique;
    program.resourceLimited = isResourceLimited(loop, arrays, machine);

    switch (technique) {
      case Technique::ModuloOnly: {
        Loop main = unrollLoop(loop, arrays, machine);
        Expected<CompiledLoop> cl = compilePair(
            main, loop, arrays, machine, options.scheduling);
        if (!cl.ok())
            return cl.status();
        program.loops.push_back(cl.takeValue());
        break;
      }
      case Technique::Full: {
        Loop main = fullVectorize(loop, arrays, machine);
        Expected<CompiledLoop> cl = compilePair(
            main, loop, arrays, machine, options.scheduling);
        if (!cl.ok())
            return cl.status();
        program.loops.push_back(cl.takeValue());
        break;
      }
      case Technique::Selective: {
        DepGraph graph(arrays, loop, machine);
        VectAnalysis va = analyzeVectorizable(loop, graph, machine,
                                              options.vectorize);
        Expected<PartitionResult> part =
            tryPartitionOps(loop, va, machine, options.partition);
        if (!part.ok())
            return part.status();
        program.partition = part.takeValue();
        Loop main = transformLoop(loop, arrays, va,
                                  program.partition.vectorize, machine);
        Expected<CompiledLoop> cl = compilePair(
            main, loop, arrays, machine, options.scheduling);
        if (!cl.ok())
            return cl.status();
        program.loops.push_back(cl.takeValue());
        break;
      }
      case Technique::Traditional: {
        DistributedLoops dist = traditionalVectorize(
            loop, arrays, machine, options.expansionSize);
        for (const DistLoop &dl : dist.loops) {
            Expected<CompiledLoop> cl = compilePair(
                dl.main, dl.cleanup, arrays, machine,
                options.scheduling);
            if (!cl.ok())
                return cl.status();
            program.loops.push_back(cl.takeValue());
        }
        break;
      }
      case Technique::IterationSplit: {
        DepGraph graph(arrays, loop, machine);
        VectAnalysis va = analyzeVectorizable(loop, graph, machine,
                                              options.vectorize);
        int unroll = options.iterSplitUnroll > 0
                         ? options.iterSplitUnroll
                         : machine.vectorLength + 1;
        IterSplitResult split =
            iterationSplit(loop, arrays, va, machine, unroll);
        Loop main = split.ok
                        ? std::move(split.loop)
                        : unrollLoop(loop, arrays, machine);
        Expected<CompiledLoop> cl = compilePair(
            main, loop, arrays, machine, options.scheduling);
        if (!cl.ok())
            return cl.status();
        program.loops.push_back(cl.takeValue());
        break;
      }
    }
    return program;
}

/**
 * The degradation chain's last resort: schedule the source loop as-is
 * (coverage 1, no unrolling, no vectorization). Shares nothing with
 * the technique pipeline beyond the scheduler itself, so it survives
 * failures injected into partitioning or transformation.
 */
Expected<CompiledProgram>
tryCompileScalar(const Loop &loop, const ArrayTable &arrays,
                 const Machine &machine, const DriverOptions &options)
{
    CompiledProgram program;
    program.technique = Technique::ModuloOnly;
    Expected<CompiledLoop> cl =
        compilePair(loop, loop, arrays, machine, options.scheduling);
    if (!cl.ok())
        return cl.status();
    program.loops.push_back(cl.takeValue());
    return program;
}

} // anonymous namespace

Expected<CompiledProgram>
tryCompileLoop(const Loop &loop, ArrayTable &arrays,
               const Machine &machine, Technique technique,
               const DriverOptions &options)
{
    TraceSpan span("driver.compile");
    ScopedStatTimer timer("time.compile");
    StatsRegistry &stats = globalStats();
    stats.add("driver.compiles");
    stats.add(std::string("driver.technique.") +
              techniqueName(technique));

    Status machine_ok = machine.validateStatus();
    if (!machine_ok.ok()) {
        stats.add("driver.failures");
        return machine_ok;
    }
    Status loop_ok = verifyLoopStatus(arrays, loop);
    if (!loop_ok.ok()) {
        stats.add("driver.failures");
        return loop_ok;
    }
    // A nonsense option set must fail loudly, not misbehave quietly.
    // Zero stays meaningful (empty budget/window, watchdog off);
    // only negative knobs are rejected.
    const ScheduleOptions &sched = options.scheduling;
    if (sched.budgetFactor < 0 || sched.maxIiFactor < 0 ||
        sched.maxIiSlack < 0 || sched.watchdogFactor < 0) {
        stats.add("driver.failures");
        return Status::error(
            ErrorCode::InvalidInput, "driver",
            strfmt("invalid schedule options: budgetFactor %d, "
                   "maxIiFactor %lld, maxIiSlack %lld and "
                   "watchdogFactor %lld must all be >= 0",
                   sched.budgetFactor,
                   static_cast<long long>(sched.maxIiFactor),
                   static_cast<long long>(sched.maxIiSlack),
                   static_cast<long long>(sched.watchdogFactor)));
    }
    if (options.partition.maxIterations < 0) {
        stats.add("driver.failures");
        return Status::error(
            ErrorCode::InvalidInput, "driver",
            strfmt("invalid partition options: maxIterations must be "
                   ">= 0 (got %d)",
                   options.partition.maxIterations));
    }
    if (options.partition.exactThreshold < 0 ||
        options.partition.exactMaxNodes < 0) {
        stats.add("driver.failures");
        return Status::error(
            ErrorCode::InvalidInput, "driver",
            strfmt("invalid partition options: exactThreshold (%d) "
                   "and exactMaxNodes (%lld) must be >= 0",
                   options.partition.exactThreshold,
                   static_cast<long long>(
                       options.partition.exactMaxNodes)));
    }

    // Compile against a scratch copy: a failed attempt must not leak
    // scalar-expansion temporaries into the caller's table.
    noteCompiled();
    ArrayTable trial = arrays;
    Expected<CompiledProgram> program =
        tryCompileLoopImpl(loop, trial, machine, technique, options);
    if (program.ok())
        arrays = std::move(trial);
    else
        stats.add("driver.failures");
    return program;
}

CompiledProgram
compileLoopOrDie(const Loop &loop, ArrayTable &arrays,
                 const Machine &machine, Technique technique,
                 const DriverOptions &options)
{
    Expected<CompiledProgram> program =
        tryCompileLoop(loop, arrays, machine, technique, options);
    if (!program.ok())
        SV_FATAL("%s", program.status().str().c_str());
    return program.takeValue();
}

std::string
CompileReport::str() const
{
    std::string out = std::string("requested ") +
                      techniqueName(requested) + ":";
    for (const CompileAttempt &a : attempts) {
        out += "\n  ";
        out += a.scalarFallback ? "scalar" : techniqueName(a.technique);
        if (a.status.ok()) {
            out += strfmt(" ok (II/iter %.3g)", a.iiPerIteration);
        } else {
            out += " failed: " + a.status.str();
        }
    }
    if (!succeeded)
        out += "\n  all tiers failed: " + finalStatus.str();
    return out;
}

ResilientCompile
compileLoopResilient(const Loop &loop, ArrayTable &arrays,
                     const Machine &machine, Technique technique,
                     const DriverOptions &options, int jobs)
{
    TraceSpan span("driver.resilient");
    globalStats().add("driver.resilient.runs");
    ResilientCompile result;
    result.report.requested = technique;

    // The degradation chain: the requested technique first, then the
    // paper's spectrum from most to least aggressive, then the
    // last-resort scalar schedule of the source loop itself.
    std::vector<Technique> chain{technique};
    for (Technique t : {Technique::Selective, Technique::Full,
                        Technique::ModuloOnly}) {
        if (t != technique)
            chain.push_back(t);
    }
    size_t tiers = chain.size() + 1;

    // Speculative fan-out: compile every tier concurrently, each
    // against its own array-table copy and stats sink, then replay
    // the serial walk over the finished results. Attempts past the
    // first success are discarded with their sinks unobserved, so
    // the report and merged stats match the serial chain exactly.
    std::vector<std::optional<Expected<CompiledProgram>>> speculated;
    std::vector<ArrayTable> tables;
    std::vector<StatsRegistry> sinks(tiers);
    if (jobs > 1 && !faultPlanArmed()) {
        speculated.resize(tiers);
        tables.assign(tiers, arrays);
        TraceContext tctx = traceCurrentContext();
        ThreadPool pool(jobs);
        pool.parallelFor(tiers, [&](size_t i) {
            ScopedStatsSink sink(sinks[i]);
            TraceContextScope tscope(tctx);
            bool scalar = i == chain.size();
            speculated[i] =
                scalar ? tryCompileScalar(loop, tables[i], machine,
                                          options)
                       : tryCompileLoop(loop, tables[i], machine,
                                        chain[i], options);
        });
    }

    std::string reason;
    for (size_t tier = 0; tier < tiers; ++tier) {
        bool scalar = tier == chain.size();
        CompileAttempt attempt;
        attempt.technique =
            scalar ? Technique::ModuloOnly : chain[tier];
        attempt.scalarFallback = scalar;
        attempt.fallbackReason = reason;

        std::optional<Expected<CompiledProgram>> attempted;
        if (!speculated.empty()) {
            globalStats().mergeFrom(sinks[tier]);
            attempted = std::move(speculated[tier]);
        } else if (scalar) {
            attempted =
                tryCompileScalar(loop, arrays, machine, options);
        } else {
            attempted = tryCompileLoop(loop, arrays, machine,
                                       chain[tier], options);
        }
        Expected<CompiledProgram> &program = *attempted;
        if (program.ok()) {
            if (!speculated.empty())
                arrays = std::move(tables[tier]);
            attempt.status = Status::success();
            attempt.iiPerIteration =
                program.value().iiPerIteration();
            result.report.attempts.push_back(std::move(attempt));
            result.report.succeeded = true;
            result.report.finalTechnique =
                scalar ? Technique::ModuloOnly : chain[tier];
            result.report.usedScalarFallback = scalar;
            result.report.finalStatus = Status::success();
            result.program = program.takeValue();

            StatsRegistry &stats = globalStats();
            stats.add(std::string("driver.resilient.tier.") +
                      (scalar ? "scalar"
                              : techniqueName(chain[tier])));
            if (result.report.degraded())
                stats.add("driver.resilient.degraded");
            return result;
        }
        attempt.status = program.status();
        reason = program.status().str();
        result.report.finalStatus = program.status();
        result.report.attempts.push_back(std::move(attempt));
    }
    globalStats().add("driver.resilient.exhausted");
    return result;
}

ProgramPlans
planCompiled(const CompiledProgram &program, const Machine &machine)
{
    ProgramPlans plans;
    plans.loops.resize(program.loops.size());
    for (size_t i = 0; i < program.loops.size(); ++i) {
        const CompiledLoop &cl = program.loops[i];
        plans.loops[i].main =
            buildExecPlan(cl.main, cl.mainSchedule, machine);
        plans.loops[i].cleanup =
            buildExecPlan(cl.cleanup, cl.cleanupSchedule, machine);
    }
    return plans;
}

ExecResult
runCompiled(const CompiledProgram &program, const ArrayTable &arrays,
            const Machine &machine, MemoryImage &mem,
            const LiveEnv &live_ins, int64_t n,
            const ProgramPlans *plans)
{
    SV_ASSERT(plans == nullptr ||
                  plans->loops.size() == program.loops.size(),
              "plans built for a different program");
    ExecResult result;
    result.env = live_ins;

    for (size_t li = 0; li < program.loops.size(); ++li) {
        const CompiledLoop &cl = program.loops[li];
        int64_t cover = cl.coverage;
        int64_t j_main = n / cover;
        int64_t remainder = n - j_main * cover;

        result.cycles += machine.invocationOverhead;

        LiveEnv carried_bridge;
        if (j_main > 0) {
            RunOutput out = executeLoop(
                arrays, cl.main, machine, mem, result.env, j_main, 0,
                &cl.mainSchedule,
                plans != nullptr ? &plans->loops[li].main : nullptr);
            result.cycles += out.cycles;
            for (auto &[name, v] : out.liveOuts)
                result.env[name] = v;
            carried_bridge = std::move(out.carriedFinal);
            if (out.exited) {
                // The loop terminated itself: the executor already
                // selected the exiting replica's observable state.
                continue;
            }
        }

        if (remainder > 0) {
            LiveEnv cleanup_env = result.env;
            // The cleanup loop resumes every carried chain from the
            // main loop's continuation state.
            if (j_main > 0) {
                for (const CarriedValue &cv : cl.cleanup.carried) {
                    const std::string &in_name =
                        cl.cleanup.valueInfo(cv.in).name;
                    auto it = carried_bridge.find(in_name);
                    if (it != carried_bridge.end()) {
                        cleanup_env[cl.cleanup.valueInfo(cv.init)
                                        .name] = it->second;
                    }
                }
            }
            RunOutput out = executeLoop(
                arrays, cl.cleanup, machine, mem, cleanup_env,
                remainder, j_main * cover, &cl.cleanupSchedule,
                plans != nullptr ? &plans->loops[li].cleanup
                                 : nullptr);
            result.cycles += out.cycles;
            for (auto &[name, v] : out.liveOuts)
                result.env[name] = v;
        }
    }
    return result;
}

ExecResult
runReference(const Loop &loop, const ArrayTable &arrays,
             const Machine &machine, MemoryImage &mem,
             const LiveEnv &live_ins, int64_t n)
{
    RunOutput out =
        executeLoop(arrays, loop, machine, mem, live_ins, n, 0, nullptr);
    ExecResult result;
    result.env = live_ins;
    for (auto &[name, v] : out.liveOuts)
        result.env[name] = v;
    return result;
}

std::vector<std::string>
unboundLiveIns(const Loop &loop, const LiveEnv &live_ins)
{
    std::vector<std::string> missing;
    for (ValueId id : loop.liveIns) {
        const std::string &name = loop.valueInfo(id).name;
        if (name.rfind("__", 0) == 0)
            continue;   // lowering-internal; defaults to zero
        if (live_ins.find(name) == live_ins.end())
            missing.push_back(name);
    }
    return missing;
}

namespace
{

Status
checkBindings(const std::vector<std::string> &missing,
              const std::string &loop_name)
{
    if (missing.empty())
        return Status::success();
    std::string joined;
    for (const std::string &name : missing) {
        if (!joined.empty())
            joined += ", ";
        joined += name;
    }
    return Status::error(ErrorCode::InvalidInput, "execute",
                         "loop '" + loop_name +
                             "' has unbound live-ins: " + joined);
}

} // anonymous namespace

Expected<ExecResult>
tryRunCompiled(const CompiledProgram &program, const ArrayTable &arrays,
               const Machine &machine, MemoryImage &mem,
               const LiveEnv &live_ins, int64_t n,
               const ExecLimits &limits, const ProgramPlans *plans)
{
    SV_ASSERT(plans == nullptr ||
                  plans->loops.size() == program.loops.size(),
              "plans built for a different program");
    // Later loops in a distributed sequence may consume earlier
    // loops' live-outs; only bindings satisfied by neither source are
    // a caller error.
    LiveEnv available = live_ins;
    for (const CompiledLoop &cl : program.loops) {
        Status st = checkBindings(unboundLiveIns(cl.main, available),
                                  cl.main.name);
        if (!st.ok())
            return st;
        for (ValueId id : cl.main.liveOuts)
            available[cl.main.valueInfo(id).name] = RtVal{};
    }

    // The bounded mirror of runCompiled: same chaining, but every
    // constituent execution can trip the watchdog or the ambient
    // deadline and surface it as a status.
    ExecResult result;
    result.env = live_ins;
    for (size_t li = 0; li < program.loops.size(); ++li) {
        const CompiledLoop &cl = program.loops[li];
        int64_t cover = cl.coverage;
        int64_t j_main = n / cover;
        int64_t remainder = n - j_main * cover;

        result.cycles += machine.invocationOverhead;

        LiveEnv carried_bridge;
        if (j_main > 0) {
            Expected<RunOutput> out = tryExecuteLoop(
                arrays, cl.main, machine, mem, result.env, j_main, 0,
                &cl.mainSchedule, limits,
                plans != nullptr ? &plans->loops[li].main : nullptr);
            if (!out.ok())
                return out.status();
            result.cycles += out.value().cycles;
            for (auto &[name, v] : out.value().liveOuts)
                result.env[name] = v;
            carried_bridge = std::move(out.value().carriedFinal);
            if (out.value().exited) {
                // The loop terminated itself: the executor already
                // selected the exiting replica's observable state.
                continue;
            }
        }

        if (remainder > 0) {
            LiveEnv cleanup_env = result.env;
            // The cleanup loop resumes every carried chain from the
            // main loop's continuation state.
            if (j_main > 0) {
                for (const CarriedValue &cv : cl.cleanup.carried) {
                    const std::string &in_name =
                        cl.cleanup.valueInfo(cv.in).name;
                    auto it = carried_bridge.find(in_name);
                    if (it != carried_bridge.end()) {
                        cleanup_env[cl.cleanup.valueInfo(cv.init)
                                        .name] = it->second;
                    }
                }
            }
            Expected<RunOutput> out = tryExecuteLoop(
                arrays, cl.cleanup, machine, mem, cleanup_env,
                remainder, j_main * cover, &cl.cleanupSchedule,
                limits,
                plans != nullptr ? &plans->loops[li].cleanup
                                 : nullptr);
            if (!out.ok())
                return out.status();
            result.cycles += out.value().cycles;
            for (auto &[name, v] : out.value().liveOuts)
                result.env[name] = v;
        }
    }
    return result;
}

Expected<ExecResult>
tryRunReference(const Loop &loop, const ArrayTable &arrays,
                const Machine &machine, MemoryImage &mem,
                const LiveEnv &live_ins, int64_t n,
                const ExecLimits &limits)
{
    Status st = checkBindings(unboundLiveIns(loop, live_ins), loop.name);
    if (!st.ok())
        return st;
    Expected<RunOutput> out = tryExecuteLoop(
        arrays, loop, machine, mem, live_ins, n, 0, nullptr, limits);
    if (!out.ok())
        return out.status();
    ExecResult result;
    result.env = live_ins;
    for (auto &[name, v] : out.value().liveOuts)
        result.env[name] = v;
    return result;
}

} // namespace selvec
