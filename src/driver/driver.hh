/**
 * @file
 * The compilation driver: one call from a frontend loop to an executed,
 * cycle-counted software pipeline under any of the paper's four
 * techniques.
 *
 *   ModuloOnly   — the baseline: unroll by VL (matching the benefit of
 *                  one-address vector memory via base+offset
 *                  addressing) and modulo schedule.
 *   Traditional  — Allen-Kennedy distribution + scalar expansion +
 *                  fusion; every resulting loop modulo scheduled.
 *   Full         — vectorize everything in place, unroll the scalar
 *                  rest, modulo schedule.
 *   Selective    — the paper's contribution: KL partitioning against
 *                  the machine's bins, then transform + modulo
 *                  schedule.
 *
 * Every compiled loop pairs a main loop (coverage VL for vectorized /
 * unrolled forms) with a scalar cleanup loop covering remainder
 * iterations, exactly like the paper's generated code.
 */

#ifndef SELVEC_DRIVER_DRIVER_HH
#define SELVEC_DRIVER_DRIVER_HH

#include <string>
#include <vector>

#include "analysis/vectorizable.hh"
#include "core/partition.hh"
#include "pipeline/modsched.hh"
#include "sim/execplan.hh"
#include "sim/executor.hh"
#include "support/expected.hh"
#include "support/status.hh"

namespace selvec
{

enum class Technique : uint8_t {
    ModuloOnly,
    Traditional,
    Full,
    Selective,

    /**
     * The paper's section 6 larger-scheduling-window extension: whole
     * iterations are assigned to vector or scalar resources (unroll
     * factor VL+1 by default; DriverOptions::iterSplitUnroll), with no
     * communication. Requires hardware unaligned vector memory and no
     * loop-carried state; otherwise falls back to the unrolled
     * baseline.
     */
    IterationSplit,
};

const char *techniqueName(Technique t);

struct DriverOptions
{
    /** Size of scalar-expansion temporaries (>= any trip count). */
    int64_t expansionSize = 8192;

    /**
     * Vectorizability options for the Selective technique. Enable
     * recognizeReductions to vectorize associative recurrences with
     * partial accumulators (the paper's section 6 extension; it
     * reorders floating-point reductions, so it is off by default as
     * in the paper's evaluation).
     */
    VectOptions vectorize;

    /** Selective-vectorization options (Table 4 toggles
     *  cost.considerCommunication). */
    PartitionOptions partition;

    ScheduleOptions scheduling;

    /** Unroll factor for Technique::IterationSplit (0: VL + 1). */
    int iterSplitUnroll = 0;
};

/** One scheduled loop (main + cleanup pair). */
struct CompiledLoop
{
    Loop main;                      ///< lowered
    ModuloSchedule mainSchedule;
    int64_t mainResMii = 0;
    int64_t mainRecMii = 0;

    Loop cleanup;                   ///< lowered, coverage 1
    ModuloSchedule cleanupSchedule;

    int coverage = 1;               ///< main.coverage
};

/** A compiled technique for one source loop. */
struct CompiledProgram
{
    Technique technique = Technique::ModuloOnly;
    std::vector<CompiledLoop> loops;    ///< executed in order

    /** Selective only: the partitioning outcome. */
    PartitionResult partition;

    /** Per-original-iteration ResMII: sum of resMii/coverage. */
    double resMiiPerIteration() const;

    /** Per-original-iteration RecMII: sum of recMii/coverage. */
    double recMiiPerIteration() const;

    /** Per-original-iteration achieved II. */
    double iiPerIteration() const;

    /** True when the source loop's baseline II is bounded by
     *  resources rather than recurrences. */
    bool resourceLimited = false;
};

/**
 * Compile one frontend loop with one technique, as a recoverable
 * operation: a malformed loop or machine, a partitioning failure or an
 * exhausted II search comes back as a Status (with the originating
 * stage and error code) instead of killing the process. `arrays` may
 * gain scalar-expansion temporaries (Traditional); on failure it is
 * left untouched.
 */
Expected<CompiledProgram> tryCompileLoop(
    const Loop &loop, ArrayTable &arrays, const Machine &machine,
    Technique technique, const DriverOptions &options = {});

/**
 * Compile one frontend loop with one technique; fatals on any
 * failure. The thin convenience wrapper over tryCompileLoop for tools
 * and tests that have no recovery story.
 */
CompiledProgram compileLoopOrDie(const Loop &loop, ArrayTable &arrays,
                                 const Machine &machine,
                                 Technique technique,
                                 const DriverOptions &options = {});

/** Historic name of compileLoopOrDie. */
inline CompiledProgram
compileLoop(const Loop &loop, ArrayTable &arrays,
            const Machine &machine, Technique technique,
            const DriverOptions &options = {})
{
    return compileLoopOrDie(loop, arrays, machine, technique, options);
}

/** One tier of the degradation chain, as recorded in a
 *  CompileReport. */
struct CompileAttempt
{
    Technique technique = Technique::ModuloOnly;

    /** True for the last-resort tier: the source loop scheduled as-is
     *  (coverage 1), with no unrolling or vectorization. */
    bool scalarFallback = false;

    /** Outcome of this attempt (Ok when it produced a program). */
    Status status;

    /** Why this tier ran at all: the previous tier's failure ("" for
     *  the first attempt). */
    std::string fallbackReason;

    /** Achieved II per original iteration (successful attempts). */
    double iiPerIteration = 0.0;
};

/**
 * The audit trail of a resilient compilation: every technique tried,
 * in order, with each failure's structured status and the II finally
 * achieved. Callers and benches inspect it; str() renders it for
 * logs.
 */
struct CompileReport
{
    Technique requested = Technique::ModuloOnly;
    std::vector<CompileAttempt> attempts;

    bool succeeded = false;
    Technique finalTechnique = Technique::ModuloOnly;
    bool usedScalarFallback = false;

    /** Ok when succeeded; the last tier's failure otherwise. */
    Status finalStatus;

    /** True when the program did not come from the requested
     *  technique. */
    bool
    degraded() const
    {
        return !succeeded || usedScalarFallback ||
               finalTechnique != requested;
    }

    std::string str() const;
};

/** Outcome of compileLoopResilient: a program (when any tier
 *  succeeded) plus the full report. */
struct ResilientCompile
{
    CompiledProgram program;    ///< valid only when ok()
    CompileReport report;

    bool ok() const { return report.succeeded; }
};

/**
 * Compile with graceful degradation: attempt `technique`, and on any
 * recoverable failure fall back through cheaper techniques —
 * Selective -> Full -> ModuloOnly -> single-iteration scalar schedule
 * (the requested technique always runs first, then the remaining
 * chain). Never fatals; if every tier fails (only possible with
 * persistent fault injection or a degenerate machine), the report
 * carries the last status. `arrays` is only updated when a tier
 * succeeds, and only with that tier's temporaries.
 *
 * `jobs` > 1 compiles every tier speculatively in parallel and then
 * replays the serial walk over the results, so the report (attempt
 * order, fallback reasons, chosen tier, stats of adopted attempts)
 * is identical to a serial run; tiers past the first success are
 * discarded unobserved. A run with an armed fault plan always
 * degrades to serial so hit windows stay ordered. Default 1: exactly today's serial chain.
 */
ResilientCompile compileLoopResilient(const Loop &loop,
                                      ArrayTable &arrays,
                                      const Machine &machine,
                                      Technique technique,
                                      const DriverOptions &options = {},
                                      int jobs = 1);

/**
 * Prebuilt streaming-executor plans for every loop of a compiled
 * program (sim/execplan.hh). A plan depends only on (loop, schedule,
 * machine) — not on trip count, memory or live-ins — so a program
 * that executes more than once (the batch service, benches, repeated
 * evaluation probes) builds its plans once with planCompiled() and
 * passes them to runCompiled / tryRunCompiled; those executions then
 * record `sim.plan.reuses` instead of rebuilding (`sim.plan.builds`).
 */
struct ProgramPlans
{
    struct LoopPlans
    {
        ExecPlan main;
        ExecPlan cleanup;
    };

    std::vector<LoopPlans> loops;   ///< parallel to CompiledProgram::loops
};

/** Build the execution plans of every (main, cleanup) pair. */
ProgramPlans planCompiled(const CompiledProgram &program,
                          const Machine &machine);

/** Execution result of a compiled program. */
struct ExecResult
{
    int64_t cycles = 0;      ///< total, including invocation overheads
    LiveEnv env;             ///< live values after the last loop
};

/**
 * Run a compiled program over `n` original iterations: each compiled
 * loop executes floor(n/coverage) pipelined body iterations plus its
 * cleanup remainder, chained through live values and carried state.
 */
ExecResult runCompiled(const CompiledProgram &program,
                       const ArrayTable &arrays, const Machine &machine,
                       MemoryImage &mem, const LiveEnv &live_ins,
                       int64_t n, const ProgramPlans *plans = nullptr);

/**
 * Reference execution of the original loop (sequential interpreter);
 * the oracle every technique must match bit-for-bit.
 */
ExecResult runReference(const Loop &loop, const ArrayTable &arrays,
                        const Machine &machine, MemoryImage &mem,
                        const LiveEnv &live_ins, int64_t n);

/**
 * Source-loop live-in names missing from `live_ins` (lowering-internal
 * "__" values are excluded: they default to zero). Non-empty means an
 * execution would panic on an unbound live-in.
 */
std::vector<std::string> unboundLiveIns(const Loop &loop,
                                        const LiveEnv &live_ins);

/**
 * runCompiled with the bindings checked first (an incomplete LiveEnv
 * — a malformed request, in service terms — is an InvalidInput
 * status, not a process death) and the execution bounded: every
 * constituent loop runs under `limits` and the ambient
 * deadline/cancellation context (see tryExecuteLoop). On a
 * mid-sequence failure `mem` is partially executed; quarantine
 * callers must discard the loop's results.
 */
Expected<ExecResult> tryRunCompiled(const CompiledProgram &program,
                                    const ArrayTable &arrays,
                                    const Machine &machine,
                                    MemoryImage &mem,
                                    const LiveEnv &live_ins, int64_t n,
                                    const ExecLimits &limits = {},
                                    const ProgramPlans *plans = nullptr);

/** runReference with the bindings checked first and the run bounded
 *  (sequential mode: deadline/cancellation only — no cycle
 *  watchdog). */
Expected<ExecResult> tryRunReference(const Loop &loop,
                                     const ArrayTable &arrays,
                                     const Machine &machine,
                                     MemoryImage &mem,
                                     const LiveEnv &live_ins,
                                     int64_t n,
                                     const ExecLimits &limits = {});

} // namespace selvec

#endif // SELVEC_DRIVER_DRIVER_HH
