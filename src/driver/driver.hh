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

/**
 * Prebuilt streaming-executor plans for every loop of a compiled
 * program (sim/execplan.hh). A plan depends only on (loop, schedule,
 * machine) — not on trip count, memory or live-ins — so a program
 * that executes more than once (the batch service, benches, repeated
 * evaluation probes) builds its plans once with planCompiled() and
 * passes them to tryRunCompiled; those executions then
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
 * Source-loop live-in names missing from `live_ins` (lowering-internal
 * "__" values are excluded: they default to zero). Non-empty means an
 * execution would panic on an unbound live-in.
 */
std::vector<std::string> unboundLiveIns(const Loop &loop,
                                        const LiveEnv &live_ins);

/**
 * Run a compiled program over `n` original iterations: each compiled
 * loop executes floor(n/coverage) pipelined body iterations plus its
 * cleanup remainder, chained through live values and carried state.
 *
 * The bindings are checked first (an incomplete LiveEnv — a
 * malformed request, in service terms — is an InvalidInput status,
 * not a process death) and the execution is bounded: every
 * constituent loop runs under `limits` and the ambient deadline
 * context (see tryExecuteLoop). On a mid-sequence failure `mem` is
 * partially executed; quarantine callers must discard the loop's
 * results. Callers with no recovery story write
 * `tryRunCompiled(...).takeValue()`, which panics with the status.
 */
Expected<ExecResult> tryRunCompiled(const CompiledProgram &program,
                                    const ArrayTable &arrays,
                                    const Machine &machine,
                                    MemoryImage &mem,
                                    const LiveEnv &live_ins, int64_t n,
                                    const ExecLimits &limits = {},
                                    const ProgramPlans *plans = nullptr);

/**
 * Reference execution of the original loop (sequential interpreter);
 * the oracle every technique must match bit-for-bit. Bindings are
 * checked as in tryRunCompiled and the run is bounded by the ambient
 * deadline only (sequential mode has no cycle watchdog).
 */
Expected<ExecResult> tryRunReference(const Loop &loop,
                                     const ArrayTable &arrays,
                                     const Machine &machine,
                                     MemoryImage &mem,
                                     const LiveEnv &live_ins,
                                     int64_t n,
                                     const ExecLimits &limits = {});

/**
 * Compare a run against the reference run of the same source loop:
 * the memory images bitwise, then every source live-out the
 * reference produced (a live-out the reference env lacks is
 * skipped). Returns "" when they agree, otherwise the first mismatch
 * as "memory diverged: ..." or "live-out 'x' diverged (a vs b)".
 *
 * Set `reassociated` when the run was compiled with
 * VectOptions::recognizeReductions: partial accumulators reorder
 * floating-point reductions, so f64 live-outs that update a carried
 * value are skipped (integer ones are exact and still compared).
 */
std::string referenceMismatch(const Loop &loop, const MemoryImage &mem,
                              const ExecResult &run,
                              const MemoryImage &ref_mem,
                              const ExecResult &ref,
                              bool reassociated = false);

/** A compiled run and, when it was checked, the check's verdict. */
struct VerifiedRun
{
    ExecResult run;

    /** referenceMismatch's text: "" when the runs agree or no
     *  reference ran. */
    std::string mismatch;
};

/**
 * The one verified run: build the image of `arrays`, fill it with
 * `mem_pattern`, and run `program` over `n` iterations on it (as
 * tryRunCompiled). When `reference` (the source loop) is given, it
 * also runs sequentially on a copy of the pristine image, taken
 * before the pipelined run, and the two are compared by
 * referenceMismatch (`reassociated` as there). Either run's failure
 * comes back as its status; a mismatch is the caller's to judge.
 */
Expected<VerifiedRun> tryRunVerified(
    const CompiledProgram &program, const ArrayTable &arrays,
    const Machine &machine, uint64_t mem_pattern, const LiveEnv &live_ins,
    int64_t n, const Loop *reference, const ExecLimits &limits = {},
    const ProgramPlans *plans = nullptr, bool reassociated = false);

} // namespace selvec

#endif // SELVEC_DRIVER_DRIVER_HH
