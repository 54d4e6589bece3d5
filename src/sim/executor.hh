/**
 * @file
 * The loop execution engine.
 *
 * Loops execute through one entry point, tryExecuteLoop, in two
 * modes sharing all operand semantics:
 *
 *  - sequential (reference): body operations run in program order,
 *    iteration by iteration — the correctness oracle;
 *  - pipelined: operations run in global schedule order (operation at
 *    kernel time t of body iteration j executes at cycle j*II + t),
 *    exactly as the software pipeline issues them, with per-iteration
 *    register instances standing in for rotating registers. The engine
 *    asserts every operand has been produced when read and reports the
 *    completion cycle of the whole pipeline (prologue + kernel +
 *    epilogue), which is the quantity the evaluation measures.
 *
 * Pipelined runs use the streaming engine: a precompiled ExecPlan
 * (sim/execplan.hh) replays a per-II-slot issue template over a
 * rotating ring of dense register frames, so time is O(n_body * ops)
 * with no event list or sort and memory is O(II * ops +
 * windowFrames * values) regardless of trip count. The previous
 * event-list engine is retained as the dense reference
 * (tryExecuteLoopDense) and as the lockstep cross-check behind
 * SELVEC_CHECK_SIM (support/checkmode.hh): with the mode on, every
 * executed instance's operands, readiness, suppression decision and
 * result — and the run's final observables — are compared against
 * the dense engine and the process dies on the first divergence.
 * Both engines produce bit-identical observable outputs.
 *
 * Every run is bounded: a cycle watchdog (ExecLimits) and the ambient
 * deadline (support/deadline.hh) can end it with a structured status.
 * With default ExecLimits and no deadline installed nothing is armed.
 *
 * Live values enter and leave by name so the driver can chain a main
 * loop into its cleanup loop and across distributed loop sequences.
 */

#ifndef SELVEC_SIM_EXECUTOR_HH
#define SELVEC_SIM_EXECUTOR_HH

#include <array>
#include <map>
#include <string>

#include "machine/machine.hh"
#include "pipeline/schedule.hh"
#include "sim/memimage.hh"
#include "sim/rtval.hh"
#include "support/expected.hh"

namespace selvec
{

struct ExecPlan;

/** Values passed into / out of a loop, keyed by value name. */
using LiveEnv = std::map<std::string, RtVal>;

struct RunOutput
{
    int64_t bodyIterations = 0;

    /** Completion cycle of the last operation (pipelined mode only). */
    int64_t cycles = 0;

    /** Live-out values by name. */
    LiveEnv liveOuts;

    /** For each carried value (by carried-in name): what the next
     *  iteration would have read — the continuation state a cleanup
     *  loop resumes from. */
    LiveEnv carriedFinal;

    /** Dynamic operation counts per operation class (suppressed
     *  speculative stores are not counted). */
    std::array<int64_t, kNumOpClasses> dynOps{};

    /** Total executed operations. */
    int64_t
    totalDynOps() const
    {
        int64_t total = 0;
        for (int64_t c : dynOps)
            total += c;
        return total;
    }

    /** True when an ExitIf fired. */
    bool exited = false;

    /** Source-space index (within this loop's coverage space) of the
     *  iteration whose exit fired. */
    int64_t exitOrig = 0;
};

/** Bounds on one execution (tryExecuteLoop). The default arms
 *  nothing: no cycle watchdog, only the ambient deadline context. */
struct ExecLimits
{
    /**
     * Cycle watchdog: a pipelined run aborts with WatchdogTripped
     * once an event is due past watchdogFactor x the schedule's own
     * expected completion (n_body * II + completion span), clamped
     * below by 1. 0 disables the derived bound. A valid schedule can
     * never trip it — it exists to contain mis-scheduled pipelines,
     * and is exercised by the "sim.watchdog" fault site.
     */
    int64_t watchdogFactor = 0;

    /** Explicit cycle ceiling; overrides the derived bound when > 0
     *  (the genuine-trip path for tests and replay). */
    int64_t maxCycles = 0;
};

/**
 * Execute `loop` for `n_body` body iterations under the containment
 * contract (DESIGN.md §10): the cycle watchdog of `limits` and the
 * ambient deadline context are checked during the run, and a trip
 * returns a structured WatchdogTripped / DeadlineExceeded status
 * instead of spinning. A run whose memory references would leave
 * their arrays' extent is InvalidInput before any engine starts (the
 * footprint rule, DESIGN.md §10). On failure `mem` (and any other
 * out-of-band state) is partially executed — quarantine callers must
 * treat the loop's results as void.
 *
 * @param loop the loop (any coverage)
 * @param machine supplies vector length and latencies
 * @param mem simulated memory, updated in place
 * @param live_ins bindings for every live-in (names starting with
 *        "__" default to zero when unbound; any other unbound
 *        live-in panics — the driver's tryRun* check first)
 * @param n_body number of body iterations to run (negative:
 *        InvalidInput)
 * @param base iteration-index offset: references evaluate at
 *        base + j (a cleanup loop continuing after J covered
 *        iterations passes base = J * coverage of the main loop)
 * @param schedule nullptr for sequential reference execution, or the
 *        loop's modulo schedule for pipelined execution
 * @param plan optional prebuilt plan for (loop, schedule, machine)
 *        (see buildExecPlan); nullptr builds one for this run.
 *        Ignored in sequential mode.
 */
Expected<RunOutput>
tryExecuteLoop(const ArrayTable &arrays, const Loop &loop,
               const Machine &machine, MemoryImage &mem,
               const LiveEnv &live_ins, int64_t n_body,
               int64_t base = 0,
               const ModuloSchedule *schedule = nullptr,
               const ExecLimits &limits = {},
               const ExecPlan *plan = nullptr);

/**
 * tryExecuteLoop forced onto the dense reference engine: the
 * event-list executor the streaming engine replaced, kept as the
 * differential-testing oracle (bench_simspeed, selvec_fuzz --simdiff,
 * the `simspeed` test label) and the SELVEC_CHECK_SIM shadow.
 * Observable outputs are bit-identical to the streaming engine's;
 * time and memory are O(n_body * ops). It applies the same
 * negative-count and footprint checks first, and oversized event
 * lists (huge trip counts) come back as a structured InvalidInput
 * instead of an allocation failure.
 */
Expected<RunOutput>
tryExecuteLoopDense(const ArrayTable &arrays, const Loop &loop,
                    const Machine &machine, MemoryImage &mem,
                    const LiveEnv &live_ins, int64_t n_body,
                    int64_t base = 0,
                    const ModuloSchedule *schedule = nullptr,
                    const ExecLimits &limits = {});

} // namespace selvec

#endif // SELVEC_SIM_EXECUTOR_HH
