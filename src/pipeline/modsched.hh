/**
 * @file
 * Rau's iterative modulo scheduling [31], the software-pipelining
 * engine the paper schedules every loop with (baseline, traditional,
 * full and selective alike).
 *
 * For candidate initiation intervals starting at
 * MII = max(ResMII, RecMII), the scheduler places operations in
 * height-priority order at the earliest dependence-feasible slot,
 * searching an II-wide window for a resource-conflict-free cycle in the
 * modulo reservation table. When no slot is free the op is placed
 * anyway, displacing the conflicting operations (and any successors
 * whose dependence constraints break), under a budget of
 * `budgetFactor * numOps` placements; when the budget is exhausted the
 * II is incremented and scheduling restarts.
 */

#ifndef SELVEC_PIPELINE_MODSCHED_HH
#define SELVEC_PIPELINE_MODSCHED_HH

#include <string>

#include "analysis/depgraph.hh"
#include "pipeline/schedule.hh"
#include "support/status.hh"

namespace selvec
{

struct ScheduleOptions
{
    /** Placement budget per candidate II, in multiples of op count. */
    int budgetFactor = 8;

    /** Give up above mii * maxIiFactor + maxIiSlack. */
    int64_t maxIiFactor = 4;
    int64_t maxIiSlack = 64;

    /**
     * Simulator cycle-watchdog multiplier: a bounded run aborts with
     * WatchdogTripped after watchdogFactor x the schedule's expected
     * cycle count (see sim/executor.hh). Carried here so one options
     * struct travels from the driver into both the scheduler and the
     * bounded simulator; it does not influence the schedule itself.
     */
    int64_t watchdogFactor = 16;
};

struct ScheduleResult
{
    bool ok = false;
    std::string error;

    /** Why scheduling failed (Ok when `ok`): the structured code a
     *  Status threads up through the driver. */
    ErrorCode code = ErrorCode::Ok;

    ModuloSchedule schedule;

    int64_t resMii = 0;     ///< resource-constrained lower bound
    int64_t recMii = 0;     ///< recurrence-constrained lower bound
    int64_t mii = 0;        ///< max of the two
    int attempts = 0;       ///< candidate IIs tried
    int64_t maxIi = 0;      ///< top of the II search window
    int64_t backtracks = 0; ///< displacements across all attempts
    int64_t placements = 0; ///< MRT placements across all attempts
    int64_t readyPushes = 0; ///< ready-heap insertions (modsched.readyPushes)
    int64_t maskHits = 0;   ///< occupancy answered by MRT masks (mrt.maskHits)
};

/**
 * Modulo-schedule a lowered loop. `graph` must be the dependence graph
 * of exactly this loop on exactly this machine.
 */
ScheduleResult moduloSchedule(const Loop &lowered, const DepGraph &graph,
                              const Machine &machine,
                              const ScheduleOptions &options = {});

} // namespace selvec

#endif // SELVEC_PIPELINE_MODSCHED_HH
