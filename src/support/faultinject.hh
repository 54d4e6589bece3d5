/**
 * @file
 * Deterministic fault injection for resilience testing.
 *
 * The compiler registers named injection points (sites) in stages that
 * can fail: the KL partitioner, the modulo scheduler, pre-schedule
 * lowering and schedule validation. A FaultPlan arms sites by name
 * with a hit counter — skip the first `skip` hits, then fail the next
 * `failures` hits (negative: fail forever) — so a test can force the
 * Nth partitioning of a run to fail and assert the driver degrades
 * gracefully instead of dying.
 *
 * With no plan installed every site is free: one branch on an atomic
 * flag, nothing else. Installation and hit accounting are mutex-
 * guarded, so concurrent compilations observe a consistent plan, and
 * a hit that raced past the armed check before a clear/install is
 * re-validated under the lock so it can never consume a window
 * position of the plan now in force. Hit *windows* are still ordered
 * by arrival: a deterministic degradation chain additionally needs
 * the compiles themselves serialized, which the driver guarantees by
 * dropping to one job while faultPlanArmed() (see DESIGN.md §8).
 */

#ifndef SELVEC_SUPPORT_FAULTINJECT_HH
#define SELVEC_SUPPORT_FAULTINJECT_HH

#include <map>
#include <string>
#include <vector>

#include "support/expected.hh"

namespace selvec
{

/** Arming of one injection site. */
struct FaultSpec
{
    int skip = 0;       ///< let this many hits pass first
    int failures = 1;   ///< then fail this many (negative: forever)
};

/** Sites to force-fail, by registered site name. */
struct FaultPlan
{
    std::map<std::string, FaultSpec> sites;

    bool empty() const { return sites.empty(); }
};

/**
 * Parse a textual plan: comma-separated `site`, `site:N` (fail first
 * N hits), `site:*` (fail every hit) or `site:S+N` (skip S, fail N).
 * E.g. "modsched.search:2,partition.kl:*". Unknown site names are
 * InvalidInput errors.
 */
Expected<FaultPlan> parseFaultPlan(const std::string &spec);

/** Install `plan` (replacing any previous one) and zero hit counts. */
void installFaultPlan(const FaultPlan &plan);

/** Remove the installed plan and zero hit counts. */
void clearFaultPlan();

/**
 * Record one hit of `site` and report whether the installed plan
 * forces it to fail now. `site` must be a registered name (typos
 * panic, so a plan can never silently arm nothing). Free when no plan
 * is installed.
 */
bool faultPointHit(const char *site);

/** Hits of one site since the last install/clear. */
int faultHits(const std::string &site);

/** Whether a plan is currently armed (one atomic load). The driver
 *  runs serially while this is true, keeping hit windows
 *  deterministic per site. */
bool faultPlanArmed();

/** A copy of the installed plan (empty when none). Repro bundles
 *  record it so a replay arms the exact failure that was live. */
FaultPlan currentFaultPlan();

/** Format `plan` back into parseFaultPlan syntax
 *  ("site:S+N,site:*"); round-trips through parseFaultPlan. */
std::string faultPlanSpec(const FaultPlan &plan);

/** Every registered injection-site name, for exhaustive sweeps. */
const std::vector<std::string> &faultSiteNames();

/** Whether `site` is a registered injection point. */
bool faultSiteKnown(const std::string &site);

/** RAII plan installation for tests. */
class ScopedFaultPlan
{
  public:
    explicit ScopedFaultPlan(const FaultPlan &plan)
    {
        installFaultPlan(plan);
    }
    ~ScopedFaultPlan() { clearFaultPlan(); }

    ScopedFaultPlan(const ScopedFaultPlan &) = delete;
    ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;
};

} // namespace selvec

#endif // SELVEC_SUPPORT_FAULTINJECT_HH
