/**
 * @file
 * The benchmark workloads.
 *
 * SPEC FP is proprietary, so the evaluation runs on nine synthetic
 * suites — one per benchmark of the paper's Table 2 — whose loop
 * kernels are modeled on the published hot loops of each program:
 * tomcatv's mesh-generation stencils and residual reductions, swim's
 * shallow-water updates, mgrid's 27-point relaxation plus strided
 * inter-grid transfers, nasa7's strided kernels, hydro2d's
 * divide-heavy updates, turb3d's short FFT butterflies, su2cor's
 * interleaved complex arithmetic, wave5's particle/field mix, and
 * apsi's miscellany. Trip counts and invocation weights encode each
 * program's character (turb3d's low trip counts are what make its
 * deeper pipelines unprofitable in the paper).
 *
 * Multi-dimensional arrays are linearized; a row offset appears as a
 * constant displacement on a unit-stride subscript, exactly what the
 * paper's Fortran frontend produces for the innermost loop.
 */

#ifndef SELVEC_WORKLOADS_WORKLOADS_HH
#define SELVEC_WORKLOADS_WORKLOADS_HH

#include <string>
#include <vector>

#include "ir/loop.hh"
#include "sim/executor.hh"
#include "support/expected.hh"

namespace selvec
{

/** One kernel of a suite: which loop, how many iterations, and how
 *  often the program enters it. */
struct WorkloadLoop
{
    int loopIndex = 0;
    int64_t tripCount = 0;
    int64_t invocations = 1;
    LiveEnv liveIns;
};

struct Suite
{
    std::string name;
    std::string description;
    Module module;
    std::vector<WorkloadLoop> loops;

    const Loop &
    loopOf(const WorkloadLoop &wl) const
    {
        return module.loops[static_cast<size_t>(wl.loopIndex)];
    }
};

/** Names of the nine Table 2 suites, in the paper's order. */
const std::vector<std::string> &suiteNames();

/** Build a suite by name; unknown names are an InvalidInput status. */
Expected<Suite> tryMakeSuite(const std::string &name);

/** Build a suite by name (fatal on unknown name). */
Suite makeSuiteOrDie(const std::string &name);

/** All nine suites. */
std::vector<Suite> allSuites();

/** The Figure 1 dot product as a single-loop suite. */
Suite dotProductSuite();

} // namespace selvec

#endif // SELVEC_WORKLOADS_WORKLOADS_HH
