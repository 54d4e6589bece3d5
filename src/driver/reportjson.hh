/**
 * @file
 * The machine-readable report surface: schema-stable JSON documents
 * for suite evaluations and compiled programs, plus the standard bench
 * document wrapper every bench binary emits under --json.
 *
 * Schema id: "selvec-bench-v1". Key names are API — CI and
 * tools/bench_compare.py parse them; see DESIGN.md ("Observability")
 * before renaming anything.
 */

#ifndef SELVEC_DRIVER_REPORTJSON_HH
#define SELVEC_DRIVER_REPORTJSON_HH

#include <string>
#include <vector>

#include "driver/evaluate.hh"
#include "support/json.hh"

namespace selvec
{

/** The schema identifier written into every bench document. */
extern const char *const kBenchSchema;

/** One evaluated kernel: technique, II/ResMII/RecMII per iteration,
 *  cycles and weights. */
JsonValue jsonOfLoopReport(const LoopReport &lr);

/** One quarantined loop: name, technique, structured error code,
 *  stage, message and elapsed_ms (zeroed unless SELVEC_TIMINGS — see
 *  attachObservability). */
JsonValue jsonOfLoopFailure(const LoopFailure &failure);

/** One suite under one technique (loops in suite order). A
 *  "failures" array of jsonOfLoopFailure entries is appended only
 *  when loops were quarantined: clean documents are byte-identical
 *  to pre-quarantine ones. */
JsonValue jsonOfSuiteReport(const SuiteReport &sr);

/**
 * One suite compared against its ModuloOnly baseline: every technique
 * report gains a "speedup" (suite level and per loop, cycle ratio vs
 * the baseline's matching entry).
 */
JsonValue jsonOfSuiteComparison(
    const SuiteReport &baseline,
    const std::vector<SuiteReport> &techniques);

/** Compiled-program summary: per compiled loop II, ResMII, RecMII,
 *  coverage; per-iteration aggregates. */
JsonValue jsonOfCompiledProgram(const CompiledProgram &program);

/**
 * A fresh top-level bench document: {"schema", "generator", "mode"}
 * plus an empty "suites" array for the caller to fill.
 */
JsonValue benchDocument(const std::string &generator,
                        const std::string &mode);

/**
 * Attach the observability tail — the compile-stats registry tree
 * ("stats") and the trace forest ("trace") — to a finished document.
 */
void attachObservability(JsonValue &doc);

} // namespace selvec

#endif // SELVEC_DRIVER_REPORTJSON_HH
