/**
 * @file
 * The batch compile service behind `selvec_serve` (DESIGN.md §11).
 *
 * A batch is JSON-lines text: one compile request per line, each a
 * selvec-repro-v1 document (driver/repro) — the same schema repro
 * bundles, the fuzzer and the replay tool already share, so anything
 * that can write a bundle can talk to the service. An optional "id"
 * member (any JSON value) is echoed back verbatim.
 *
 * serveBatch() reads every line, deduplicates identical requests
 * within the batch (same canonical compile key: one request compiles,
 * the rest share its program), fans the work out over the thread
 * pool, executes each request's simulation under its own deadline,
 * and streams exactly one response line per request, in input order —
 * so response bytes are independent of --jobs. Response schema
 * "selvec-serve-v1":
 *
 *     { "schema": "selvec-serve-v1", "index": N, ["id": ...,]
 *       "name": ..., "ok": true|false,
 *       "status": {"code","stage","message"},
 *       ["technique": ..., "ii_per_iteration": ..., "cycles": ...,
 *        "trip_count": ..., "invocations": ..., "source":
 *        "compiled"] }
 *
 * `cycles` is the simulated total over all invocations (one bounded
 * simulation, multiplied: the simulator is deterministic, so
 * re-running identical invocations would only burn time). `source`
 * is the compile's provenance (driver/compilecache): every request
 * is compiled in its batch, so it always reads "compiled"; dedup
 * followers report their leader's.
 *
 * Containment: a malformed line, a failed compile, a tripped
 * deadline/watchdog — each quarantines its own request into a
 * response line with ok=false; the batch always runs to completion.
 */

#ifndef SELVEC_SERVICE_SERVE_HH
#define SELVEC_SERVICE_SERVE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "driver/driver.hh"
#include "support/expected.hh"

namespace selvec
{

/** Response-line schema identifier. */
extern const char *const kServeSchema;

struct ServeOptions
{
    /** Worker threads (resolveJobs semantics: <= 0 picks for me). */
    int jobs = 0;
};

/** The selvec_serve command line, parsed but not yet applied. */
struct ServeCliConfig
{
    std::string inputPath;      ///< empty: stdin
    std::string outputPath;     ///< empty: stdout
    int jobs = 0;               ///< 0: hardware concurrency
};

/**
 * Parse selvec_serve arguments (argv[1..], one string each). Numeric
 * values are parsed strictly (support/parsenum): `--jobs abc`,
 * `--jobs -1` or `--jobs=` is an InvalidInput error, never a silent
 * jobs=0 batch. Unknown flags and extra positionals are errors too;
 * the caller turns any error into its usage message and exit 2.
 */
Expected<ServeCliConfig>
parseServeArgs(const std::vector<std::string> &args);

/** What a batch did, for exit codes and operator summaries. */
struct ServeSummary
{
    int64_t requests = 0;   ///< input lines (blank lines skipped)
    int64_t ok = 0;         ///< responses with ok=true
    int64_t failed = 0;     ///< structured compile/run failures
    int64_t malformed = 0;  ///< lines that never became a request
    int64_t deduped = 0;    ///< requests served from another's compile
};

/**
 * Serve one batch: read JSON-lines requests from `in`, write one
 * response line per request to `out` (input order, compact JSON).
 * Never throws on bad input; see the file comment for semantics.
 */
ServeSummary serveBatch(std::istream &in, std::ostream &out,
                        const ServeOptions &options = {});

} // namespace selvec

#endif // SELVEC_SERVICE_SERVE_HH
