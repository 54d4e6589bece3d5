/**
 * @file
 * Shared command-line surface of the bench harnesses.
 *
 * Every bench binary accepts:
 *   --json <path>   write the machine-readable selvec-bench-v1
 *                   document (per-loop technique/II/ResMII/RecMII/
 *                   cycles/speedup plus the stats and trace trees)
 *                   beside the human-readable table;
 *   --quick         reduced workload weights (capped trip counts,
 *                   scaled-down invocation counts) for CI smoke runs —
 *                   cycle counts are simulated and deterministic, so
 *                   quick-mode documents are comparable across
 *                   machines but NOT against full-mode documents (the
 *                   "mode" field records which one was run);
 *   --jobs N        worker threads for per-loop compile+simulate
 *                   (default: hardware concurrency; --jobs 1 is
 *                   today's serial behavior). Reports and JSON
 *                   documents are byte-identical for every N;
 *   --partition S   Selective partitioner strategy: kl (default),
 *                   exact (the branch-and-bound oracle) or auto
 *                   (exact up to the vectorizable-op threshold);
 *   --deadline-ms N per-loop wall-clock budget: a kernel that blows
 *                   it is quarantined into the report's failures[]
 *                   array while its siblings complete normally
 *                   (DESIGN.md §10);
 *   --max-cycles-factor N
 *                   simulator watchdog factor (default 16): a
 *                   pipelined run is aborted (WatchdogTripped) past
 *                   N x its schedule-predicted cycle count;
 *   --repro-dir D   write a replayable repro bundle under D for
 *                   every quarantined loop (see selvec_replay);
 *   --faults SPEC   arm a fault-injection plan (parseFaultPlan
 *                   syntax, e.g. "modsched.stall:2+1") — the
 *                   containment-demo hook.
 *
 * Numeric flag values are parsed strictly (support/parsenum): a
 * non-numeric, negative or trailing-garbage count is a usage error
 * with exit 2, never a silent 0. So is any other `--` flag the
 * binary did not declare in `extraFlags`.
 */

#ifndef SELVEC_BENCH_BENCH_COMMON_HH
#define SELVEC_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "driver/evaluate.hh"
#include "driver/reportjson.hh"
#include "support/faultinject.hh"
#include "support/parsenum.hh"
#include "workloads/workloads.hh"

namespace selvec
{

struct BenchCli
{
    std::string jsonPath;       ///< empty: no JSON output
    bool quick = false;
    int jobs = 0;               ///< 0: hardware concurrency
    int64_t deadlineMs = 0;     ///< per-loop budget (0: unlimited)
    int64_t maxCyclesFactor = 0;    ///< watchdog factor (0: default)
    std::string reproDir;       ///< empty: no repro bundles
    PartitionStrategy partitionStrategy = PartitionStrategy::Kl;
    std::vector<std::string> rest;  ///< positionals and extraFlags

    const char *mode() const { return quick ? "quick" : "full"; }

    /** EvaluateOptions carrying the parsed containment knobs. */
    EvaluateOptions
    evalOptions() const
    {
        EvaluateOptions options;
        options.jobs = jobs;
        options.deadlineMs = deadlineMs;
        options.reproDir = reproDir;
        options.driver.partition.strategy = partitionStrategy;
        if (maxCyclesFactor > 0)
            options.driver.scheduling.watchdogFactor =
                maxCyclesFactor;
        return options;
    }

    /** Parse argv; `extraFlags` are flags the binary handles itself
     *  (left in `rest`). Any other unknown flag exits 2 with usage. */
    static BenchCli
    parse(int argc, char **argv,
          const std::vector<std::string> &extraFlags = {})
    {
        BenchCli cli;
        auto usageDie = [](const std::string &why) {
            std::fprintf(
                stderr,
                "%s\n"
                "usage: [--quick] [--json F] [--jobs N] "
                "[--partition kl|exact|auto]\n"
                "       [--deadline-ms N] [--max-cycles-factor N] "
                "[--repro-dir D]\n"
                "       [--faults SPEC]\n",
                why.c_str());
            std::exit(2);
        };
        // Strict numeric flags: `--jobs abc` (or `--jobs=`) must be
        // a usage error, not a silent jobs=0 run.
        auto count = [&](const char *flag, const char *text) {
            int64_t value = 0;
            if (!parseNonNegInt(text, &value)) {
                usageDie(std::string(flag) +
                         ": expected a non-negative integer, got '" +
                         text + "'");
            }
            return value;
        };
        auto armFaults = [](const std::string &spec) {
            Expected<FaultPlan> plan = parseFaultPlan(spec);
            if (!plan.ok()) {
                std::fprintf(stderr, "--faults: %s\n",
                             plan.status().str().c_str());
                std::exit(2);
            }
            installFaultPlan(plan.value());
        };
        auto strategy = [&](const std::string &text) {
            PartitionStrategy parsed;
            if (!parsePartitionStrategy(text, &parsed)) {
                std::fprintf(stderr,
                             "--partition: expected kl, exact or "
                             "auto, got '%s'\nusage: --partition "
                             "kl|exact|auto\n",
                             text.c_str());
                std::exit(2);
            }
            return parsed;
        };
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--quick") {
                cli.quick = true;
            } else if (arg == "--json" && i + 1 < argc) {
                cli.jsonPath = argv[++i];
            } else if (arg.rfind("--json=", 0) == 0) {
                cli.jsonPath = arg.substr(7);
            } else if (arg == "--jobs" && i + 1 < argc) {
                cli.jobs = static_cast<int>(
                    count("--jobs", argv[++i]));
            } else if (arg.rfind("--jobs=", 0) == 0) {
                cli.jobs = static_cast<int>(
                    count("--jobs", arg.c_str() + 7));
            } else if (arg == "--partition" && i + 1 < argc) {
                cli.partitionStrategy = strategy(argv[++i]);
            } else if (arg.rfind("--partition=", 0) == 0) {
                cli.partitionStrategy = strategy(arg.substr(12));
            } else if (arg == "--deadline-ms" && i + 1 < argc) {
                cli.deadlineMs = count("--deadline-ms", argv[++i]);
            } else if (arg.rfind("--deadline-ms=", 0) == 0) {
                cli.deadlineMs =
                    count("--deadline-ms", arg.c_str() + 14);
            } else if (arg == "--max-cycles-factor" && i + 1 < argc) {
                cli.maxCyclesFactor =
                    count("--max-cycles-factor", argv[++i]);
            } else if (arg.rfind("--max-cycles-factor=", 0) == 0) {
                cli.maxCyclesFactor =
                    count("--max-cycles-factor", arg.c_str() + 20);
            } else if (arg == "--repro-dir" && i + 1 < argc) {
                cli.reproDir = argv[++i];
            } else if (arg.rfind("--repro-dir=", 0) == 0) {
                cli.reproDir = arg.substr(12);
            } else if (arg == "--faults" && i + 1 < argc) {
                armFaults(argv[++i]);
            } else if (arg.rfind("--faults=", 0) == 0) {
                armFaults(arg.substr(9));
            } else if (arg.rfind("--", 0) == 0 &&
                       std::find(extraFlags.begin(), extraFlags.end(),
                                 arg) == extraFlags.end()) {
                usageDie("unknown flag '" + arg + "'");
            } else {
                cli.rest.push_back(arg);
            }
        }
        return cli;
    }
};

/**
 * Shrink a suite for CI smoke runs: trip counts capped at 96 (enough
 * for several pipeline stages plus a cleanup remainder) and
 * invocation weights divided by 4. Deterministic, so a quick-mode
 * baseline is bit-stable.
 */
inline void
applyQuickMode(Suite &suite)
{
    for (WorkloadLoop &wl : suite.loops) {
        wl.tripCount = std::min<int64_t>(wl.tripCount, 96);
        wl.invocations = std::max<int64_t>(1, wl.invocations / 4);
    }
}

/** Emit the document (with the stats/trace tail) when --json given. */
inline void
finishBenchJson(const BenchCli &cli, JsonValue &doc)
{
    if (cli.jsonPath.empty())
        return;
    attachObservability(doc);
    if (writeJsonFile(cli.jsonPath, doc))
        std::printf("wrote %s\n", cli.jsonPath.c_str());
}

} // namespace selvec

#endif // SELVEC_BENCH_BENCH_COMMON_HH
