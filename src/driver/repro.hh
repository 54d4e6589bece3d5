/**
 * @file
 * Replayable repro bundles (DESIGN.md §10).
 *
 * When a compile, simulation or fuzz candidate fails, the failure is
 * packaged into one self-contained JSON document — the written LIR of
 * the loop, the full machine description, every driver knob, the
 * armed fault plan, the deadline and the memory fill pattern — so the
 * exact failing configuration can be re-run later, on another
 * machine, with nothing but the bundle file: `selvec_replay
 * bundle.json` re-arms the recorded plan and deadline, re-compiles
 * and re-executes, and checks that the recorded error code
 * reproduces. Schema id: "selvec-repro-v1".
 */

#ifndef SELVEC_DRIVER_REPRO_HH
#define SELVEC_DRIVER_REPRO_HH

#include <string>

#include "driver/driver.hh"
#include "support/json.hh"

namespace selvec
{

/** Everything needed to re-run one failure deterministically. */
struct ReproBundle
{
    std::string name;       ///< loop name (also the default file stem)
    Module module;          ///< the loop plus its arrays
    LiveEnv liveIns;
    Machine machine;
    Technique technique = Technique::ModuloOnly;
    DriverOptions options;

    int64_t tripCount = 0;
    int64_t invocations = 1;

    /** Memory fill pattern the failing run initialized with. */
    int64_t memPattern = 0;

    /** The fault plan armed when the failure occurred, in
     *  parseFaultPlan syntax ("" = none). */
    std::string faultPlan;

    /** Per-run deadline in milliseconds (0 = unlimited). */
    int64_t deadlineMs = 0;

    /** Generator seed, when the loop came from selvec_fuzz (0 =
     *  hand-written / workload loop). */
    uint64_t seed = 0;

    /** The recorded failure (never Ok in a written bundle). */
    Status failure;

    /** The loop the bundle compiles: the module's loop named like
     *  the bundle (the last, if several are), else its first. The
     *  module must hold a loop, as every parsed bundle does. */
    const Loop &sourceLoop() const;
};

/** Machine description as JSON (names, not indices: documents stay
 *  readable and stable across enum reorderings). */
JsonValue jsonOfMachine(const Machine &machine);

/** Parse jsonOfMachine output back; validates the result. */
Expected<Machine> machineOfJson(const JsonValue &doc);

/** The full bundle as a selvec-repro-v1 document. */
JsonValue jsonOfReproBundle(const ReproBundle &bundle);

/** Parse a selvec-repro-v1 document back into a bundle. */
Expected<ReproBundle> reproBundleOfJson(const JsonValue &doc);

/** Serialize `bundle` to `path` (pretty JSON). */
Status writeReproBundle(const std::string &path,
                        const ReproBundle &bundle);

/** Read and parse a bundle file. */
Expected<ReproBundle> loadReproBundle(const std::string &path);

/** Outcome of replaying a bundle. */
struct ReplayOutcome
{
    /** The failure the replay produced (Ok: the run was clean). */
    Status status;

    /** Whether the replay's failure code matches the recorded one —
     *  the reproduction criterion selvec_replay exits 0 on. */
    bool reproduced = false;
};

/**
 * Re-run a bundle deterministically: arm its fault plan and deadline,
 * compile with its exact options, execute bounded, and verify against
 * the reference interpreter (a divergence is a VerifyFailed status,
 * not a panic). Restores the previously installed fault plan before
 * returning.
 */
ReplayOutcome replayBundle(const ReproBundle &bundle);

} // namespace selvec

#endif // SELVEC_DRIVER_REPRO_HH
