#include "service/serve.hh"

#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "driver/compilecache.hh"
#include "driver/repro.hh"
#include "support/deadline.hh"
#include "support/json.hh"
#include "support/parsenum.hh"
#include "support/stats.hh"
#include "support/threadpool.hh"

namespace selvec
{

const char *const kServeSchema = "selvec-serve-v1";

namespace
{

Status
serveArgError(const std::string &what)
{
    return Status::error(ErrorCode::InvalidInput, "serve", what);
}

/** Match "--flag VAL" or "--flag=VAL"; advances *i past the value. */
bool
serveFlagValue(const std::vector<std::string> &args, size_t *i,
               const char *flag, std::string *out, bool *missing)
{
    const std::string &arg = args[*i];
    size_t n = std::string(flag).size();
    if (arg.compare(0, n, flag) != 0)
        return false;
    if (arg.size() > n && arg[n] == '=') {
        *out = arg.substr(n + 1);
        return true;
    }
    if (arg.size() == n) {
        if (*i + 1 >= args.size()) {
            *missing = true;
            return true;
        }
        *out = args[++*i];
        return true;
    }
    return false;
}

} // anonymous namespace

Expected<ServeCliConfig>
parseServeArgs(const std::vector<std::string> &args)
{
    ServeCliConfig cfg;
    std::string value;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        bool missing = false;
        if (serveFlagValue(args, &i, "--output", &value, &missing)) {
            if (missing)
                return serveArgError("--output: missing value");
            cfg.outputPath = value;
        } else if (serveFlagValue(args, &i, "--jobs", &value,
                                  &missing)) {
            // Strict: `--jobs abc` (or a bare trailing `--jobs`) must
            // be a usage error, not a silent jobs=0 batch.
            if (missing)
                return serveArgError("--jobs: missing value");
            int64_t jobs = 0;
            if (!parseNonNegInt(value.c_str(), &jobs))
                return serveArgError(
                    "--jobs: expected a non-negative integer, got '" +
                    value + "'");
            cfg.jobs = static_cast<int>(jobs);
        } else if (arg.compare(0, 2, "--") == 0) {
            return serveArgError("unknown flag '" + arg + "'");
        } else if (cfg.inputPath.empty()) {
            cfg.inputPath = arg;
        } else {
            return serveArgError("unexpected argument '" + arg +
                                 "'");
        }
    }
    return cfg;
}

namespace
{

/** The loop a bundle compiles: the one matching its name, else the
 *  module's first (the replayBundle convention). */
const Loop &
bundleLoop(const ReproBundle &bundle)
{
    const Loop *loop = &bundle.module.loops.front();
    for (const Loop &candidate : bundle.module.loops)
        if (candidate.name == bundle.name)
            loop = &candidate;
    return *loop;
}

/** One request slot, input order. */
struct Slot
{
    bool valid = false;         ///< parsed into a bundle
    bool hasId = false;
    JsonValue id;               ///< echoed verbatim when hasId
    ReproBundle bundle;

    size_t leader = 0;          ///< slot whose compile this one shares
    Status status;              ///< final outcome
    CompileSource source = CompileSource::None;
    double iiPerIter = 0.0;
    int64_t cycles = 0;         ///< total over all invocations
};

/** A leader's compile, shared by its dedup group. */
struct CompileOut
{
    Status status;
    CompiledProgram program;
    ArrayTable arrays;
    ProgramPlans plans;
    CompileSource source = CompileSource::None;
};

/** Compile one bundle (no deadline arming — the caller decides). */
CompileOut
compileBundle(const ReproBundle &bundle)
{
    CompileOut out;
    out.arrays = bundle.module.arrays;
    Expected<CompiledProgram> compiled =
        tryCompileLoop(bundleLoop(bundle), out.arrays, bundle.machine,
                       bundle.technique, bundle.options);
    out.source = lastCompileSource();
    if (compiled.ok()) {
        out.program = compiled.takeValue();
        // Every request sharing this compile reuses its plans.
        out.plans = planCompiled(out.program, bundle.machine);
    } else {
        out.status = compiled.status();
    }
    return out;
}

/** Execute one request's simulation against a finished compile. */
void
runSlot(Slot &slot, const CompileOut &compiled)
{
    if (!compiled.status.ok()) {
        slot.status = compiled.status;
        return;
    }
    slot.source = compiled.source;
    slot.iiPerIter = compiled.program.iiPerIteration();

    const ReproBundle &bundle = slot.bundle;
    ExecLimits limits;
    limits.watchdogFactor = bundle.options.scheduling.watchdogFactor;
    Expected<VerifiedRun> run = tryRunVerified(
        compiled.program, compiled.arrays, bundle.machine,
        static_cast<uint64_t>(bundle.memPattern), bundle.liveIns,
        bundle.tripCount, nullptr, limits, &compiled.plans);
    if (!run.ok()) {
        slot.status = run.status();
        return;
    }
    int64_t invocations =
        bundle.invocations > 0 ? bundle.invocations : 1;
    slot.cycles = run.value().run.cycles * invocations;
}

JsonValue
jsonOfSlotStatus(const Status &status)
{
    JsonValue doc = JsonValue::object();
    doc.set("code", JsonValue(errorCodeName(status.code())));
    doc.set("stage", JsonValue(status.stage()));
    doc.set("message", JsonValue(status.message()));
    return doc;
}

} // anonymous namespace

ServeSummary
serveBatch(std::istream &in, std::ostream &out,
           const ServeOptions &options)
{
    ServeSummary summary;

    // Phase 0 (serial): parse every line into a slot. A line that is
    // not a request still owns a slot — its response line reports the
    // parse failure in place.
    std::vector<Slot> slots;
    std::string line;
    while (std::getline(in, line)) {
        bool blank = true;
        for (char c : line)
            if (!isspace(static_cast<unsigned char>(c)))
                blank = false;
        if (blank)
            continue;
        Slot slot;
        Expected<JsonValue> doc = parseJson(line);
        if (!doc.ok()) {
            slot.status = doc.status();
        } else {
            if (const JsonValue *id = doc.value().find("id")) {
                slot.hasId = true;
                slot.id = *id;
            }
            Expected<ReproBundle> bundle =
                reproBundleOfJson(doc.value());
            if (!bundle.ok()) {
                slot.status = bundle.status();
            } else {
                slot.valid = true;
                slot.bundle = bundle.takeValue();
            }
        }
        slots.push_back(std::move(slot));
    }
    summary.requests = static_cast<int64_t>(slots.size());

    // Dedup identical requests: the lowest-index request per
    // canonical compile key is the group's leader; the rest share its
    // program and report the leader's provenance. Requests carrying a
    // deadline compile under their own clock, so their compiles are
    // not shareable: each is its own leader.
    std::map<std::string, size_t> groups;
    std::vector<size_t> leaders;
    for (size_t i = 0; i < slots.size(); ++i) {
        Slot &slot = slots[i];
        if (!slot.valid)
            continue;
        slot.leader = i;
        if (slot.bundle.deadlineMs > 0) {
            leaders.push_back(i);
            continue;
        }
        const ReproBundle &b = slot.bundle;
        std::string key =
            compileCacheKey(bundleLoop(b), b.module.arrays, b.machine,
                            b.technique, b.options);
        auto [it, inserted] = groups.emplace(key, i);
        if (inserted) {
            leaders.push_back(i);
        } else {
            slot.leader = it->second;
            ++summary.deduped;
            globalStats().add("serve.deduped");
        }
    }

    ThreadPool pool(resolveJobs(options.jobs));
    std::vector<CompileOut> compiles(slots.size());

    auto statusOfError = [](std::exception_ptr err) {
        std::string what = "serve task threw";
        try {
            std::rethrow_exception(err);
        } catch (const std::exception &e) {
            what = e.what();
        } catch (...) {
        }
        return Status::error(ErrorCode::Internal, "serve", what);
    };

    // Phase 1: compile every deadline-free leader concurrently.
    std::vector<std::exception_ptr> compileErrors =
        pool.parallelForAll(leaders.size(), [&](size_t k) {
            size_t i = leaders[k];
            if (slots[i].bundle.deadlineMs > 0)
                return;
            compiles[i] = compileBundle(slots[i].bundle);
        });
    // Fold leader exceptions into their compile slots before any
    // dedup follower reads them in phase 2: a leader that threw
    // poisons its whole group with a structured Internal status, not
    // an empty program.
    for (size_t k = 0; k < leaders.size(); ++k) {
        if (compileErrors[k] != nullptr &&
            compiles[leaders[k]].status.ok()) {
            compiles[leaders[k]].status =
                statusOfError(compileErrors[k]);
        }
    }

    // Phase 2: execute every request. Deadline-carrying requests
    // compile here too, inside their own deadline scope, so the
    // clock covers compile + simulation exactly as replayBundle's
    // does.
    std::vector<std::exception_ptr> runErrors =
        pool.parallelForAll(slots.size(), [&](size_t i) {
            Slot &slot = slots[i];
            if (!slot.valid)
                return;
            if (slot.bundle.deadlineMs > 0) {
                ScopedDeadline guard(
                    Deadline::afterMs(slot.bundle.deadlineMs));
                CompileOut solo = compileBundle(slot.bundle);
                runSlot(slot, solo);
                return;
            }
            runSlot(slot, compiles[slot.leader]);
        });

    for (size_t i = 0; i < slots.size(); ++i) {
        if (runErrors[i] != nullptr && slots[i].status.ok())
            slots[i].status = statusOfError(runErrors[i]);
    }

    // Phase 3 (serial): one compact response line per request, input
    // order — byte-identical at any job count.
    for (size_t i = 0; i < slots.size(); ++i) {
        Slot &slot = slots[i];
        bool ok = slot.valid && slot.status.ok();
        if (ok) {
            ++summary.ok;
            globalStats().add("serve.ok");
        } else if (slot.valid) {
            ++summary.failed;
            globalStats().add("serve.failed");
        } else {
            ++summary.malformed;
            globalStats().add("serve.malformed");
        }
        globalStats().add("serve.requests");

        JsonValue doc = JsonValue::object();
        doc.set("schema", JsonValue(kServeSchema));
        doc.set("index", JsonValue(static_cast<int64_t>(i)));
        if (slot.hasId)
            doc.set("id", slot.id);
        if (slot.valid)
            doc.set("name", JsonValue(slot.bundle.name));
        doc.set("ok", JsonValue(ok));
        doc.set("status", jsonOfSlotStatus(slot.status));
        if (slot.valid) {
            doc.set("technique",
                    JsonValue(techniqueName(slot.bundle.technique)));
        }
        if (ok) {
            doc.set("ii_per_iteration", JsonValue(slot.iiPerIter));
            doc.set("cycles", JsonValue(slot.cycles));
            doc.set("trip_count", JsonValue(slot.bundle.tripCount));
            doc.set("invocations",
                    JsonValue(slot.bundle.invocations > 0
                                  ? slot.bundle.invocations
                                  : int64_t{1}));
            doc.set("source",
                    JsonValue(compileSourceName(slot.source)));
        }
        out << doc.dump(0) << "\n";
    }
    out.flush();
    return summary;
}

} // namespace selvec
