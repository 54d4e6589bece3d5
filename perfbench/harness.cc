/**
 * @file
 * The benchmark's driver program. It builds one workload's inputs from
 * a seed, runs untimed warm-up and timed passes of single-threaded
 * operations through SelVec's public API, checks every result against
 * a reference-verified evaluation made at set-up, and prints one JSON
 * line of metrics. With --trace 1 it alternates each production pass
 * with two replays of the same public calls (one bare, one recording
 * spans), and reports per-layer self times, counts and shares instead.
 *
 *   selvec_perfbench --workload table2|serve_repeat
 *                    --seed N --seconds S --trace 0|1
 *                    [--passes N] [--trace-out FILE]
 *
 * See README.md beside this file for every metric's definition.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compilecache.hh"
#include "driver/evaluate.hh"
#include "driver/repro.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "service/serve.hh"
#include "sim/memimage.hh"
#include "support/json.hh"
#include "support/random.hh"
#include "support/status.hh"
#include "trace.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace selvec;

namespace
{

/** The four techniques of the paper's Table 2, ModuloOnly first. */
constexpr Technique kTechniques[] = {
    Technique::ModuloOnly, Technique::Traditional, Technique::Full,
    Technique::Selective};

/** Evaluations of one operation, in request order. */
using Cycles = std::vector<int64_t>;

/** What one production call or replay produced. */
struct OpResult
{
    bool ok = false;            ///< ran without a structured failure
    int64_t ns = 0;             ///< wall time of the production call
    Cycles cycles;              ///< one entry per evaluation / request
};

/** Which (loop, technique) one evaluation or request stands for. */
struct Key
{
    int group = 0;              ///< suite (table2) or generated loop
    Technique technique = Technique::ModuloOnly;
};

uint64_t
fnv1a(uint64_t hash, const std::string &text)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** Bytes a MemoryImage allocates for `arrays` (guards included). */
int64_t
imageBytes(const ArrayTable &arrays)
{
    int64_t bytes = 0;
    for (ArrayId a = 0; a < arrays.size(); ++a)
        bytes += (arrays[a].size + 2 * MemoryImage::kGuard) *
                 static_cast<int64_t>(sizeof(uint64_t));
    return bytes;
}

/** evaluateLoop's live-out check: every reference live-out present
 *  and bit-identical. */
bool
liveOutsMatch(const Loop &loop, const LiveEnv &run, const LiveEnv &ref)
{
    for (ValueId v : loop.liveOuts) {
        const std::string &name = loop.valueInfo(v).name;
        auto want = ref.find(name);
        if (want == ref.end())
            continue;
        auto got = run.find(name);
        if (got == run.end() || !(got->second == want->second))
            return false;
    }
    return true;
}

/** How a set-up child process ended. */
enum class ChildEnd { Ok, Aborted, Failed };

/**
 * Run `work` in a forked child. The compiler aborts the process on some
 * generated loops (a panic, so SIGABRT) instead of returning a
 * structured failure; trying each candidate in a child first lets
 * set-up count such a loop and draw another. Aborted only on SIGABRT;
 * Failed when `work` returned false or the child ended any other way.
 */
ChildEnd
inChild(const std::function<bool()> &work)
{
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(1);
    }
    if (pid == 0)
        _exit(work() ? 0 : 3);
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) {
        std::perror("waitpid");
        std::exit(1);
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
        return ChildEnd::Ok;
    if (WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT)
        return ChildEnd::Aborted;
    return ChildEnd::Failed;
}

/** Set-up could not build the workload: a failed result without
 *  metrics, and exit code 1. */
[[noreturn]] void
failSetup(const std::string &why)
{
    std::fprintf(stderr, "set-up failed: %s\n", why.c_str());
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                "\"metrics\": {}}\n");
    std::exit(1);
}

/**
 * One reference-verified evaluation in evaluateLoop's call order:
 * prepare, compile, plan, fill, pipelined run, reference fill and run,
 * memory diff, live-out compare and free, each call a span of `t`.
 * The pipelined run's cycles per invocation, or nothing when a step
 * fails or the run diverges from the reference.
 */
std::optional<int64_t>
verifiedRun(const Loop &loop, const ArrayTable &moduleArrays,
            const Machine &machine, Technique technique,
            const DriverOptions &base, int64_t minExpansion,
            const LiveEnv &liveIns, int64_t tripCount, uint64_t pattern,
            Tracer &t)
{
    // evaluateLoop's own set-up: the table the compile may extend and
    // the options sized for the trip count.
    ArrayTable arrays;
    DriverOptions dopt;
    t.call(SpanName::Prepare, [&] {
        arrays = moduleArrays;
        dopt = base;
        dopt.expansionSize = std::max(dopt.expansionSize, minExpansion);
    });
    Expected<CompiledProgram> compiled = t.call(SpanName::Compile, [&] {
        return tryCompileLoop(loop, arrays, machine, technique, dopt);
    });
    if (!compiled.ok())
        return std::nullopt;
    const CompiledProgram &program = compiled.value();
    ProgramPlans plans = t.call(SpanName::Plan, [&] {
        return planCompiled(program, machine);
    });

    ExecLimits limits;
    limits.watchdogFactor = dopt.scheduling.watchdogFactor;
    std::optional<MemoryImage> mem;
    std::optional<MemoryImage> ref;
    auto fill = [&](std::optional<MemoryImage> &image) {
        t.call(SpanName::MemFill, [&] {
            image.emplace(arrays);
            image->fillPattern(pattern);
            t.noteBytes(imageBytes(arrays));
        });
    };

    fill(mem);
    Expected<ExecResult> run = t.call(SpanName::Pipelined, [&] {
        return tryRunCompiled(program, arrays, machine, *mem, liveIns,
                              tripCount, limits, &plans);
    });
    if (!run.ok())
        return std::nullopt;
    fill(ref);
    Expected<ExecResult> refRun = t.call(SpanName::Reference, [&] {
        return tryRunReference(loop, arrays, machine, *ref, liveIns,
                               tripCount, limits);
    });
    if (!refRun.ok())
        return std::nullopt;
    bool same = t.call(SpanName::MemDiff,
                       [&] { return mem->diff(*ref).empty(); });
    same = same && t.call(SpanName::LiveOuts, [&] {
        return liveOutsMatch(loop, run.value().env, refRun.value().env);
    });
    t.call(SpanName::MemFree, [&] {
        mem.reset();
        ref.reset();
    });
    if (!same)
        return std::nullopt;
    return run.value().cycles;
}

/**
 * Generator options for loop `j` of `n`: the seed picks each loop's
 * structure, but not the mix. Op counts step evenly from 16 to 48 and
 * every fifth loop has a data-dependent exit (the generator's default
 * rate), so totals over a pass vary little from seed to seed.
 */
GeneratorOptions
stratified(int j, int n, int64_t maxTrip)
{
    GeneratorOptions gopt;
    gopt.minOps = gopt.maxOps = 16 + 32 * j / std::max(n - 1, 1);
    gopt.exitProb = j % 5 == 0 ? 1.0 : 0.0;
    gopt.maxTrip = maxTrip;
    return gopt;
}

/** What set-up's untimed screening found: the generated candidate
 *  loops (by draw number) that abort the compiler. */
struct Screening
{
    std::set<int64_t> abortedDraws;
};

/**
 * One workload: its inputs, the expected result of every evaluation,
 * and two ways to run an operation — the production call and a
 * replay of the public calls that call makes, in the same order.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Untimed, once per run, before set-up: find the inputs set-up
     *  must skip. */
    virtual Screening screen(uint64_t) { return {}; }

    /** Build the inputs from `seed` and the expected results; timed. */
    virtual void setup(uint64_t seed, const Screening &screening) = 0;

    /** How many times set-up runs; setup_s is the median. */
    virtual int setupReps() const = 0;

    virtual OpResult run(size_t op) = 0;
    virtual OpResult replay(size_t op, Tracer &tracer) = 0;

    size_t ops() const { return keys.size(); }

    /** Per operation: the (loop, technique) of each evaluation and its
     *  reference-verified invocation-weighted cycles. */
    std::vector<std::vector<Key>> keys;
    std::vector<Cycles> expected;

    /** Clear the compile cache before every operation, not only at
     *  the start of a pass (each batch stands for a fresh process). */
    bool freshCachePerOp = false;

    /** Digest of the generated inputs (self-test: seed sensitivity). */
    uint64_t fingerprint = kFnvBasis;

    /** Generated candidate loops skipped because they abort the
     *  compiler. */
    int64_t aborted = 0;
};

/**
 * The paper's artifact: the nine Table 2 suites in full mode. An
 * operation is one (suite loop, technique) through evaluateSuite on a
 * one-loop view of its suite, exactly as bench_table2 evaluates it
 * loop by loop. The replay is evaluateLoop's call sequence. The seed
 * is ignored; the suites are fixed.
 */
class Table2Workload : public Workload
{
  public:
    Table2Workload()
    {
        options.jobs = 1;
        options.verify = true;
    }

    void
    setup(uint64_t, const Screening &) override
    {
        int group = 0;
        for (const std::string &name : suiteNames())
            addSuite(makeSuiteOrDie(name), group++);
    }

    int setupReps() const override { return 7; }

    OpResult
    run(size_t i) override
    {
        const Op &op = opList[i];
        OpResult result;
        int64_t start = nowNs();
        SuiteReport report = evaluateSuite(views[op.view], machine,
                                           op.technique, options);
        result.ns = nowNs() - start;
        result.ok = report.failures.empty() && report.loops.size() == 1;
        if (result.ok)
            result.cycles.push_back(report.loops.front().weightedCycles);
        return result;
    }

    OpResult
    replay(size_t i, Tracer &t) override
    {
        const Op &op = opList[i];
        const Suite &suite = views[op.view];
        const WorkloadLoop &wl = suite.loops.front();
        std::optional<int64_t> cycles = verifiedRun(
            suite.loopOf(wl), suite.module.arrays, machine, op.technique,
            options.driver, wl.tripCount + 8, wl.liveIns, wl.tripCount,
            0xC0FFEE ^ static_cast<uint64_t>(wl.loopIndex), t);
        // A failure or a divergence from the reference leaves the
        // result empty, so it can never match the expected cycles.
        OpResult result;
        result.ok = cycles.has_value();
        if (cycles)
            result.cycles.push_back(*cycles * wl.invocations);
        return result;
    }

  private:
    struct Op
    {
        size_t view = 0;
        Technique technique = Technique::ModuloOnly;
    };

    /** Add one view per loop of `suite` and its four operations, with
     *  their expected results: a reference-verified replay of each. */
    void
    addSuite(const Suite &suite, int group)
    {
        for (const WorkloadLoop &wl : suite.loops) {
            Suite view;
            view.name = suite.name;
            view.description = suite.description;
            view.module = suite.module;
            view.loops.push_back(wl);
            views.push_back(std::move(view));
            for (Technique technique : kTechniques) {
                opList.push_back({views.size() - 1, technique});
                keys.push_back({Key{group, technique}});
                Tracer off(false);
                OpResult r = replay(opList.size() - 1, off);
                if (!r.ok)
                    failSetup(suite.name + ": " + techniqueName(technique) +
                              " failed to evaluate");
                expected.push_back(r.cycles);
            }
        }
        fingerprint = fnv1a(fingerprint, writeLir(suite.module));
    }

    Machine machine = paperMachine();
    EvaluateOptions options;
    std::vector<Suite> views;
    std::vector<Op> opList;
};

/**
 * An operation is one serveBatch call on a shuffled JSON-lines batch:
 * one generated loop x 4 techniques, each request repeated kRepeats
 * times, so most requests are dedup followers. A pass serves kTotal
 * batches, one per generated loop. The replay is serveBatch's call
 * sequence.
 */
class ServeWorkload : public Workload
{
  public:
    static constexpr int kTotal = 104;
    static constexpr int kRepeats = 4;

    ServeWorkload() { freshCachePerOp = true; }

    /** Compile every candidate loop under every technique in a child
     *  process. A loop that aborts the compiler is skipped; any other
     *  failure fails set-up. */
    Screening
    screen(uint64_t seed) override
    {
        Screening screening;
        Rng rng = rngOf(seed);
        drawLoops(rng, [&](int64_t draw,
                           std::vector<std::string> &loopLines) {
            ChildEnd end = inChild([&] {
                for (const std::string &line : loopLines) {
                    std::optional<ReproBundle> b = parseBundle(line);
                    if (!b)
                        return false;
                    ArrayTable arrays = b->module.arrays;
                    if (!tryCompileLoop(bundleLoop(*b), arrays, b->machine,
                                        b->technique, b->options)
                             .ok())
                        return false;
                }
                return true;
            });
            if (end == ChildEnd::Failed)
                failSetup("generated loop " + std::to_string(draw) +
                          " does not compile");
            if (end == ChildEnd::Aborted) {
                screening.abortedDraws.insert(draw);
                if (screening.abortedDraws.size() >
                    static_cast<size_t>(kTotal))
                    failSetup("too many generated loops abort the compiler");
            }
            return end == ChildEnd::Ok;
        });
        return screening;
    }

    void
    setup(uint64_t seed, const Screening &screening) override
    {
        Rng rng = rngOf(seed);

        // Every generated loop as four request lines (one per
        // technique), with each line's reference-verified cycles.
        std::vector<std::vector<std::string>> lines;
        std::vector<Cycles> cycles;
        drawLoops(rng, [&](int64_t draw,
                           std::vector<std::string> &loopLines) {
            if (screening.abortedDraws.count(draw) != 0)
                return false;
            Cycles c;
            for (const std::string &line : loopLines) {
                std::optional<int64_t> one = verifiedCycles(line);
                if (!one)
                    failSetup("generated loop " + std::to_string(draw) +
                              " fails its reference-verified evaluation");
                c.push_back(*one);
            }
            lines.push_back(std::move(loopLines));
            cycles.push_back(std::move(c));
            return true;
        });
        aborted = static_cast<int64_t>(screening.abortedDraws.size());

        // Batch j holds loop j's four requests, each repeated,
        // shuffled (Fisher-Yates).
        for (int j = 0; j < kTotal; ++j) {
            std::vector<size_t> order;
            for (int r = 0; r < kRepeats; ++r)
                for (size_t t = 0; t < std::size(kTechniques); ++t)
                    order.push_back(t);
            for (size_t k = order.size(); k > 1; --k)
                std::swap(order[k - 1],
                          order[static_cast<size_t>(rng.range(
                              0, static_cast<int64_t>(k) - 1))]);
            Batch batch;
            std::vector<Key> opKeys;
            Cycles opCycles;
            for (size_t t : order) {
                const std::string &line = lines[static_cast<size_t>(j)][t];
                batch.lines.push_back(line);
                batch.text += line + "\n";
                opKeys.push_back(Key{j, kTechniques[t]});
                opCycles.push_back(cycles[static_cast<size_t>(j)][t]);
            }
            fingerprint = fnv1a(fingerprint, batch.text);
            keys.push_back(std::move(opKeys));
            expected.push_back(std::move(opCycles));
            batches.push_back(std::move(batch));
        }
    }

    int setupReps() const override { return 3; }

    OpResult
    run(size_t i) override
    {
        const Batch &batch = batches[i];
        OpResult result;
        std::ostringstream out;
        ServeOptions so;
        so.jobs = 1;
        int64_t start = nowNs();
        {
            std::istringstream in(batch.text);
            serveBatch(in, out, so);
        }
        result.ns = nowNs() - start;

        // Every response must be ok and carry its request's cycles.
        result.ok = true;
        std::istringstream responses(out.str());
        std::string line;
        while (std::getline(responses, line)) {
            Expected<JsonValue> doc = parseJson(line);
            const JsonValue *ok = doc.ok() ? doc.value().find("ok")
                                           : nullptr;
            const JsonValue *cycles =
                doc.ok() ? doc.value().find("cycles") : nullptr;
            if (ok == nullptr || !ok->isBool() || !ok->boolValue() ||
                cycles == nullptr || !cycles->isInt()) {
                result.ok = false;
                result.cycles.push_back(-1);
                continue;
            }
            result.cycles.push_back(cycles->intValue());
        }
        return result;
    }

    OpResult
    replay(size_t i, Tracer &t) override
    {
        const Batch &batch = batches[i];
        OpResult result;
        result.ok = true;
        size_t n = batch.lines.size();

        // Phase 0: parse every line into a bundle.
        std::vector<std::optional<ReproBundle>> bundles(n);
        std::vector<JsonValue> ids(n);
        for (size_t k = 0; k < n; ++k) {
            t.call(SpanName::Parse, [&] {
                t.noteBytes(static_cast<int64_t>(batch.lines[k].size()));
                Expected<JsonValue> doc = parseJson(batch.lines[k]);
                if (!doc.ok())
                    return;
                if (const JsonValue *id = doc.value().find("id"))
                    ids[k] = *id;
                Expected<ReproBundle> bundle =
                    reproBundleOfJson(doc.value());
                if (bundle.ok())
                    bundles[k] = bundle.takeValue();
            });
            if (!bundles[k])
                result.ok = false;
        }
        if (!result.ok)
            return result;

        // Dedup: the first request per canonical compile key leads.
        std::map<std::string, size_t> groups;
        std::vector<size_t> leader(n);
        for (size_t k = 0; k < n; ++k) {
            const ReproBundle &b = *bundles[k];
            std::string key = t.call(SpanName::DedupKey, [&] {
                return compileCacheKey(bundleLoop(b), b.module.arrays,
                                       b.machine, b.technique,
                                       b.options);
            });
            leader[k] = groups.emplace(std::move(key), k).first->second;
        }

        // Phase 1: compile and plan every leader.
        struct Compiled
        {
            ArrayTable arrays;
            std::optional<CompiledProgram> program;
            ProgramPlans plans;
            CompileSource source = CompileSource::None;
        };
        std::vector<Compiled> compiles(n);
        for (size_t k = 0; k < n; ++k) {
            if (leader[k] != k)
                continue;
            const ReproBundle &b = *bundles[k];
            Compiled &c = compiles[k];
            c.arrays = b.module.arrays;
            Expected<CompiledProgram> compiled =
                t.call(SpanName::Compile, [&] {
                    Expected<CompiledProgram> p =
                        tryCompileLoop(bundleLoop(b), c.arrays, b.machine,
                                       b.technique, b.options);
                    c.source = lastCompileSource();
                    return p;
                });
            if (!compiled.ok())
                continue;
            c.program = compiled.takeValue();
            c.plans = t.call(SpanName::Plan, [&] {
                return planCompiled(*c.program, b.machine);
            });
        }

        // Phase 2: execute every request against its leader's compile.
        Cycles cycles(n, -1);
        for (size_t k = 0; k < n; ++k) {
            const ReproBundle &b = *bundles[k];
            const Compiled &c = compiles[leader[k]];
            if (!c.program)
                continue;
            ExecLimits limits;
            limits.watchdogFactor = b.options.scheduling.watchdogFactor;
            std::optional<MemoryImage> mem;
            t.call(SpanName::MemFill, [&] {
                mem.emplace(c.arrays);
                mem->fillPattern(static_cast<uint64_t>(b.memPattern));
                t.noteBytes(imageBytes(c.arrays));
            });
            Expected<ExecResult> run = t.call(SpanName::Pipelined, [&] {
                return tryRunCompiled(*c.program, c.arrays, b.machine,
                                      *mem, b.liveIns, b.tripCount,
                                      limits, &c.plans);
            });
            t.call(SpanName::MemFree, [&] { mem.reset(); });
            if (run.ok())
                cycles[k] = run.value().cycles *
                            std::max<int64_t>(b.invocations, 1);
        }

        // Phase 3: one response line per request, input order. A
        // failed request fails the operation, so every response is
        // built with serveBatch's ok status.
        const Status okStatus;
        std::string out;
        for (size_t k = 0; k < n; ++k) {
            const ReproBundle &b = *bundles[k];
            const Compiled &c = compiles[leader[k]];
            bool ok = cycles[k] >= 0;
            t.call(SpanName::Emit, [&] {
                JsonValue doc = JsonValue::object();
                doc.set("schema", JsonValue(kServeSchema));
                doc.set("index", JsonValue(static_cast<int64_t>(k)));
                if (!ids[k].isNull())
                    doc.set("id", ids[k]);
                doc.set("name", JsonValue(b.name));
                doc.set("ok", JsonValue(ok));
                JsonValue status = JsonValue::object();
                status.set("code", JsonValue(errorCodeName(okStatus.code())));
                status.set("stage", JsonValue(okStatus.stage()));
                status.set("message", JsonValue(okStatus.message()));
                doc.set("status", std::move(status));
                doc.set("technique",
                        JsonValue(techniqueName(b.technique)));
                if (ok) {
                    doc.set("ii_per_iteration",
                            JsonValue(c.program->iiPerIteration()));
                    doc.set("cycles", JsonValue(cycles[k]));
                    doc.set("trip_count", JsonValue(b.tripCount));
                    doc.set("invocations",
                            JsonValue(std::max<int64_t>(b.invocations, 1)));
                    doc.set("source",
                            JsonValue(compileSourceName(c.source)));
                }
                size_t before = out.size();
                out += doc.dump(0);
                out += "\n";
                t.noteBytes(static_cast<int64_t>(out.size() - before));
            });
            if (!ok)
                result.ok = false;
        }
        result.cycles = std::move(cycles);
        // serveBatch frees its slots and compiles before it returns.
        t.call(SpanName::Release, [&] {
            compiles.clear();
            bundles.clear();
            ids.clear();
            out.clear();
            out.shrink_to_fit();
        });
        return result;
    }

  private:
    struct Batch
    {
        std::vector<std::string> lines;
        std::string text;
    };

    /** serveBatch's bundleLoop: the loop named like the bundle, else
     *  the module's first. */
    static const Loop &
    bundleLoop(const ReproBundle &bundle)
    {
        const Loop *loop = &bundle.module.loops.front();
        for (const Loop &candidate : bundle.module.loops)
            if (candidate.name == bundle.name)
                loop = &candidate;
        return *loop;
    }

    static Rng
    rngOf(uint64_t seed)
    {
        return Rng(seed * 0xD1B54A32D192ED03ULL + 0x5E4E);
    }

    /**
     * Draw generated loops from `rng`, each as four request lines (one
     * per technique), until `take` has accepted kTotal of them. The
     * draw number identifies a candidate; accepted loop j gets trip
     * 384 or 768 in turn and the stratified options of slot j.
     */
    static void
    drawLoops(Rng &rng,
              const std::function<bool(int64_t, std::vector<std::string> &)>
                  &take)
    {
        static const int64_t kTrips[] = {384, 768};
        int j = 0;
        for (int64_t draw = 0; j < kTotal; ++draw) {
            int64_t trip = kTrips[j % std::size(kTrips)];
            GeneratedLoop gen = generateLoop(rng, stratified(j, kTotal, trip));
            std::vector<std::string> loopLines;
            for (Technique technique : kTechniques) {
                ReproBundle bundle;
                bundle.name = gen.loop().name;
                bundle.module = gen.module;
                bundle.liveIns = gen.liveIns;
                bundle.machine = paperMachine();
                bundle.technique = technique;
                bundle.tripCount = trip;
                bundle.invocations = 1;
                bundle.memPattern = static_cast<int64_t>(
                    0xC0FFEE ^ static_cast<uint64_t>(j));
                loopLines.push_back(jsonOfReproBundle(bundle).dump(0));
            }
            j += take(draw, loopLines);
        }
    }

    static std::optional<ReproBundle>
    parseBundle(const std::string &line)
    {
        Expected<JsonValue> doc = parseJson(line);
        if (!doc.ok())
            return std::nullopt;
        Expected<ReproBundle> bundle = reproBundleOfJson(doc.value());
        if (!bundle.ok())
            return std::nullopt;
        return bundle.takeValue();
    }

    /** The cycles the service must answer one request line with: a
     *  reference-verified evaluation of the parsed request. Nothing
     *  when it fails. */
    static std::optional<int64_t>
    verifiedCycles(const std::string &line)
    {
        std::optional<ReproBundle> b = parseBundle(line);
        if (!b)
            return std::nullopt;
        Tracer off(false);
        std::optional<int64_t> cycles = verifiedRun(
            bundleLoop(*b), b->module.arrays, b->machine, b->technique,
            b->options, 0, b->liveIns, b->tripCount,
            static_cast<uint64_t>(b->memPattern), off);
        if (!cycles)
            return std::nullopt;
        return *cycles * std::max<int64_t>(b->invocations, 1);
    }

    std::vector<Batch> batches;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "table2")
        return std::make_unique<Table2Workload>();
    if (name == "serve_repeat")
        return std::make_unique<ServeWorkload>();
    return nullptr;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Linear-interpolation percentile (numpy's default), q in [0, 1]. */
double
percentile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    if (values.empty())
        return 0.0;
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;   // KiB -> MiB
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The pass's invocation-weighted cycles and the geomean, over its
 *  groups, of ModuloOnly cycles over Selective cycles. */
void
cycleMetrics(const Workload &w, int64_t *simCycles, double *speedup)
{
    std::map<int, std::pair<int64_t, int64_t>> byGroup;
    *simCycles = 0;
    for (size_t i = 0; i < w.ops(); ++i) {
        for (size_t k = 0; k < w.keys[i].size(); ++k) {
            int64_t c = w.expected[i][k];
            *simCycles += c;
            const Key &key = w.keys[i][k];
            if (key.technique == Technique::ModuloOnly)
                byGroup[key.group].first += c;
            else if (key.technique == Technique::Selective)
                byGroup[key.group].second += c;
        }
    }
    double logSum = 0.0;
    for (const auto &[group, sums] : byGroup)
        logSum += std::log(static_cast<double>(sums.first) /
                           static_cast<double>(sums.second));
    *speedup = std::exp(logSum / static_cast<double>(byGroup.size()));
}

/** Evaluations (or requests) one pass completes. */
int64_t
evalsPerPass(const Workload &w)
{
    int64_t n = 0;
    for (const std::vector<Key> &k : w.keys)
        n += static_cast<int64_t>(k.size());
    return n;
}

/** Check one operation's results; returns how many matched. */
int64_t
countVerified(const Workload &w, size_t op, const OpResult &r)
{
    const Cycles &want = w.expected[op];
    int64_t matched = 0;
    for (size_t k = 0; k < want.size(); ++k)
        if (k < r.cycles.size() && r.cycles[k] == want[k])
            ++matched;
    return matched;
}

struct Tally
{
    int64_t attempted = 0;
    int64_t verified = 0;
};

struct PassTimes
{
    std::vector<int64_t> opNs;
    int64_t totalNs = 0;
    Counts counts{};            ///< counter deltas over the pass
};

/** One production pass on a cleared compile cache. */
PassTimes
productionPass(Workload &w, Tally &tally)
{
    PassTimes pass;
    compileCacheClear();
    Counts before = readCounts();
    for (size_t i = 0; i < w.ops(); ++i) {
        if (w.freshCachePerOp)
            compileCacheClear();
        OpResult r = w.run(i);
        pass.opNs.push_back(r.ns);
        pass.totalNs += r.ns;
        tally.attempted += static_cast<int64_t>(w.expected[i].size());
        tally.verified += countVerified(w, i, r);
    }
    Counts after = readCounts();
    for (size_t c = 0; c < kNumCounts; ++c)
        pass.counts[c] = after[c] - before[c];
    return pass;
}

/** One replay pass on a cleared compile cache. */
PassTimes
replayPass(Workload &w, Tracer &tracer, int64_t passId, Tally &tally)
{
    PassTimes pass;
    compileCacheClear();
    Counts before = readCounts();
    for (size_t i = 0; i < w.ops(); ++i) {
        if (w.freshCachePerOp)
            compileCacheClear();
        int64_t start = nowNs();
        tracer.beginOp(static_cast<int64_t>(i), passId);
        OpResult r = w.replay(i, tracer);
        tracer.endOp();
        r.ns = nowNs() - start;
        pass.opNs.push_back(r.ns);
        pass.totalNs += r.ns;
        tally.attempted += static_cast<int64_t>(w.expected[i].size());
        tally.verified += countVerified(w, i, r);
    }
    Counts after = readCounts();
    for (size_t c = 0; c < kNumCounts; ++c)
        pass.counts[c] = after[c] - before[c];
    return pass;
}

/** The counters that must repeat exactly pass after pass (all but the
 *  page faults, which the kernel and allocator decide). */
bool
sameCounts(const Counts &a, const Counts &b)
{
    for (size_t c = 0; c < kNumCounts; ++c)
        if (c != static_cast<size_t>(Count::MinorFaults) && a[c] != b[c])
            return false;
    return true;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int passes = 0;             ///< 0: derive from --seconds
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args *args)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            args->workload = value;
        } else if (arg == "--seed") {
            args->seed = std::strtoull(value, &end, 10);
        } else if (arg == "--seconds") {
            args->seconds = std::strtod(value, &end);
        } else if (arg == "--trace") {
            args->trace = std::strtol(value, &end, 10) != 0;
        } else if (arg == "--passes") {
            args->passes = static_cast<int>(std::strtol(value, &end, 10));
        } else if (arg == "--trace-out") {
            args->traceOut = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return !args->workload.empty() && args->seconds >= 0 &&
           args->passes >= 0;
}

void
printResult(bool correct, const Tally &tally,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<long long>(tally.attempted),
                static_cast<long long>(tally.attempted - tally.verified));
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

/** How many passes (or traced rounds) to run: exactly --passes when
 *  it is given, else at least three and then more until --seconds of
 *  timed work have elapsed. */
struct PassPlan
{
    int passes = 0;             ///< 0: bounded by `seconds`
    double seconds = 0.0;
    int64_t startNs = 0;

    bool
    more(int p) const
    {
        if (passes > 0)
            return p < passes;
        return p < 3 ||
               static_cast<double>(nowNs() - startNs) < 1e9 * seconds;
    }
};

/** The counters every pass must repeat, compared pass after pass. */
struct CountCheck
{
    std::optional<Counts> first;
    bool same = true;

    void
    add(const Counts &counts)
    {
        if (!first)
            first = counts;
        same = same && sameCounts(*first, counts);
    }
};

/**
 * Production passes only: the end-to-end metrics. Every pass repeats
 * the same operations on the same inputs from a cleared compile cache,
 * so an operation's cost is its fastest time over the passes: a
 * co-tenant of the shared host only ever slows a pass down.
 * Throughput and latency percentiles come from these per-operation
 * best times.
 */
std::vector<Metric>
untracedMetrics(Workload &w, const PassPlan &plan, double setupS,
                Tally &tally, CountCheck &counts)
{
    std::vector<double> passNs;
    std::vector<double> bestNs(w.ops(), 0.0);
    for (int p = 0; plan.more(p); ++p) {
        PassTimes pass = productionPass(w, tally);
        counts.add(pass.counts);
        passNs.push_back(static_cast<double>(pass.totalNs));
        for (size_t i = 0; i < w.ops(); ++i) {
            double ns = static_cast<double>(pass.opNs[i]);
            bestNs[i] = p == 0 ? ns : std::min(bestNs[i], ns);
        }
    }
    std::vector<double> opMs;
    double bestPassNs = 0.0;
    for (double ns : bestNs) {
        opMs.push_back(ns / 1e6);
        bestPassNs += ns;
    }
    double p90 = percentile(opMs, 0.9);
    size_t above = static_cast<size_t>(std::count_if(
        opMs.begin(), opMs.end(), [&](double v) { return v > p90; }));
    std::printf("perfbench: %zu timed passes, %zu operations, %zu above "
                "p90; best-time pass %.1f ms, median pass %.1f ms; "
                "pass ms:",
                passNs.size(), opMs.size(), above, bestPassNs / 1e6,
                median(passNs) / 1e6);
    for (double ns : passNs)
        std::printf(" %.1f", ns / 1e6);
    std::printf("\n");

    int64_t simCycles = 0;
    double speedup = 0.0;
    cycleMetrics(w, &simCycles, &speedup);
    return {
        {"setup_s", setupS, "s"},
        {"evals_per_s",
         static_cast<double>(evalsPerPass(w)) / (bestPassNs / 1e9),
         "1/s"},
        {"latency_p50_ms", percentile(opMs, 0.5), "ms"},
        {"latency_p90_ms", p90, "ms"},
        {"verified_frac",
         static_cast<double>(tally.verified) /
             static_cast<double>(tally.attempted),
         "fraction"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
        {"sim_cycles", static_cast<double>(simCycles), "cycles"},
        {"selective_speedup", speedup, "x"},
    };
}

/** The traced document: per-layer totals, the metrics, every span. */
bool
writeTraceDocument(const std::string &path, const Args &args,
                   const std::vector<LayerTotals> &rounds,
                   const std::vector<Metric> &metrics,
                   const Tracer &traced)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    const LayerTotals &lt = rounds.front();
    std::fprintf(out,
                 "{\"schema\": \"selvec-perfbench-trace-v1\", "
                 "\"workload\": \"%s\", \"seed\": %llu, "
                 "\"rounds\": %zu,\n\"layers\": {",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), rounds.size());
    for (size_t s = 0; s < kNumSpanNames; ++s) {
        std::fprintf(out,
                     "%s\n\"%s\": {\"self_ms\": %.6f, \"calls\": %lld, "
                     "\"share\": %.6f, \"counts\": {",
                     s ? "," : "", spanNameText(static_cast<SpanName>(s)),
                     static_cast<double>(lt.selfNs[s]) / 1e6,
                     static_cast<long long>(lt.calls[s]),
                     static_cast<double>(lt.selfNs[s]) /
                         static_cast<double>(lt.rootNs));
        for (size_t c = 0; c < kNumCounts; ++c)
            std::fprintf(out, "%s\"%s\": %lld", c ? ", " : "",
                         countText(static_cast<Count>(c)),
                         static_cast<long long>(lt.counts[s][c]));
        std::fputs("}}", out);
    }
    std::fputs("},\n\"metrics\": {", out);
    for (size_t i = 0; i < metrics.size(); ++i)
        std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i ? ", " : "", metrics[i].name.c_str(),
                     metrics[i].value, metrics[i].unit.c_str());
    std::fputs("},\n\"spans\": ", out);
    writeSpansJson(out, traced.spans());
    std::fputs("}\n", out);
    return std::fclose(out) == 0;
}

/**
 * Rounds of a production pass, a bare replay and a traced replay,
 * back to back so the three see the same machine conditions: the
 * per-layer metrics. Layer times and shares are medians over rounds;
 * counts repeat exactly, so the first round's are reported.
 */
std::vector<Metric>
tracedMetrics(Workload &w, const PassPlan &plan, const Args &args,
              Tally &tally, CountCheck &counts)
{
    Tracer bare(false);
    Tracer traced(true);
    std::vector<LayerTotals> rounds;
    std::vector<double> overhead;
    std::vector<double> gap;
    std::vector<double> selfMs;
    for (int p = 0; plan.more(p); ++p) {
        PassTimes prod = productionPass(w, tally);
        PassTimes plain = replayPass(w, bare, p, tally);
        PassTimes rec = replayPass(w, traced, p, tally);
        for (const PassTimes *pt : {&prod, &plain, &rec})
            counts.add(pt->counts);
        LayerTotals lt = layerTotals(traced.spans(), p);
        double u = static_cast<double>(prod.totalNs);
        overhead.push_back(1.0 - static_cast<double>(plain.totalNs) /
                                     static_cast<double>(rec.totalNs));
        gap.push_back(static_cast<double>(plain.totalNs) / u - 1.0);
        int64_t covered =
            lt.rootNs - lt.selfNs[static_cast<size_t>(SpanName::Op)];
        selfMs.push_back((u - static_cast<double>(covered)) / 1e6);
        rounds.push_back(lt);
    }

    auto ms = [&](std::initializer_list<SpanName> spans) {
        std::vector<double> v;
        for (const LayerTotals &lt : rounds) {
            int64_t ns = 0;
            for (SpanName s : spans)
                ns += lt.selfNs[static_cast<size_t>(s)];
            v.push_back(static_cast<double>(ns) / 1e6);
        }
        return median(v);
    };
    auto share = [&](std::initializer_list<SpanName> spans) {
        std::vector<double> v;
        for (const LayerTotals &lt : rounds) {
            int64_t ns = 0;
            for (SpanName s : spans)
                ns += lt.selfNs[static_cast<size_t>(s)];
            v.push_back(static_cast<double>(ns) /
                        static_cast<double>(lt.rootNs));
        }
        return median(v);
    };
    const LayerTotals &lt = rounds.front();
    auto count = [&](SpanName s, Count c) {
        return static_cast<double>(
            lt.counts[static_cast<size_t>(s)][static_cast<size_t>(c)]);
    };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    double minCoverage = 1.0;
    std::vector<double> minflt;
    for (const LayerTotals &r : rounds) {
        minCoverage = std::min(minCoverage, r.minCoverage);
        int64_t faults = 0;
        for (SpanName s :
             {SpanName::MemFill, SpanName::MemDiff, SpanName::MemFree})
            faults += r.counts[static_cast<size_t>(s)]
                              [static_cast<size_t>(Count::MinorFaults)];
        minflt.push_back(static_cast<double>(faults));
    }
    std::vector<Metric> metrics = {
        {"sim.memimage.fill_ms", ms({SpanName::MemFill}), "ms"},
        {"sim.memimage.diff_ms", ms({SpanName::MemDiff}), "ms"},
        {"sim.memimage.free_ms", ms({SpanName::MemFree}), "ms"},
        {"sim.memimage.bytes",
         static_cast<double>(
             lt.bytes[static_cast<size_t>(SpanName::MemFill)]),
         "bytes"},
        {"sim.memimage.minflt", median(minflt), "count"},
        {"driver.compile_ms", ms({SpanName::Compile}), "ms"},
        {"driver.compiles",
         static_cast<double>(
             lt.calls[static_cast<size_t>(SpanName::Compile)]),
         "count"},
        {"core.partition.moves_evaluated",
         count(SpanName::Op, Count::MovesEvaluated), "count"},
        {"core.partition.commit_frac",
         ratio(count(SpanName::Op, Count::MovesCommitted),
               count(SpanName::Op, Count::MovesEvaluated)),
         "fraction"},
        {"pipeline.modsched.attempts",
         count(SpanName::Op, Count::ModschedAttempts), "count"},
        {"pipeline.modsched.backtracks",
         count(SpanName::Op, Count::ModschedBacktracks), "count"},
        {"sim.plan_ms", ms({SpanName::Plan}), "ms"},
        {"sim.pipelined_ms", ms({SpanName::Pipelined}), "ms"},
        {"sim.pipelined.instances",
         count(SpanName::Pipelined, Count::StreamInstances), "count"},
        {"sim.reference_ms", ms({SpanName::Reference}), "ms"},
        {"service.parse_ms", ms({SpanName::Parse}), "ms"},
        {"service.parse_bytes",
         static_cast<double>(lt.bytes[static_cast<size_t>(SpanName::Parse)]),
         "bytes"},
        {"service.dedup_key_ms", ms({SpanName::DedupKey}), "ms"},
        {"service.emit_ms", ms({SpanName::Emit}), "ms"},
        {"driver.cache_hit_frac",
         ratio(count(SpanName::Op, Count::CacheHit),
               count(SpanName::Op, Count::CacheHit) +
                   count(SpanName::Op, Count::CacheMiss)),
         "fraction"},
        {"driver.evaluate.self_ms", median(selfMs), "ms"},
        {"sim.memimage.share",
         share({SpanName::MemFill, SpanName::MemDiff, SpanName::MemFree}),
         "fraction"},
        {"driver.compile.share", share({SpanName::Compile}), "fraction"},
        {"sim.plan.share", share({SpanName::Plan}), "fraction"},
        {"sim.pipelined.share", share({SpanName::Pipelined}), "fraction"},
        {"sim.reference.share", share({SpanName::Reference}), "fraction"},
        {"service.share",
         share({SpanName::Parse, SpanName::DedupKey, SpanName::Emit,
                SpanName::Release}),
         "fraction"},
        {"trace.coverage_frac", minCoverage, "fraction"},
        {"trace.overhead_frac", median(overhead), "fraction"},
        {"trace.replay_gap_frac", median(gap), "fraction"},
        {"setup.aborted_candidates", static_cast<double>(w.aborted),
         "count"},
    };

    std::printf("perfbench: %zu rounds; layer shares of traced op time:",
                rounds.size());
    for (size_t s = 0; s < kNumSpanNames; ++s)
        std::printf(" %s %.1f%%", spanNameText(static_cast<SpanName>(s)),
                    100.0 * share({static_cast<SpanName>(s)}));
    std::printf("\n");
    if (!args.traceOut.empty()) {
        if (!writeTraceDocument(args.traceOut, args, rounds, metrics,
                                traced)) {
            std::fprintf(stderr, "cannot write %s\n",
                         args.traceOut.c_str());
            std::exit(1);
        }
        std::printf("perfbench: trace document %s\n",
                    args.traceOut.c_str());
    }
    return metrics;
}

} // anonymous namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    if (!parseArgs(argc, argv, &args) ||
        makeWorkload(args.workload) == nullptr) {
        std::fprintf(stderr,
                     "usage: selvec_perfbench --workload "
                     "table2|serve_repeat --seed N "
                     "--seconds S --trace 0|1 [--passes N] "
                     "[--trace-out FILE]\n");
        return 2;
    }

    // Set-up, repeated: every repetition must build the same inputs
    // and the same expected results.
    std::unique_ptr<Workload> probe = makeWorkload(args.workload);
    int64_t screenStart = nowNs();
    Screening screening = probe->screen(args.seed);
    double screenS = static_cast<double>(nowNs() - screenStart) / 1e9;
    std::unique_ptr<Workload> w;
    std::vector<double> setupSeconds;
    for (int rep = 0; rep < probe->setupReps(); ++rep) {
        compileCacheClear();
        int64_t start = nowNs();
        std::unique_ptr<Workload> fresh = makeWorkload(args.workload);
        fresh->setup(args.seed, screening);
        setupSeconds.push_back(static_cast<double>(nowNs() - start) / 1e9);
        if (w != nullptr && (fresh->fingerprint != w->fingerprint ||
                             fresh->expected != w->expected))
            failSetup("set-up is not deterministic");
        w = std::move(fresh);
    }
    std::printf("perfbench: workload %s seed %llu: %zu ops/pass, "
                "%lld evaluations/pass, inputs %016llx, "
                "%lld candidate loops aborted the compiler; "
                "screening %.1f s, set-up %.2f s x %zu\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), w->ops(),
                static_cast<long long>(evalsPerPass(*w)),
                static_cast<unsigned long long>(w->fingerprint),
                static_cast<long long>(w->aborted), screenS,
                median(setupSeconds), setupSeconds.size());

    Tally warm;
    productionPass(*w, warm);

    PassPlan plan;
    plan.passes = args.passes;
    plan.seconds = args.seconds;
    plan.startNs = nowNs();

    Tally tally;
    CountCheck counts;
    std::vector<Metric> metrics =
        args.trace ? tracedMetrics(*w, plan, args, tally, counts)
                   : untracedMetrics(*w, plan, median(setupSeconds), tally,
                                     counts);
    if (!counts.same)
        std::fprintf(stderr, "pass counters differ between passes, or "
                             "between the program and its replay\n");
    bool correct = warm.verified == warm.attempted &&
                   tally.verified == tally.attempted && counts.same;
    printResult(correct, tally, metrics);
    return correct ? 0 : 1;
}
