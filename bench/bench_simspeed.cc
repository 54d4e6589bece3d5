/**
 * @file
 * The simulator throughput benchmark: streaming pipelined executor
 * versus the dense event-list reference, tracked as a perf trajectory
 * across PRs.
 *
 * Generator-scaled loop classes are compiled once (ModuloOnly — the
 * technique whose main loop every other technique's loops resemble at
 * the executor's level), then each compiled main loop runs pipelined
 * under both engines on identical fresh memory images. Every run is
 * differential: observable outputs (cycles, liveOuts, carriedFinal,
 * dynOps, exit state) and the full memory image must match
 * bit-for-bit, or the bench dies — it doubles as a cross-engine
 * parity harness on top of the `simspeed` ctest label and the fuzz
 * --simdiff mode.
 *
 * The emitted selvec-bench-v1 document separates two kinds of metric:
 *
 *  - counters (iterations, cycles, dynOps, plan window sizes) are
 *    deterministic functions of the generated loops — CI asserts
 *    them exactly unchanged against the checked-in
 *    BENCH_simspeed.json via tools/bench_compare.py --counters. The
 *    window_values counter is the streaming engine's live register
 *    footprint (windowFrames x numValues, summed over the class's
 *    loops); each loop also runs at 2 x trip under the same plan —
 *    the footprint is a plan property, built without a trip count —
 *    which is the O(II x ops) memory claim in executable form (the
 *    dense engine's event list doubles instead; the `simspeed` test
 *    lane's allocation-counting test pins the claim exactly);
 *  - timings (iterations/s per engine, speedup) are wall-clock and
 *    emitted as 0 unless SELVEC_TIMINGS is set, the same opt-in the
 *    stats registry uses, so documents stay byte-stable.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "driver/driver.hh"
#include "machine/machine.hh"
#include "sim/execplan.hh"
#include "workloads/generator.hh"

namespace
{

using namespace selvec;

/** One generator-scaled loop class of the trajectory. */
struct ClassSpec
{
    const char *name;
    int64_t trip;   ///< body trip count (full mode)
    int loops;      ///< loops generated for the class
};

/**
 * The trip ladder. "large" is the class the acceptance bar tracks:
 * long enough that the dense engine's O(trip x ops) event list and
 * sort dominate, so the streaming engine's advantage is the
 * steady-state per-instance cost, not setup noise.
 */
constexpr ClassSpec kClasses[] = {
    {"small", 256, 4},
    {"medium", 4096, 3},
    {"large", 32768, 3},
};

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
timingsEnabled()
{
    const char *timings = std::getenv("SELVEC_TIMINGS");
    return timings != nullptr && std::string(timings) != "0" &&
           std::string(timings) != "";
}

/** One compiled subject: the main loop of a ModuloOnly compile. */
struct Subject
{
    GeneratedLoop gen;
    ArrayTable arrays;
    CompiledProgram program;
    ExecPlan plan;
    int64_t nBody = 0;      ///< main-loop body iterations at `trip`
};

/** Everything measured for one loop class. */
struct ClassResult
{
    int64_t compiled = 0;
    int64_t skipped = 0;

    // Deterministic counters (one streaming+dense pair per subject).
    int64_t iterations = 0;     ///< main-loop body iterations run
    int64_t cycles = 0;
    int64_t dynOps = 0;
    int64_t windowValues = 0;   ///< sum of windowFrames x numValues

    // Wall clock over the timing reps.
    int64_t streamNs = 0;
    int64_t denseNs = 0;
    int64_t timedIterations = 0;
};

void
dieOnMismatch(const char *what, const Subject &s)
{
    std::fprintf(stderr,
                 "bench_simspeed: %s diverges between streaming and "
                 "dense engines for loop '%s'\n",
                 what, s.gen.loop().name.c_str());
    std::exit(1);
}

/** Run the subject's main loop under one engine. */
RunOutput
runEngine(const Subject &s, const Machine &machine, MemoryImage &mem,
          bool dense, int64_t n_body, const ExecPlan *plan)
{
    const CompiledLoop &cl = s.program.loops.front();
    Expected<RunOutput> out =
        dense ? tryExecuteLoopDense(s.arrays, cl.main, machine, mem,
                                    s.gen.liveIns, n_body, 0,
                                    &cl.mainSchedule)
              : tryExecuteLoop(s.arrays, cl.main, machine, mem,
                               s.gen.liveIns, n_body, 0,
                               &cl.mainSchedule, {}, plan);
    if (!out.ok()) {
        std::fprintf(stderr,
                     "bench_simspeed: loop '%s' failed to run: %s\n",
                     cl.main.name.c_str(),
                     out.status().str().c_str());
        std::exit(1);
    }
    return out.takeValue();
}

ClassResult
runClass(const ClassSpec &spec, const Machine &machine, int64_t trip,
         int reps)
{
    ClassResult r;

    std::vector<Subject> subjects;
    for (int i = 0; i < spec.loops; ++i) {
        Rng rng(0x51D5'0000u + 977u * static_cast<uint64_t>(spec.trip) +
                static_cast<uint64_t>(i));
        GeneratorOptions options;
        // Arrays must admit the doubled-trip footprint probe.
        options.maxTrip = trip * 2;
        Subject s{generateLoop(rng, options), {}, {}, {}, 0};
        s.arrays = s.gen.module.arrays;
        Expected<CompiledProgram> compiled =
            tryCompileLoop(s.gen.loop(), s.arrays, machine,
                           Technique::ModuloOnly);
        if (!compiled.ok()) {
            // Deterministic skip: the same generated loop fails the
            // same way on every run of this bench.
            ++r.skipped;
            continue;
        }
        s.program = compiled.takeValue();
        const CompiledLoop &cl = s.program.loops.front();
        s.plan = buildExecPlan(cl.main, cl.mainSchedule, machine);
        s.nBody = trip / cl.coverage;
        ++r.compiled;
        subjects.push_back(std::move(s));
    }

    // Counter pass: one differential streaming-vs-dense pair per
    // subject, exact and deterministic.
    for (const Subject &s : subjects) {
        MemoryImage stream_mem(s.arrays);
        stream_mem.fillPattern(0x51D5'BEEF);
        MemoryImage dense_mem(s.arrays);
        dense_mem.fillPattern(0x51D5'BEEF);

        RunOutput sout = runEngine(s, machine, stream_mem, false,
                                   s.nBody, &s.plan);
        RunOutput dout = runEngine(s, machine, dense_mem, true,
                                   s.nBody, nullptr);

        if (sout.cycles != dout.cycles ||
            sout.bodyIterations != dout.bodyIterations ||
            sout.exited != dout.exited ||
            sout.exitOrig != dout.exitOrig ||
            sout.dynOps != dout.dynOps)
            dieOnMismatch("run outputs", s);
        if (!(sout.liveOuts == dout.liveOuts) ||
            !(sout.carriedFinal == dout.carriedFinal))
            dieOnMismatch("live values", s);
        if (!stream_mem.diff(dense_mem).empty())
            dieOnMismatch("memory", s);

        r.iterations += sout.bodyIterations;
        r.cycles += sout.cycles;
        r.dynOps += sout.totalDynOps();

        // The memory claim, executable: the same plan (hence the same
        // window footprint) drives a doubled-trip run, fully
        // differential again, while the dense engine's event list
        // doubles underneath it.
        MemoryImage stream_mem2(s.arrays);
        stream_mem2.fillPattern(0x51D5'BEEF);
        MemoryImage dense_mem2(s.arrays);
        dense_mem2.fillPattern(0x51D5'BEEF);
        RunOutput sout2 = runEngine(s, machine, stream_mem2, false,
                                    s.nBody * 2, &s.plan);
        RunOutput dout2 = runEngine(s, machine, dense_mem2, true,
                                    s.nBody * 2, nullptr);
        if (sout2.cycles != dout2.cycles ||
            sout2.bodyIterations != dout2.bodyIterations ||
            sout2.exited != dout2.exited ||
            !(sout2.liveOuts == dout2.liveOuts) ||
            !stream_mem2.diff(dense_mem2).empty())
            dieOnMismatch("doubled-trip run", s);

        r.windowValues += s.plan.windowFrames * s.plan.numValues;
    }

    // Timing pass: alternating whole-engine reps on scratch memory.
    int64_t t0 = nowNs();
    for (int rep = 0; rep < reps; ++rep) {
        for (const Subject &s : subjects) {
            MemoryImage mem(s.arrays);
            mem.fillPattern(0x51D5'BEEF);
            RunOutput out = runEngine(s, machine, mem, false, s.nBody,
                                      &s.plan);
            r.timedIterations += out.bodyIterations;
        }
    }
    r.streamNs = nowNs() - t0;

    t0 = nowNs();
    for (int rep = 0; rep < reps; ++rep) {
        for (const Subject &s : subjects) {
            MemoryImage mem(s.arrays);
            mem.fillPattern(0x51D5'BEEF);
            runEngine(s, machine, mem, true, s.nBody, nullptr);
        }
    }
    r.denseNs = nowNs() - t0;
    return r;
}

double
perSecond(int64_t count, int64_t ns)
{
    return ns > 0 ? static_cast<double>(count) * 1e9 /
                        static_cast<double>(ns)
                  : 0.0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace selvec;
    BenchCli cli = BenchCli::parse(argc, argv);
    Machine machine = paperMachine();
    bool timed = timingsEnabled();
    int reps = cli.quick ? 2 : 6;

    JsonValue doc = benchDocument("bench_simspeed", cli.mode());
    JsonValue classes = JsonValue::array();

    std::printf("Simulator throughput (%s mode, %d timing reps%s)\n",
                cli.mode(), reps,
                timed ? "" : "; set SELVEC_TIMINGS=1 for rates");
    std::printf("%-8s %9s %12s %12s %12s %8s\n", "class", "trip",
                "iterations", "stream it/s", "dense it/s", "speedup");

    for (const ClassSpec &spec : kClasses) {
        // Quick mode shortens trips (not loop counts): documents stay
        // comparable within a mode, as with every other bench.
        int64_t trip = cli.quick ? spec.trip / 8 : spec.trip;
        ClassResult r = runClass(spec, machine, trip, reps);

        double stream_s = perSecond(r.timedIterations, r.streamNs);
        double dense_s = perSecond(r.timedIterations, r.denseNs);
        double speedup = dense_s > 0.0 ? stream_s / dense_s : 0.0;

        std::printf("%-8s %9lld %12lld %12.0f %12.0f %8.2f\n",
                    spec.name, static_cast<long long>(trip),
                    static_cast<long long>(r.iterations),
                    timed ? stream_s : 0.0, timed ? dense_s : 0.0,
                    timed ? speedup : 0.0);

        JsonValue cls = JsonValue::object();
        cls.set("name", spec.name);
        cls.set("trip", trip);
        cls.set("compiled", r.compiled);
        cls.set("skipped", r.skipped);
        cls.set("iterations", r.iterations);
        cls.set("cycles", r.cycles);
        cls.set("dynOps", r.dynOps);
        cls.set("window_values", r.windowValues);
        cls.set("stream_iters_per_second", timed ? stream_s : 0.0);
        cls.set("dense_iters_per_second", timed ? dense_s : 0.0);
        cls.set("speedup", timed ? speedup : 0.0);
        classes.append(std::move(cls));
    }

    doc.set("classes", std::move(classes));
    finishBenchJson(cli, doc);
    return 0;
}
