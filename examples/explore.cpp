/**
 * @file
 * selvec_explore: a small command-line driver that reads a LIR file
 * and reports, for every technique, the per-iteration II, schedule
 * depth and simulated cycles — the tool you point at your own loop to
 * see whether selective vectorization would pay off.
 *
 * Usage:
 *   selvec_explore [options] [file.lir] [trip-count]
 *
 * Options:
 *   --aligned      assume hardware unaligned vector memory (no merges)
 *   --direct       direct scalar<->vector register moves
 *   --toy          the 3-slot Figure 1 example machine
 *   --reductions   recognize associative reductions (section 6)
 *   --json <path>  write a selvec-bench-v1 document with the compiled
 *                  program, cycles and speedup of every technique,
 *                  plus the compile-stats and trace trees
 *   --jobs N       worker threads for the per-technique
 *                  compile+simulate fan-out (default: hardware
 *                  concurrency; 1 is serial). Output is identical
 *                  for every N.
 *   --partition S  Selective partitioner strategy: kl (default),
 *                  exact (the branch-and-bound oracle) or auto
 *
 * Any other `--` flag is a usage error (exit 2).
 *
 * Every live-in is bound to a small default value (f64: 0.5, i64: 3);
 * results are checked against the reference interpreter.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/partition.hh"
#include "driver/driver.hh"
#include "driver/reportjson.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "pipeline/printer.hh"
#include "support/parsenum.hh"
#include "support/stats.hh"
#include "support/threadpool.hh"
#include "support/trace.hh"

namespace
{

using namespace selvec;

const char *kDefaultLir = R"(
array X f64 8192
array P f64 8192

loop horner {
    livein c0 f64
    livein c1 f64
    livein c2 f64
    livein c3 f64
    body {
        x = load X[i]
        a3 = fmul c3 x
        a2 = fadd a3 c2
        b2 = fmul a2 x
        b1 = fadd b2 c1
        d1 = fmul b1 x
        d0 = fadd d1 c0
        e = fmul d0 d0
        f = fadd e d0
        store P[i] = f
    }
}
)";

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace selvec;

    Machine machine = paperMachine();
    DriverOptions driver_options;
    std::string json_path;
    int jobs = 0;
    std::vector<std::string> positional;
    // Strict numeric parsing: `--jobs abc` is a usage error (exit 2),
    // never a silent jobs=0 run.
    auto count = [](const char *flag, const char *text) {
        int64_t value = 0;
        if (!parseNonNegInt(text, &value)) {
            std::fprintf(stderr,
                         "%s: expected a non-negative integer, "
                         "got '%s'\n",
                         flag, text);
            std::exit(2);
        }
        return value;
    };
    auto strategy = [&](const std::string &text) {
        PartitionStrategy parsed;
        if (!parsePartitionStrategy(text, &parsed)) {
            std::fprintf(stderr,
                         "--partition: expected kl, exact or auto, "
                         "got '%s'\n",
                         text.c_str());
            std::exit(2);
        }
        driver_options.partition.strategy = parsed;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--aligned")
            machine.alignment = AlignPolicy::AssumeAligned;
        else if (arg == "--direct")
            machine.transfer = TransferModel::DirectMove;
        else if (arg == "--toy")
            machine = toyMachine();
        else if (arg == "--reductions")
            driver_options.vectorize.recognizeReductions = true;
        else if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
        else if (arg == "--jobs" && i + 1 < argc)
            jobs = static_cast<int>(count("--jobs", argv[++i]));
        else if (arg.rfind("--jobs=", 0) == 0)
            jobs = static_cast<int>(
                count("--jobs", arg.c_str() + 7));
        else if (arg == "--partition" && i + 1 < argc)
            strategy(argv[++i]);
        else if (arg.rfind("--partition=", 0) == 0)
            strategy(arg.substr(12));
        else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            return 2;
        } else
            positional.push_back(arg);
    }

    std::string text = kDefaultLir;
    if (!positional.empty()) {
        std::ifstream in(positional[0]);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n",
                         positional[0].c_str());
            return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    } else {
        std::printf("(no input file: exploring a built-in polynomial "
                    "kernel; pass a .lir file to analyze your own "
                    "loop)\n\n");
    }
    int64_t n = positional.size() > 1
                    ? std::strtoll(positional[1].c_str(), nullptr, 10)
                    : 2048;

    ParseResult pr = parseLir(text);
    if (!pr.ok) {
        std::fprintf(stderr, "parse error: %s\n", pr.error.c_str());
        return 1;
    }
    JsonValue doc = benchDocument("selvec_explore", "full");
    JsonValue json_loops = JsonValue::array();
    ThreadPool pool(resolveJobs(jobs));
    const Technique kTechniques[] = {
        Technique::ModuloOnly, Technique::Traditional, Technique::Full,
        Technique::Selective, Technique::IterationSplit};
    const size_t tn =
        sizeof(kTechniques) / sizeof(kTechniques[0]);
    for (const Loop &loop : pr.module.loops) {
        std::printf("=== loop %s (%d ops, %lld iterations) ===\n",
                    loop.name.c_str(), loop.numOps(),
                    static_cast<long long>(n));

        LiveEnv env;
        for (ValueId v : loop.liveIns) {
            env[loop.valueInfo(v).name] =
                loop.typeOf(v) == Type::F64 ? RtVal::scalarF(0.5)
                                            : RtVal::scalarI(3);
        }

        // The five techniques are independent: compile and simulate
        // them in parallel (stats into per-task sinks merged in
        // technique order), then print serially so the output is
        // identical for every --jobs value.
        struct TechOutcome
        {
            CompiledProgram program;
            ExecResult run;
            std::string diff;
        };
        std::vector<TechOutcome> outcomes(tn);
        std::vector<StatsRegistry> sinks(tn);
        TraceContext tctx = traceCurrentContext();
        pool.parallelFor(tn, [&](size_t i) {
            ScopedStatsSink sink(sinks[i]);
            TraceContextScope tscope(tctx);
            ArrayTable arrays = pr.module.arrays;
            TechOutcome &out = outcomes[i];
            out.program = compileLoop(loop, arrays, machine,
                                      kTechniques[i], driver_options);
            MemoryImage mem(arrays);
            mem.fillPattern(17);
            out.run = runCompiled(out.program, arrays, machine, mem,
                                  env, n);
            MemoryImage ref(arrays);
            ref.fillPattern(17);
            runReference(loop, arrays, machine, ref, env, n);
            out.diff = mem.diff(ref);
        });
        for (const StatsRegistry &sink : sinks)
            globalStats().mergeFrom(sink);

        std::printf("%-14s %8s %7s %7s %10s\n", "technique", "II/iter",
                    "stages", "loops", "cycles");
        JsonValue json_loop = JsonValue::object();
        json_loop.set("name", loop.name);
        json_loop.set("trip_count", n);
        JsonValue json_techniques = JsonValue::array();
        int64_t baseline = 0;
        for (size_t i = 0; i < tn; ++i) {
            Technique t = kTechniques[i];
            const CompiledProgram &p = outcomes[i].program;
            const ExecResult &r = outcomes[i].run;
            if (!outcomes[i].diff.empty()) {
                std::printf("  %s DIVERGED: %s\n", techniqueName(t),
                            outcomes[i].diff.c_str());
                return 1;
            }

            if (t == Technique::ModuloOnly)
                baseline = r.cycles;
            int64_t stages = 0;
            for (const CompiledLoop &cl : p.loops)
                stages = std::max(stages,
                                  cl.mainSchedule.stageCount());
            std::printf("%-14s %8.2f %7lld %7zu %10lld  (%.2fx)\n",
                        techniqueName(t), p.iiPerIteration(),
                        static_cast<long long>(stages),
                        p.loops.size(),
                        static_cast<long long>(r.cycles),
                        static_cast<double>(baseline) /
                            static_cast<double>(r.cycles));

            JsonValue entry = jsonOfCompiledProgram(p);
            entry.set("cycles", r.cycles);
            entry.set("speedup", static_cast<double>(baseline) /
                                     static_cast<double>(r.cycles));
            json_techniques.append(std::move(entry));
        }
        std::printf("\n");
        json_loop.set("techniques", std::move(json_techniques));
        json_loops.append(std::move(json_loop));
    }
    if (!json_path.empty()) {
        doc.set("loops", std::move(json_loops));
        attachObservability(doc);
        if (writeJsonFile(json_path, doc))
            std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
