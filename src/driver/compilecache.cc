#include "driver/compilecache.hh"

#include <sstream>

#include "lir/lir.hh"

namespace selvec
{

namespace
{

thread_local CompileSource tls_compile_source = CompileSource::None;

/** Every semantic field of the machine, never its name: two machines
 *  that schedule identically must share a key. */
void
appendMachineKey(std::ostringstream &out, const Machine &machine)
{
    out << "machine";
    for (int k = 0; k < kNumResKinds; ++k)
        out << " " << machine.counts[k];
    out << ";";
    for (int c = 0; c < kNumOpClasses; ++c) {
        const ClassDesc &cd = machine.classes[c];
        out << " c" << c << ":" << cd.latency << ":";
        for (const Reservation &r : cd.reservations) {
            out << static_cast<int>(r.kind) << "x" << r.cycles << ",";
        }
    }
    out << "; vl=" << machine.vectorLength
        << " xfer=" << static_cast<int>(machine.transfer)
        << " align=" << static_cast<int>(machine.alignment)
        << " invoc=" << machine.invocationOverhead
        << " loopov=" << machine.loopOverhead << "\n";
}

/** The array declarations, writeLir-style (writeLoop references
 *  arrays by name only, so sizes/types/alignment enter here). */
void
appendArraysKey(std::ostringstream &out, const ArrayTable &arrays)
{
    for (ArrayId a = 0; a < arrays.size(); ++a) {
        const ArrayInfo &info = arrays[a];
        out << "array " << info.name << " "
            << static_cast<int>(info.elemType) << " " << info.size
            << " align " << info.baseAlign << " syn "
            << info.synthesized << "\n";
    }
}

} // anonymous namespace

void
compileCacheClear()
{
}

std::string
compileCacheKey(const Loop &loop, const ArrayTable &arrays,
                const Machine &machine, Technique technique,
                const DriverOptions &options)
{
    std::ostringstream out;
    out << "compile " << techniqueName(technique) << "\n";
    appendMachineKey(out, machine);
    appendArraysKey(out, arrays);
    // Only the knobs this technique consumes enter the key, so two
    // requests that differ in a Selective-only flag still share a
    // ModuloOnly/Full compile.
    out << "opts";
    if (technique == Technique::Traditional)
        out << " expansion=" << options.expansionSize;
    if (technique == Technique::Selective ||
        technique == Technique::IterationSplit) {
        out << " guard=" << options.vectorize.neighborGuard
            << " reduce=" << options.vectorize.recognizeReductions;
    }
    if (technique == Technique::Selective) {
        out << " comm=" << options.partition.cost.considerCommunication
            << " kliters=" << options.partition.maxIterations
            << " pstrat="
            << partitionStrategyName(options.partition.strategy);
        // The exact tier's knobs fragment the key only when they can
        // change the partition: under the default KL strategy every
        // threshold/budget produces the identical program, and one
        // key must serve them all.
        if (options.partition.strategy != PartitionStrategy::Kl) {
            out << " pthresh=" << options.partition.exactThreshold
                << " pnodes=" << options.partition.exactMaxNodes;
        }
    }
    if (technique == Technique::IterationSplit)
        out << " itersplit=" << options.iterSplitUnroll;
    out << "\n";
    const ScheduleOptions &sched = options.scheduling;
    out << "sched budget=" << sched.budgetFactor
        << " iifactor=" << sched.maxIiFactor
        << " iislack=" << sched.maxIiSlack << "\n";
    out << writeLoop(loop, arrays);
    return out.str();
}

const char *
compileSourceName(CompileSource source)
{
    switch (source) {
      case CompileSource::None: return "none";
      case CompileSource::Compiled: return "compiled";
    }
    return "none";
}

CompileSource
lastCompileSource()
{
    return tls_compile_source;
}

void
noteCompiled()
{
    tls_compile_source = CompileSource::Compiled;
}

} // namespace selvec
