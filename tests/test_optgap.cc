/**
 * @file
 * The exact-partition oracle contract (DESIGN.md §12): the
 * branch-and-bound search never costs more than the KL incumbent,
 * proves optimality on the shipped kernels, degrades to Unproven
 * (keeping the incumbent) under a node budget, keeps documents
 * byte-identical across jobs, validates its knobs, and fragments the
 * canonical compile key (serve's dedup key) only when it can matter.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/depgraph.hh"
#include "core/partition.hh"
#include "core/partition_exact.hh"
#include "driver/compilecache.hh"
#include "driver/evaluate.hh"
#include "driver/repro.hh"
#include "driver/reportjson.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "support/json.hh"
#include "workloads/workloads.hh"

namespace selvec
{
namespace
{

std::string
readKernel(const std::string &name)
{
    std::string path = std::string(SELVEC_KERNEL_DIR) + "/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

const std::vector<std::string> &
kernelFiles()
{
    static const std::vector<std::string> kernels = {
        "butterfly.lir", "cmul.lir",   "dot.lir",
        "saxpy.lir",     "search.lir", "stencil5.lir",
    };
    return kernels;
}

struct Analyzed
{
    Module module;
    Machine machine;
    VectAnalysis va;

    Analyzed(const std::string &text, Machine m)
        : machine(std::move(m))
    {
        ParseResult pr = parseLir(text);
        EXPECT_TRUE(pr.ok) << pr.error;
        module = std::move(pr.module);
        DepGraph graph(module.arrays, module.loops[0], machine);
        va = analyzeVectorizable(module.loops[0], graph, machine);
    }

    const Loop &loop() const { return module.loops.front(); }
};

/** A loop with enough vectorizable ops that KL and the oracle have a
 *  real search space. */
const char *kMixed = R"(
array A f64 256
array B f64 256
array C f64 256
loop mixed {
    livein c f64
    body {
        a = load A[i]
        b = load B[i]
        t0 = fmul a b
        t1 = fadd t0 c
        t2 = fmul t1 a
        t3 = fdiv t2 b
        t4 = fadd t3 t1
        store C[i] = t4
    }
}
)";

// ------------------------------------------------------------ strategy

TEST(PartitionStrategy, NamesRoundTrip)
{
    EXPECT_STREQ(partitionStrategyName(PartitionStrategy::Kl), "kl");
    EXPECT_STREQ(partitionStrategyName(PartitionStrategy::Exact),
                 "exact");
    EXPECT_STREQ(partitionStrategyName(PartitionStrategy::Auto),
                 "auto");

    PartitionStrategy s = PartitionStrategy::Kl;
    EXPECT_TRUE(parsePartitionStrategy("exact", &s));
    EXPECT_EQ(s, PartitionStrategy::Exact);
    EXPECT_TRUE(parsePartitionStrategy("auto", &s));
    EXPECT_EQ(s, PartitionStrategy::Auto);
    EXPECT_TRUE(parsePartitionStrategy("kl", &s));
    EXPECT_EQ(s, PartitionStrategy::Kl);

    s = PartitionStrategy::Auto;
    EXPECT_FALSE(parsePartitionStrategy("KL", &s));
    EXPECT_FALSE(parsePartitionStrategy("", &s));
    EXPECT_FALSE(parsePartitionStrategy("exactly", &s));
    EXPECT_EQ(s, PartitionStrategy::Auto) << "out must stay untouched";
}

// ------------------------------------------------------------- kernels

TEST(ExactPartition, NeverWorseThanKlOnKernels)
{
    Machine machine = paperMachine();
    for (const std::string &file : kernelFiles()) {
        Analyzed a(readKernel(file), machine);

        PartitionOptions popt;
        popt.strategy = PartitionStrategy::Kl;
        PartitionResult kl =
            partitionOps(a.loop(), a.va, machine, popt);
        EXPECT_FALSE(kl.exactUsed) << file;

        popt.strategy = PartitionStrategy::Exact;
        PartitionResult exact =
            partitionOps(a.loop(), a.va, machine, popt);
        EXPECT_TRUE(exact.exactUsed) << file;
        EXPECT_TRUE(exact.exactProven) << file;
        EXPECT_EQ(exact.klCost, kl.bestCost) << file;
        EXPECT_LE(exact.bestCost, kl.bestCost) << file;
        EXPECT_EQ(exact.exactGap, kl.bestCost - exact.bestCost)
            << file;
        EXPECT_GE(exact.exactNodes, 0) << file;
    }
}

TEST(ExactPartition, ZeroGapKeepsKlAssignmentBitForBit)
{
    // Determinism contract: when the oracle cannot improve on KL, the
    // partition (and so the whole downstream program) must be the KL
    // one, not some equal-cost sibling.
    Machine machine = paperMachine();
    for (const std::string &file : kernelFiles()) {
        Analyzed a(readKernel(file), machine);

        PartitionOptions popt;
        PartitionResult kl =
            partitionOps(a.loop(), a.va, machine, popt);
        popt.strategy = PartitionStrategy::Exact;
        PartitionResult exact =
            partitionOps(a.loop(), a.va, machine, popt);
        if (exact.exactGap == 0) {
            EXPECT_EQ(exact.vectorize, kl.vectorize) << file;
        }
    }
}

// -------------------------------------------------------------- budget

TEST(ExactPartition, BudgetExhaustionDegradesToUnproven)
{
    Analyzed a(kMixed, paperMachine());

    PartitionOptions popt;
    PartitionResult kl = partitionOps(a.loop(), a.va, a.machine, popt);

    popt.strategy = PartitionStrategy::Exact;
    popt.exactMaxNodes = 1;
    PartitionResult starved =
        partitionOps(a.loop(), a.va, a.machine, popt);
    EXPECT_TRUE(starved.exactUsed);
    EXPECT_FALSE(starved.exactProven);
    // Never wrong, merely incomplete: the KL incumbent survives.
    EXPECT_EQ(starved.bestCost, kl.bestCost);
    EXPECT_EQ(starved.vectorize, kl.vectorize);
    EXPECT_EQ(starved.exactGap, 0);
    EXPECT_FALSE(starved.deadlineStopped)
        << "a budget stop is not a deadline stop";
}

TEST(ExactPartition, UnboundedBudgetProves)
{
    Analyzed a(kMixed, paperMachine());
    PartitionOptions popt;
    popt.strategy = PartitionStrategy::Exact;
    popt.exactMaxNodes = 0;     // 0 = unbounded
    PartitionResult exact =
        partitionOps(a.loop(), a.va, a.machine, popt);
    EXPECT_TRUE(exact.exactProven);
}

// ---------------------------------------------------------------- auto

TEST(ExactPartition, AutoRespectsThreshold)
{
    Analyzed a(kMixed, paperMachine());
    int candidates = 0;
    for (bool b : a.va.vectorizable)
        candidates += b ? 1 : 0;
    ASSERT_GT(candidates, 1);

    PartitionOptions popt;
    popt.strategy = PartitionStrategy::Auto;
    popt.exactThreshold = candidates;
    PartitionResult at =
        partitionOps(a.loop(), a.va, a.machine, popt);
    EXPECT_TRUE(at.exactUsed);

    popt.exactThreshold = candidates - 1;
    PartitionResult over =
        partitionOps(a.loop(), a.va, a.machine, popt);
    EXPECT_FALSE(over.exactUsed);
}

// ---------------------------------------------------------- validation

TEST(ExactPartition, NegativeKnobsAreInvalidInput)
{
    Analyzed a(kMixed, paperMachine());

    PartitionOptions popt;
    popt.exactThreshold = -1;
    Expected<PartitionResult> r =
        tryPartitionOps(a.loop(), a.va, a.machine, popt);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::InvalidInput);

    popt.exactThreshold = 24;
    popt.exactMaxNodes = -5;
    r = tryPartitionOps(a.loop(), a.va, a.machine, popt);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::InvalidInput);

    DriverOptions driver;
    driver.partition.exactMaxNodes = -1;
    ArrayTable arrays = a.module.arrays;
    Expected<CompiledProgram> c = tryCompileLoop(
        a.loop(), arrays, a.machine, Technique::Selective, driver);
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.status().code(), ErrorCode::InvalidInput);
}

// ---------------------------------------------------- compile key

TEST(ExactPartition, CacheKeyFragmentsOnlyWhenItCanMatter)
{
    Analyzed a(kMixed, paperMachine());
    DriverOptions kl_opts;

    DriverOptions exact_opts = kl_opts;
    exact_opts.partition.strategy = PartitionStrategy::Exact;

    std::string kl_key =
        compileCacheKey(a.loop(), a.module.arrays, a.machine,
                        Technique::Selective, kl_opts);
    std::string exact_key =
        compileCacheKey(a.loop(), a.module.arrays, a.machine,
                        Technique::Selective, exact_opts);
    EXPECT_NE(kl_key, exact_key);

    // Under KL the exact knobs cannot change the program: one key
    // (one dedup group) must serve every threshold/budget value.
    DriverOptions kl_tweaked = kl_opts;
    kl_tweaked.partition.exactThreshold = 7;
    kl_tweaked.partition.exactMaxNodes = 123;
    EXPECT_EQ(kl_key,
              compileCacheKey(a.loop(), a.module.arrays, a.machine,
                              Technique::Selective, kl_tweaked));

    // Under Exact they can: the key must fragment.
    DriverOptions exact_tweaked = exact_opts;
    exact_tweaked.partition.exactMaxNodes = 1;
    EXPECT_NE(exact_key,
              compileCacheKey(a.loop(), a.module.arrays, a.machine,
                              Technique::Selective, exact_tweaked));
}

// ------------------------------------------------------------ documents

TEST(ExactPartition, ReportsAreIdenticalAcrossJobs)
{
    Suite suite = makeSuite("125.turb3d");
    Machine machine = paperMachine();

    auto render = [&](int jobs) {
        EvaluateOptions options;
        options.jobs = jobs;
        options.driver.partition.strategy = PartitionStrategy::Exact;
        SuiteReport report = evaluateSuite(
            suite, machine, Technique::Selective, options);
        return jsonOfSuiteReport(report).dump(2);
    };

    std::string serial = render(1);
    EXPECT_EQ(serial, render(8));
    // The exact detail must actually be in the document.
    EXPECT_NE(serial.find("\"exact\""), std::string::npos);
    EXPECT_NE(serial.find("\"kl_cost\""), std::string::npos);
}

TEST(ExactPartition, KlDocumentsCarryNoExactDetail)
{
    // Byte-identity of default documents with pre-oracle ones: the
    // "exact" object appears only when the oracle ran.
    Suite suite = dotProductSuite();
    Machine machine = paperMachine();
    EvaluateOptions options;
    SuiteReport report =
        evaluateSuite(suite, machine, Technique::Selective, options);
    std::string text = jsonOfSuiteReport(report).dump(2);
    EXPECT_EQ(text.find("\"exact\""), std::string::npos);
}

// ----------------------------------------------------------- round trip

TEST(ExactPartition, ReproBundleRoundTripsStrategyKnobs)
{
    ParseResult pr = parseLir(kMixed);
    ASSERT_TRUE(pr.ok) << pr.error;

    ReproBundle bundle;
    bundle.name = "mixed";
    bundle.module = pr.module;
    bundle.machine = paperMachine();
    bundle.technique = Technique::Selective;
    bundle.tripCount = 8;
    bundle.options.partition.strategy = PartitionStrategy::Auto;
    bundle.options.partition.exactThreshold = 9;
    bundle.options.partition.exactMaxNodes = 4321;
    bundle.failure = Status::error(ErrorCode::Internal, "test", "x");

    Expected<ReproBundle> loaded =
        reproBundleOfJson(jsonOfReproBundle(bundle));
    ASSERT_TRUE(loaded.ok()) << loaded.status().str();
    EXPECT_EQ(loaded.value().options.partition.strategy,
              PartitionStrategy::Auto);
    EXPECT_EQ(loaded.value().options.partition.exactThreshold, 9);
    EXPECT_EQ(loaded.value().options.partition.exactMaxNodes, 4321);
}

// ------------------------------------------------------------- low level

TEST(ExactSearch, EmptyCandidateSetIsTriviallyProven)
{
    // With nothing vectorizable the all-scalar assignment is the
    // whole search space: trivially the proven optimum, no search.
    Analyzed a(kMixed, paperMachine());
    VectAnalysis none = a.va;
    none.vectorizable.assign(none.vectorizable.size(), false);

    PartitionOptions popt;
    popt.strategy = PartitionStrategy::Exact;
    PartitionResult r = partitionOps(a.loop(), none, a.machine, popt);
    EXPECT_TRUE(r.exactUsed);
    EXPECT_TRUE(r.exactProven);
    EXPECT_EQ(r.exactGap, 0);
    EXPECT_EQ(r.klCost, r.bestCost);
    EXPECT_FALSE(r.anyVector());
}

TEST(ExactSearch, DirectSearchMatchesPartitionOps)
{
    Analyzed a(kMixed, paperMachine());
    PartitionResult kl = partitionOps(a.loop(), a.va, a.machine);

    ExactSearchOptions options;
    ExactSearchResult direct = exactPartitionSearch(
        a.loop(), a.va, a.machine, kl.vectorize, kl.bestCost,
        options);
    EXPECT_TRUE(direct.proven);
    EXPECT_LE(direct.bestCost, kl.bestCost);

    PartitionOptions popt;
    popt.strategy = PartitionStrategy::Exact;
    PartitionResult via = partitionOps(a.loop(), a.va, a.machine, popt);
    EXPECT_EQ(via.bestCost, direct.bestCost);
    EXPECT_EQ(via.vectorize, direct.vectorize);
}

} // anonymous namespace
} // namespace selvec
