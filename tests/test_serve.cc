/**
 * @file
 * Tests for the batch compile service (DESIGN.md §11): responses in
 * input order, byte-identical output at any job count, in-batch dedup
 * of repeated requests, and strict command-line parsing of selvec_serve and the bench binaries. The
 * `serve` ctest label selects this binary; the TSan lane runs it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "driver/driver.hh"
#include "driver/repro.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "service/serve.hh"
#include "support/stats.hh"
#include "workloads/workloads.hh"

namespace selvec
{
namespace
{

Suite
quickSuite()
{
    Suite suite = makeSuiteOrDie("171.swim");
    for (WorkloadLoop &wl : suite.loops) {
        wl.tripCount = std::min<int64_t>(wl.tripCount, 96);
        wl.invocations = std::max<int64_t>(1, wl.invocations / 4);
    }
    return suite;
}

/** A serve request line for one workload loop of `suite`. */
std::string
requestLineOf(const Suite &suite, const WorkloadLoop &wl,
              Technique technique)
{
    ReproBundle bundle;
    bundle.name = suite.loopOf(wl).name;
    bundle.module.arrays = suite.module.arrays;
    bundle.module.loops.push_back(suite.loopOf(wl));
    bundle.liveIns = wl.liveIns;
    bundle.machine = paperMachine();
    bundle.technique = technique;
    bundle.tripCount = wl.tripCount;
    bundle.invocations = wl.invocations;
    bundle.memPattern = 1;
    return jsonOfReproBundle(bundle).dump(0);
}

std::vector<JsonValue>
responsesOf(const std::string &text)
{
    std::vector<JsonValue> docs;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        Expected<JsonValue> doc = parseJson(line);
        EXPECT_TRUE(doc.ok()) << line;
        if (doc.ok())
            docs.push_back(doc.takeValue());
    }
    return docs;
}

// ---------------------------------------------------------------------
// Batches.

TEST(ServeBatch, RespondsInInputOrder)
{
    Suite suite = quickSuite();
    const WorkloadLoop &wl = suite.loops.front();
    std::string line = requestLineOf(suite, wl, Technique::Selective);

    std::stringstream in;
    in << line << "\n";
    in << line << "\n";          // dedup follower
    in << "this is not json\n";  // malformed, still answered in place
    in << line << "\n";          // another follower

    std::stringstream out;
    ServeOptions options;
    options.jobs = 8;
    ServeSummary summary = serveBatch(in, out, options);
    EXPECT_EQ(summary.requests, 4);
    EXPECT_EQ(summary.ok, 3);
    EXPECT_EQ(summary.malformed, 1);
    EXPECT_EQ(summary.deduped, 2);

    std::vector<JsonValue> docs = responsesOf(out.str());
    ASSERT_EQ(docs.size(), 4u);
    for (size_t i = 0; i < docs.size(); ++i) {
        EXPECT_EQ(docs[i].find("schema")->stringValue(), kServeSchema);
        EXPECT_EQ(docs[i].find("index")->intValue(),
                  static_cast<int64_t>(i));
        EXPECT_EQ(docs[i].find("ok")->boolValue(), i != 2);
    }
    // The dedup followers share the leader's compile and provenance.
    EXPECT_EQ(docs[0].find("cycles")->intValue(),
              docs[3].find("cycles")->intValue());
    EXPECT_EQ(docs[0].find("source")->stringValue(), "compiled");
    EXPECT_EQ(docs[3].find("source")->stringValue(), "compiled");
}

TEST(ServeBatch, OutputIsJobCountInvariant)
{
    Suite suite = quickSuite();
    std::string batch;
    for (const WorkloadLoop &wl : suite.loops) {
        batch += requestLineOf(suite, wl, Technique::Selective) + "\n";
        batch += requestLineOf(suite, wl, Technique::ModuloOnly) + "\n";
    }

    std::stringstream in1(batch), out1;
    ServeOptions serial;
    serial.jobs = 1;
    serveBatch(in1, out1, serial);

    std::stringstream in8(batch), out8;
    ServeOptions parallel;
    parallel.jobs = 8;
    serveBatch(in8, out8, parallel);

    EXPECT_EQ(out1.str(), out8.str());
}

TEST(ServeBatch, RepeatedRequestCompilesOnce)
{
    Suite suite = quickSuite();
    const WorkloadLoop &wl = suite.loops.front();
    std::string sel = requestLineOf(suite, wl, Technique::Selective);
    std::string mod = requestLineOf(suite, wl, Technique::ModuloOnly);
    std::stringstream in(sel + "\n" + sel + "\n" + mod + "\n" + sel +
                         "\n");

    // Workers report into the process registry (no sink installed).
    StatsRegistry &stats = processStats();
    int64_t compiles0 = stats.value("driver.compiles");
    int64_t deduped0 = stats.value("serve.deduped");
    std::stringstream out;
    ServeOptions options;
    options.jobs = 4;
    ServeSummary summary = serveBatch(in, out, options);

    // Two distinct keys, two compiles; the two repeats follow.
    EXPECT_EQ(summary.ok, 4);
    EXPECT_EQ(summary.deduped, 2);
    EXPECT_EQ(stats.value("driver.compiles") - compiles0, 2);
    EXPECT_EQ(stats.value("serve.deduped") - deduped0, 2);

    std::vector<JsonValue> docs = responsesOf(out.str());
    ASSERT_EQ(docs.size(), 4u);
    for (size_t follower : {size_t{1}, size_t{3}}) {
        EXPECT_EQ(docs[follower].find("cycles")->intValue(),
                  docs[0].find("cycles")->intValue());
        EXPECT_EQ(docs[follower].find("ii_per_iteration")->dump(),
                  docs[0].find("ii_per_iteration")->dump());
    }

    // A follower's cycles are what a batch of its own would compute.
    std::stringstream alone_in(sel + "\n"), alone_out;
    serveBatch(alone_in, alone_out, options);
    std::vector<JsonValue> alone = responsesOf(alone_out.str());
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(alone[0].find("cycles")->intValue(),
              docs[3].find("cycles")->intValue());
}

TEST(ServeBatch, OutOfExtentRequestIsAnErrorResponse)
{
    Suite suite = quickSuite();
    const WorkloadLoop &wl = suite.loops.front();
    std::string line = requestLineOf(suite, wl, Technique::Selective);
    Expected<JsonValue> far = parseJson(line);
    ASSERT_TRUE(far.ok());
    // Its references run far past the suite's array extents.
    far.value().set("trip_count", JsonValue(int64_t{100000}));

    std::stringstream in(line + "\n" + far.value().dump(0) + "\n" +
                         line + "\n");
    std::stringstream out;
    ServeOptions options;
    options.jobs = 4;
    ServeSummary summary = serveBatch(in, out, options);
    EXPECT_EQ(summary.ok, 2);
    EXPECT_EQ(summary.failed, 1);

    std::vector<JsonValue> docs = responsesOf(out.str());
    ASSERT_EQ(docs.size(), 3u);
    EXPECT_TRUE(docs[0].find("ok")->boolValue());
    EXPECT_TRUE(docs[2].find("ok")->boolValue());
    EXPECT_EQ(docs[0].find("cycles")->intValue(),
              docs[2].find("cycles")->intValue());
    EXPECT_FALSE(docs[1].find("ok")->boolValue());
    const JsonValue *status = docs[1].find("status");
    ASSERT_NE(status, nullptr);
    EXPECT_EQ(status->find("code")->stringValue(), "invalid-input");
    EXPECT_EQ(status->find("stage")->stringValue(), "sim");
    EXPECT_NE(status->find("message")->stringValue().find(
                  "out of extent"),
              std::string::npos)
        << docs[1].dump();
}

// ---------------------------------------------------------------------
// Command lines.

TEST(ServeCliParse, AcceptsBothFlagSpellings)
{
    Expected<ServeCliConfig> cfg = parseServeArgs(
        {"in.jsonl", "--jobs", "4", "--output=out.jsonl"});
    ASSERT_TRUE(cfg.ok()) << cfg.status().str();
    EXPECT_EQ(cfg.value().inputPath, "in.jsonl");
    EXPECT_EQ(cfg.value().outputPath, "out.jsonl");
    EXPECT_EQ(cfg.value().jobs, 4);

    cfg = parseServeArgs({"--jobs=2", "--output", "o.jsonl"});
    ASSERT_TRUE(cfg.ok()) << cfg.status().str();
    EXPECT_EQ(cfg.value().jobs, 2);
    EXPECT_EQ(cfg.value().outputPath, "o.jsonl");
}

TEST(ServeCliParse, RejectsBadNumericValues)
{
    // Each of these std::atoi silently parsed as 0 before — a batch
    // that "worked" with the wrong parallelism.
    for (const char *bad : {"abc", "-1", "3x", "", " 4", "4.5"}) {
        Expected<ServeCliConfig> cfg =
            parseServeArgs({"--jobs", bad});
        EXPECT_FALSE(cfg.ok()) << "accepted --jobs " << bad;
        if (!cfg.ok()) {
            EXPECT_EQ(cfg.status().code(), ErrorCode::InvalidInput);
        }
        cfg = parseServeArgs({std::string("--jobs=") + bad});
        EXPECT_FALSE(cfg.ok()) << "accepted --jobs=" << bad;
    }
    // A bare trailing value flag is a missing value, not jobs=0.
    EXPECT_FALSE(parseServeArgs({"--jobs"}).ok());
}

TEST(ServeCliParse, RejectsUnknownFlagsAndExtraPositionals)
{
    EXPECT_FALSE(parseServeArgs({"--frobnicate"}).ok());
    EXPECT_FALSE(parseServeArgs({"a.jsonl", "b.jsonl"}).ok());
}

/** Run `command` with stdin closed; its exit code and stderr. */
int
runCommand(const std::string &command, std::string *output)
{
    FILE *pipe = popen((command + " 2>&1 </dev/null").c_str(), "r");
    if (pipe == nullptr)
        return -1;
    char buf[256];
    while (fgets(buf, sizeof buf, pipe) != nullptr)
        *output += buf;
    int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(RemovedCacheFlags, ExitWithUsage)
{
    // The compile caches and their flags are gone: asking for one is
    // a usage error, never a silently different run.
    for (const char *binary : {SELVEC_SERVE_BIN, SELVEC_BENCH_BIN}) {
        for (const char *flags :
             {"--no-cache", "--cache-dir dir", "--cache-dir=dir",
              "--cache-max-mb 64"}) {
            std::string output;
            int code = runCommand(std::string(binary) + " " + flags,
                                  &output);
            EXPECT_EQ(code, 2) << binary << " " << flags;
            EXPECT_NE(output.find("usage"), std::string::npos)
                << binary << " " << flags << ": " << output;
        }
    }
}

} // anonymous namespace
} // namespace selvec
