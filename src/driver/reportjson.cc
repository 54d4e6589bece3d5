#include "driver/reportjson.hh"

#include <cstdlib>

#include "support/stats.hh"
#include "support/trace.hh"

namespace selvec
{

const char *const kBenchSchema = "selvec-bench-v1";

JsonValue
jsonOfLoopReport(const LoopReport &lr)
{
    JsonValue obj = JsonValue::object();
    obj.set("name", lr.name);
    obj.set("technique", techniqueName(lr.technique));
    obj.set("trip_count", lr.tripCount);
    obj.set("invocations", lr.invocations);
    obj.set("ii_per_iter", lr.iiPerIter);
    obj.set("res_mii_per_iter", lr.resMiiPerIter);
    obj.set("rec_mii_per_iter", lr.recMiiPerIter);
    obj.set("cycles_per_invocation", lr.cyclesPerInvocation);
    obj.set("weighted_cycles", lr.weightedCycles);
    obj.set("resource_limited", lr.resourceLimited);
    obj.set("distributed_loops", lr.distributedLoops);
    if (lr.technique == Technique::Selective) {
        JsonValue part = JsonValue::object();
        int vector_ops = 0;
        for (bool b : lr.partition.vectorize)
            vector_ops += b ? 1 : 0;
        part.set("vector_ops", vector_ops);
        part.set("total_ops",
                 static_cast<int64_t>(lr.partition.vectorize.size()));
        part.set("best_cost", lr.partition.bestCost);
        part.set("all_scalar_cost", lr.partition.allScalarCost);
        part.set("all_vector_cost", lr.partition.allVectorCost);
        part.set("iterations", lr.partition.iterations);
        part.set("moves_evaluated", lr.partition.movesEvaluated);
        part.set("moves_committed", lr.partition.movesCommitted);
        part.set("crossing_values", lr.partition.crossingValues);
        // The exact-oracle detail appears only when the oracle ran
        // (strategy exact/auto), so default KL documents stay
        // byte-identical to pre-oracle ones.
        if (lr.partition.exactUsed) {
            JsonValue exact = JsonValue::object();
            exact.set("proven", lr.partition.exactProven);
            exact.set("nodes", lr.partition.exactNodes);
            exact.set("pruned", lr.partition.exactPruned);
            exact.set("kl_cost", lr.partition.klCost);
            exact.set("gap", lr.partition.exactGap);
            part.set("exact", std::move(exact));
        }
        obj.set("partition", std::move(part));
    }
    return obj;
}

namespace
{

/** Whether wall-clock values may enter documents (SELVEC_TIMINGS).
 *  Default off: timings vary run to run and would break the
 *  documented byte-identity of --jobs 1 vs --jobs N documents. */
bool
includeTimings()
{
    const char *timings = std::getenv("SELVEC_TIMINGS");
    return timings != nullptr && std::string(timings) != "0" &&
           std::string(timings) != "";
}

} // anonymous namespace

JsonValue
jsonOfLoopFailure(const LoopFailure &failure)
{
    JsonValue obj = JsonValue::object();
    obj.set("name", failure.name);
    obj.set("technique", techniqueName(failure.technique));
    obj.set("error_code", errorCodeName(failure.status.code()));
    obj.set("stage", failure.status.stage());
    obj.set("message", failure.status.message());
    obj.set("elapsed_ms",
            includeTimings() ? failure.elapsedNs / 1000000
                             : static_cast<int64_t>(0));
    if (failure.hasAudit)
        obj.set("audit", jsonOfCompileReport(failure.audit));
    return obj;
}

JsonValue
jsonOfSuiteReport(const SuiteReport &sr)
{
    JsonValue obj = JsonValue::object();
    obj.set("suite", sr.suite);
    obj.set("technique", techniqueName(sr.technique));
    obj.set("total_cycles", sr.totalCycles);
    JsonValue loops = JsonValue::array();
    for (const LoopReport &lr : sr.loops)
        loops.append(jsonOfLoopReport(lr));
    obj.set("loops", std::move(loops));
    // Quarantined loops. The key appears only when a failure exists,
    // so clean documents stay byte-identical to pre-quarantine ones.
    if (!sr.failures.empty()) {
        JsonValue failures = JsonValue::array();
        for (const LoopFailure &failure : sr.failures)
            failures.append(jsonOfLoopFailure(failure));
        obj.set("failures", std::move(failures));
    }
    return obj;
}

JsonValue
jsonOfSuiteComparison(const SuiteReport &baseline,
                      const std::vector<SuiteReport> &techniques)
{
    JsonValue obj = JsonValue::object();
    obj.set("suite", baseline.suite);
    obj.set("baseline", jsonOfSuiteReport(baseline));

    JsonValue list = JsonValue::array();
    for (const SuiteReport &sr : techniques) {
        JsonValue entry = jsonOfSuiteReport(sr);
        entry.set("speedup", speedupOver(baseline, sr));
        // Per-loop speedups: suites evaluate the same kernels in the
        // same order under every technique.
        JsonValue loops = JsonValue::array();
        for (size_t i = 0; i < sr.loops.size(); ++i) {
            JsonValue lr = jsonOfLoopReport(sr.loops[i]);
            if (i < baseline.loops.size() &&
                sr.loops[i].weightedCycles > 0) {
                lr.set("speedup",
                       static_cast<double>(
                           baseline.loops[i].weightedCycles) /
                           static_cast<double>(
                               sr.loops[i].weightedCycles));
            }
            loops.append(std::move(lr));
        }
        entry.set("loops", std::move(loops));
        list.append(std::move(entry));
    }
    obj.set("techniques", std::move(list));
    return obj;
}

JsonValue
jsonOfCompiledProgram(const CompiledProgram &program)
{
    JsonValue obj = JsonValue::object();
    obj.set("technique", techniqueName(program.technique));
    obj.set("ii_per_iter", program.iiPerIteration());
    obj.set("res_mii_per_iter", program.resMiiPerIteration());
    obj.set("rec_mii_per_iter", program.recMiiPerIteration());
    obj.set("resource_limited", program.resourceLimited);
    JsonValue loops = JsonValue::array();
    for (const CompiledLoop &cl : program.loops) {
        JsonValue entry = JsonValue::object();
        entry.set("name", cl.main.name);
        entry.set("ii", cl.mainSchedule.ii);
        entry.set("res_mii", cl.mainResMii);
        entry.set("rec_mii", cl.mainRecMii);
        entry.set("coverage", cl.coverage);
        entry.set("stages", cl.mainSchedule.stageCount());
        loops.append(std::move(entry));
    }
    obj.set("loops", std::move(loops));
    return obj;
}

JsonValue
jsonOfCompileReport(const CompileReport &report)
{
    JsonValue obj = JsonValue::object();
    obj.set("requested", techniqueName(report.requested));
    obj.set("succeeded", report.succeeded);
    obj.set("degraded", report.degraded());
    obj.set("final_technique",
            report.usedScalarFallback
                ? "scalar"
                : techniqueName(report.finalTechnique));
    obj.set("scalar_fallback", report.usedScalarFallback);
    if (!report.finalStatus.ok())
        obj.set("final_status", report.finalStatus.str());

    JsonValue attempts = JsonValue::array();
    for (const CompileAttempt &a : report.attempts) {
        JsonValue entry = JsonValue::object();
        entry.set("tier", a.scalarFallback
                              ? "scalar"
                              : techniqueName(a.technique));
        entry.set("ok", a.status.ok());
        if (!a.status.ok()) {
            entry.set("error_code", errorCodeName(a.status.code()));
            entry.set("stage", a.status.stage());
            entry.set("message", a.status.message());
        } else {
            entry.set("ii_per_iter", a.iiPerIteration);
        }
        if (!a.fallbackReason.empty())
            entry.set("fallback_reason", a.fallbackReason);
        attempts.append(std::move(entry));
    }
    obj.set("attempts", std::move(attempts));
    return obj;
}

JsonValue
benchDocument(const std::string &generator, const std::string &mode)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", kBenchSchema);
    doc.set("generator", generator);
    doc.set("mode", mode);
    doc.set("suites", JsonValue::array());
    return doc;
}

void
attachObservability(JsonValue &doc)
{
    // Wall-clock timer totals vary run to run and would break the
    // documented byte-identity of --jobs 1 vs --jobs N documents;
    // they are zeroed (sample counts stay) unless explicitly asked
    // for. The trace tree is emitted in sorted sibling order for the
    // same reason.
    doc.set("stats", globalStats().toJson(includeTimings()));
    doc.set("trace", traceToJson());
}

} // namespace selvec
