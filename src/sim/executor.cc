#include "sim/executor.hh"

#include <algorithm>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <unordered_map>

#include "sim/execplan.hh"
#include "sim/semantics.hh"
#include "support/checkmode.hh"
#include "support/deadline.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace selvec
{

namespace
{

/** Internal unwind of a bounded run; caught by tryExecuteLoop. */
struct ExecAbort
{
    Status status;
};

/**
 * State and behaviour shared by both engines: global (pre-run) value
 * bindings, the epilogue that assembles a RunOutput, and the helpers
 * both need. Subclasses provide readValue() — how body values are
 * stored differs (per-iteration envs vs rotating ring frames), and the
 * epilogue reads through it.
 */
class EngineBase
{
  public:
    EngineBase(const ArrayTable &arrays, const Loop &loop,
               const Machine &machine, MemoryImage &mem,
               const LiveEnv &live_ins, int64_t n_body, int64_t base,
               const ModuloSchedule *schedule,
               const ExecLimits &limits)
        : arrays(arrays), loop(loop), machine(machine), mem(mem),
          nBody(n_body), base(base), schedule(schedule),
          limits(limits),
          globals(static_cast<size_t>(loop.numValues())),
          hasGlobal(static_cast<size_t>(loop.numValues()), false)
    {
        static_cast<void>(arrays);
        bindLiveIns(live_ins);
        runPreloads();
        runSplats();
        runReduceInits();
    }

    virtual ~EngineBase() = default;

  protected:
    /**
     * Value of `v` as read during body iteration j. j == nBody is
     * allowed for carried-in values (the continuation reading).
     */
    virtual RtVal readValue(int64_t j, ValueId v) = 0;

    const char *
    vname(ValueId v) const
    {
        return loop.valueInfo(v).name.c_str();
    }

    /** Source-space iteration index of an op instance. */
    int64_t
    origOf(int64_t j, OpId id) const
    {
        return j * loop.coverage + loop.op(id).replica;
    }

    /** Issue-to-completion span of one overlapped body. */
    int64_t
    completionSpan() const
    {
        int64_t span = 0;
        for (OpId op = 0; op < loop.numOps(); ++op) {
            span = std::max(span,
                            schedule->time[static_cast<size_t>(op)] +
                                machine.latency(loop.op(op).opcode));
        }
        return span;
    }

    /**
     * Cycle watchdog bound of a pipelined run (0: none). The expected
     * completion comes from the schedule itself, so a valid schedule
     * cannot trip the derived bound — it contains mis-scheduled
     * pipelines whose event cycles run away, and the explicit
     * maxCycles ceiling covers genuine-trip tests and replays. Both
     * engines share it, including the injected-fault probe, so their
     * failure behavior is bit-for-bit the same.
     */
    int64_t
    watchdogBound(int64_t expected) const
    {
        int64_t max_cycles = limits.maxCycles;
        if (max_cycles <= 0 && limits.watchdogFactor > 0) {
            max_cycles = limits.watchdogFactor *
                         std::max<int64_t>(1, expected);
        }
        if (max_cycles > 0 && faultPointHit("sim.watchdog")) {
            throw ExecAbort{Status::error(
                ErrorCode::WatchdogTripped, "sim",
                strfmt("fault injected at sim.watchdog: pipelined "
                       "run of loop '%s' forced past its cycle "
                       "bound of %lld",
                       loop.name.c_str(),
                       static_cast<long long>(max_cycles)))};
        }
        return max_cycles;
    }

    /** Abort a run whose event at `cycle` is due past `max_cycles`. */
    [[noreturn]] void
    watchdogTrip(int64_t cycle, int64_t max_cycles) const
    {
        throw ExecAbort{Status::error(
            ErrorCode::WatchdogTripped, "sim",
            strfmt("loop '%s': event due at cycle %lld exceeds the "
                   "watchdog bound of %lld (%lld body iterations at "
                   "II %lld)",
                   loop.name.c_str(), static_cast<long long>(cycle),
                   static_cast<long long>(max_cycles),
                   static_cast<long long>(nBody),
                   static_cast<long long>(schedule->ii)))};
    }

    /**
     * Poll the ambient deadline once every 1024 op instances (not per
     * body iteration: wide bodies would pay a clock read per handful
     * of ops, and the cost would scale with the body, not with wall
     * time).
     */
    void
    pollDeadline(size_t &processed) const
    {
        if ((processed++ & 1023) == 0 && deadlineArmed()) {
            Status trip = checkDeadline("sim");
            if (!trip)
                throw ExecAbort{trip};
        }
    }

    /** Assemble the run's observable outputs; shared verbatim by both
     *  engines so they cannot diverge on epilogue semantics. */
    RunOutput
    buildOutput(int64_t cycles)
    {
        RunOutput out;
        out.bodyIterations = nBody;
        out.cycles = cycles;
        out.dynOps = dynOps;

        // Early exit: observable state comes from the exiting
        // iteration's replica, not the body's last replica.
        if (exitOrig != INT64_MAX) {
            out.exited = true;
            out.exitOrig = exitOrig;
            int64_t body = exitOrig / loop.coverage;
            int replica =
                static_cast<int>(exitOrig % loop.coverage);
            if (schedule != nullptr) {
                // The pipeline drains after the exiting body.
                out.cycles =
                    body * schedule->ii + completionSpan();
            }
            if (loop.coverage == 1) {
                for (size_t c = 0; c < loop.carried.size(); ++c) {
                    const CarriedValue &cv = loop.carried[c];
                    out.carriedFinal[loop.valueInfo(cv.in).name] =
                        readValue(body + 1, cv.in);
                }
                for (ValueId v : loop.liveOuts) {
                    out.liveOuts[loop.valueInfo(v).name] =
                        readValue(body, v);
                }
            } else {
                SV_ASSERT(loop.liveOutLanes.size() ==
                                  loop.liveOuts.size() &&
                              loop.carriedUpdateLanes.size() ==
                                  loop.carried.size(),
                          "covered early-exit loop '%s' lacks lane "
                          "tables", loop.name.c_str());
                for (size_t c = 0; c < loop.carried.size(); ++c) {
                    ValueId lane =
                        loop.carriedUpdateLanes[c]
                                               [static_cast<size_t>(
                                                   replica)];
                    out.carriedFinal[loop.valueInfo(
                        loop.carried[c].in).name] =
                        readValue(body, lane);
                }
                for (size_t i = 0; i < loop.liveOuts.size(); ++i) {
                    ValueId lane =
                        loop.liveOutLanes[i][static_cast<size_t>(
                            replica)];
                    out.liveOuts[loop.valueInfo(loop.liveOuts[i])
                                     .name] = readValue(body, lane);
                }
            }
            return out;
        }

        // Continuation state for every carried value.
        for (const CarriedValue &cv : loop.carried) {
            out.carriedFinal[loop.valueInfo(cv.in).name] =
                readValue(nBody, cv.in);
        }

        // Post-loop reduction folds: combine the accumulator lanes
        // left to right with the scalar semantics of the opcode. The
        // fold also provides continuation state under its own name.
        for (const PostReduce &pr : loop.postReduces) {
            RtVal acc = finalAccumulator(pr.srcVec);
            RtVal folded = foldLanes(pr.op, acc);
            ValueId chain = pr.chainIn != kNoValue ? pr.chainIn
                                                   : pr.dest;
            out.carriedFinal[loop.valueInfo(chain).name] = folded;
            setGlobal(pr.dest, std::move(folded));
        }

        // Draining poststores (final partial chunks of misaligned
        // vector stores).
        if (nBody > 0) {
            for (const PostStore &ps : loop.poststores) {
                RtVal v = readValue(nBody - 1, ps.src);
                int64_t idx = ps.ref.elementAt(base + nBody);
                int lane = ps.lane;
                SV_ASSERT(lane >= 0 && lane < std::max(v.lanes(), 1),
                          "poststore lane %d out of range", lane);
                if (v.floatData)
                    mem.storeF(ps.ref.array, idx, v.laneF(lane));
                else
                    mem.storeI(ps.ref.array, idx, v.laneI(lane));
            }
        }

        for (ValueId v : loop.liveOuts) {
            const std::string &name = loop.valueInfo(v).name;
            if (nBody > 0) {
                out.liveOuts[name] = readValue(nBody - 1, v);
            } else if (hasGlobal[static_cast<size_t>(v)]) {
                out.liveOuts[name] = globals[static_cast<size_t>(v)];
            } else if (loop.carriedIndexOfIn(v) >= 0) {
                out.liveOuts[name] = readValue(0, v);
            }
            // Body-defined live-outs are undefined after zero
            // iterations and intentionally absent.
        }
        return out;
    }

    void
    bindLiveIns(const LiveEnv &live_ins)
    {
        for (ValueId v : loop.liveIns) {
            const std::string &name = loop.valueInfo(v).name;
            auto it = live_ins.find(name);
            if (it != live_ins.end()) {
                setGlobal(v, it->second);
                continue;
            }
            if (name.rfind("__", 0) == 0) {
                // Lowering-internal values default to zero.
                Type t = loop.typeOf(v);
                setGlobal(v, t == Type::F64 ? RtVal::scalarF(0.0)
                                            : RtVal::scalarI(0));
                continue;
            }
            // Callers must bind every live-in (tryRunCompiled /
            // tryRunReference check first); reaching here is a
            // precondition violation.
            SV_PANIC("loop '%s': live-in '%s' unbound",
                     loop.name.c_str(), name.c_str());
        }
    }

    void
    runPreloads()
    {
        for (const PreLoad &pl : loop.preloads) {
            Operation ld;
            ld.opcode = pl.vector ? Opcode::VLoad : Opcode::Load;
            ld.ref = pl.ref;
            RtVal v = evalOp(ld, {}, base, machine.vectorLength, mem);
            setGlobal(pl.dest, std::move(v));
        }
    }

    void
    runSplats()
    {
        for (const SplatIn &si : loop.splatIns) {
            SV_ASSERT(hasGlobal[static_cast<size_t>(si.scalar)],
                      "splat of unbound live-in");
            const RtVal &s = globals[static_cast<size_t>(si.scalar)];
            int vl = machine.vectorLength;
            RtVal v;
            if (s.floatData) {
                v = RtVal::vectorF(std::vector<double>(
                    static_cast<size_t>(vl), s.laneF(0)));
            } else {
                v = RtVal::vectorI(std::vector<int64_t>(
                    static_cast<size_t>(vl), s.laneI(0)));
            }
            setGlobal(si.vec, std::move(v));
        }
    }

    /** Identity element of an associative reduction opcode. */
    static RtVal
    identityOf(Opcode op, bool float_data)
    {
        switch (op) {
          case Opcode::FAdd: return RtVal::scalarF(0.0);
          case Opcode::FMul: return RtVal::scalarF(1.0);
          case Opcode::FMin:
            return RtVal::scalarF(
                std::numeric_limits<double>::infinity());
          case Opcode::FMax:
            return RtVal::scalarF(
                -std::numeric_limits<double>::infinity());
          case Opcode::IAdd: return RtVal::scalarI(0);
          case Opcode::IMul: return RtVal::scalarI(1);
          case Opcode::IMin: return RtVal::scalarI(INT64_MAX);
          case Opcode::IMax: return RtVal::scalarI(INT64_MIN);
          default:
            SV_PANIC("no identity for %s (float=%d)", opName(op),
                     static_cast<int>(float_data));
        }
    }

    void
    runReduceInits()
    {
        for (const ReduceInit &ri : loop.reduceInits) {
            SV_ASSERT(hasGlobal[static_cast<size_t>(ri.scalar)],
                      "reduce-init of unbound live-in");
            const RtVal &s = globals[static_cast<size_t>(ri.scalar)];
            RtVal ident = identityOf(ri.op, s.floatData);
            int vl = machine.vectorLength;
            RtVal v;
            if (s.floatData) {
                std::vector<double> lanes(static_cast<size_t>(vl),
                                          ident.laneF(0));
                lanes[0] = s.laneF(0);
                v = RtVal::vectorF(std::move(lanes));
            } else {
                std::vector<int64_t> lanes(static_cast<size_t>(vl),
                                           ident.laneI(0));
                lanes[0] = s.laneI(0);
                v = RtVal::vectorI(std::move(lanes));
            }
            setGlobal(ri.vec, std::move(v));
        }
    }

    /** Last value of a reduction accumulator (its carried record's
     *  continuation reading, so zero-iteration runs fold the init). */
    RtVal
    finalAccumulator(ValueId src_vec)
    {
        for (const CarriedValue &cv : loop.carried) {
            if (cv.update == src_vec)
                return readValue(nBody, cv.in);
        }
        SV_ASSERT(nBody > 0, "post-reduce of a non-carried vector "
                  "after zero iterations");
        return readValue(nBody - 1, src_vec);
    }

    RtVal
    foldLanes(Opcode op, const RtVal &acc)
    {
        Operation fold;
        fold.opcode = op;
        fold.srcs = {0, 1};
        RtVal result = acc.floatData ? RtVal::scalarF(acc.laneF(0))
                                     : RtVal::scalarI(acc.laneI(0));
        for (int l = 1; l < acc.lanes(); ++l) {
            RtVal lane = acc.floatData ? RtVal::scalarF(acc.laneF(l))
                                       : RtVal::scalarI(acc.laneI(l));
            result = evalOp(fold, {result, lane}, 0,
                            machine.vectorLength, mem);
        }
        return result;
    }

    void
    setGlobal(ValueId v, RtVal val)
    {
        globals[static_cast<size_t>(v)] = std::move(val);
        hasGlobal[static_cast<size_t>(v)] = true;
    }

    const ArrayTable &arrays;
    const Loop &loop;
    const Machine &machine;
    MemoryImage &mem;
    int64_t nBody;
    int64_t base;
    const ModuloSchedule *schedule;
    const ExecLimits &limits;

    std::vector<RtVal> globals;
    std::vector<bool> hasGlobal;
    int64_t exitOrig = INT64_MAX;
    std::array<int64_t, kNumOpClasses> dynOps{};
};

/**
 * The dense reference engine: materializes the full event list (or
 * runs iterations in program order in sequential mode) with
 * per-iteration value environments. O(n_body * ops) time and memory.
 * Kept as the correctness oracle for the streaming engine — both as
 * tryExecuteLoopDense for differential tests and as the per-instance
 * lockstep shadow behind SELVEC_CHECK_SIM (the public instance-level
 * methods exist for the shadow).
 */
class DenseEngine : public EngineBase
{
  public:
    DenseEngine(const ArrayTable &arrays, const Loop &loop,
                const Machine &machine, MemoryImage &mem,
                const LiveEnv &live_ins, int64_t n_body, int64_t base,
                const ModuloSchedule *schedule,
                const ExecLimits &limits)
        : EngineBase(arrays, loop, machine, mem, live_ins, n_body,
                     base, schedule, limits)
    {
    }

    RunOutput
    run()
    {
        prepare();
        int64_t cycles = 0;
        if (schedule != nullptr)
            cycles = runPipelined();
        else
            runSequential();
        return buildOutput(cycles);
    }

    // --- instance-level interface for the SELVEC_CHECK_SIM shadow ---

    /** Reset per-run state; the shadow calls this once, then feeds
     *  instances through execInstance in global schedule order. */
    void
    prepare()
    {
        envs.assign(static_cast<size_t>(nBody),
                    std::unordered_map<ValueId, RtVal>());
        dynOps.fill(0);
    }

    void
    execInstance(int64_t j, OpId id, int64_t cycle)
    {
        executeOp(j, id, cycle);
    }

    RtVal
    readValueAt(int64_t j, ValueId v)
    {
        return readValue(j, v);
    }

    int64_t
    readyTimeAt(int64_t j, ValueId v)
    {
        return readyTime(j, v);
    }

    int64_t
    exitOrigNow() const
    {
        return exitOrig;
    }

    const RtVal &
    envValue(int64_t j, ValueId v)
    {
        auto &env = envs[static_cast<size_t>(j)];
        auto it = env.find(v);
        SV_ASSERT(it != env.end(),
                  "SELVEC_CHECK_SIM: dense shadow has no result for "
                  "'%s' of iteration %lld", vname(v),
                  static_cast<long long>(j));
        return it->second;
    }

    RunOutput
    finishShadow(int64_t cycles)
    {
        return buildOutput(cycles);
    }

  protected:
    RtVal
    readValue(int64_t j, ValueId v) override
    {
        if (hasGlobal[static_cast<size_t>(v)])
            return globals[static_cast<size_t>(v)];

        int ci = loop.carriedIndexOfIn(v);
        if (ci >= 0) {
            const CarriedValue &cv =
                loop.carried[static_cast<size_t>(ci)];
            if (j == 0) {
                SV_ASSERT(hasGlobal[static_cast<size_t>(cv.init)],
                          "carried init '%s' unbound",
                          vname(cv.init));
                return globals[static_cast<size_t>(cv.init)];
            }
            return readValue(j - 1, cv.update);
        }

        SV_ASSERT(j >= 0 && j < nBody, "reading body value '%s' at "
                  "iteration %lld", vname(v),
                  static_cast<long long>(j));
        auto &env = envs[static_cast<size_t>(j)];
        auto it = env.find(v);
        SV_ASSERT(it != env.end(),
                  "iteration %lld reads '%s' before it is produced",
                  static_cast<long long>(j), vname(v));
        return it->second;
    }

  private:
    /**
     * Execute one op instance. In pipelined mode `cycle` is the issue
     * cycle: every register operand's producer must have COMPLETED
     * (issue + latency <= cycle) — the executor checks latencies
     * independently of the schedule checker. Sequential mode passes
     * cycle = -1 (no timing).
     *
     * Early exits: an ExitIf whose condition is nonzero records the
     * earliest exiting iteration; stores of later iterations are
     * suppressed (the dependence edges guarantee the deciding exits
     * have resolved before any suppressible store issues).
     */
    void
    executeOp(int64_t j, OpId id, int64_t cycle)
    {
        const Operation &op = loop.op(id);
        if (op.isStore() && origOf(j, id) > exitOrig)
            return;   // speculative store past the exit
        std::vector<RtVal> operands;
        operands.reserve(op.srcs.size());
        for (ValueId s : op.srcs) {
            if (s == kNoValue) {
                operands.push_back(RtVal{});
                continue;
            }
            if (cycle >= 0) {
                int64_t ready = readyTime(j, s);
                SV_ASSERT(ready <= cycle,
                          "op #%d of iteration %lld reads '%s' at "
                          "cycle %lld but it completes at %lld",
                          id, static_cast<long long>(j),
                          vname(s),
                          static_cast<long long>(cycle),
                          static_cast<long long>(ready));
            }
            operands.push_back(readValue(j, s));
        }
        ++dynOps[static_cast<size_t>(opClass(op.opcode))];
        if (op.opcode == Opcode::ExitIf) {
            if (operands[0].laneI(0) != 0)
                exitOrig = std::min(exitOrig, origOf(j, id));
            return;
        }
        RtVal result =
            evalOp(op, operands, base + j, machine.vectorLength, mem);
        if (op.dest != kNoValue)
            envs[static_cast<size_t>(j)][op.dest] = std::move(result);
    }

    /**
     * Completion cycle of the value read as `v` in iteration j
     * (pipelined mode). Externally defined values (live-ins, splats,
     * preloads, initial carried state) are ready before cycle 0.
     */
    int64_t
    readyTime(int64_t j, ValueId v)
    {
        if (hasGlobal[static_cast<size_t>(v)])
            return 0;
        int ci = loop.carriedIndexOfIn(v);
        if (ci >= 0) {
            if (j == 0)
                return 0;
            return readyTime(j - 1,
                             loop.carried[static_cast<size_t>(ci)]
                                 .update);
        }
        OpId def = defOf(v);
        SV_ASSERT(def != kNoOp, "ready time of undefined value");
        return j * schedule->ii +
               schedule->time[static_cast<size_t>(def)] +
               machine.latency(loop.op(def).opcode);
    }

    /** Cached defining op per value (kNoOp for external defs). */
    OpId
    defOf(ValueId v)
    {
        if (defCache.empty()) {
            defCache.assign(static_cast<size_t>(loop.numValues()),
                            kNoOp);
            for (OpId id = 0; id < loop.numOps(); ++id) {
                if (loop.op(id).dest != kNoValue)
                    defCache[static_cast<size_t>(loop.op(id).dest)] =
                        id;
            }
        }
        return defCache[static_cast<size_t>(v)];
    }

    void
    runSequential()
    {
        size_t processed = 0;
        for (int64_t j = 0; j < nBody; ++j) {
            for (OpId id = 0; id < loop.numOps(); ++id) {
                pollDeadline(processed);
                executeOp(j, id, -1);
            }
        }
    }

    int64_t
    runPipelined()
    {
        SV_ASSERT(static_cast<int>(schedule->time.size()) ==
                      loop.numOps(),
                  "schedule sized for a different loop");
        struct Event
        {
            int64_t cycle;
            int64_t j;
            OpId op;
        };
        // The event list is the dense engine's whole point and its
        // whole weakness: n_body * numOps entries. Refuse oversized
        // runs with a structured status instead of dying in the
        // allocator (the streaming engine handles them in O(1) space).
        const int64_t num_ops = loop.numOps();
        if (num_ops > 0 &&
            nBody > std::numeric_limits<int64_t>::max() / num_ops) {
            throw ExecAbort{Status::error(
                ErrorCode::InvalidInput, "sim",
                strfmt("loop '%s': %lld body iterations x %d "
                       "operations overflow the dense event list",
                       loop.name.c_str(),
                       static_cast<long long>(nBody),
                       static_cast<int>(num_ops)))};
        }
        std::vector<Event> events;
        try {
            events.reserve(
                static_cast<size_t>(nBody * num_ops));
            for (int64_t j = 0; j < nBody; ++j) {
                for (OpId id = 0; id < num_ops; ++id) {
                    events.push_back(Event{
                        j * schedule->ii +
                            schedule->time[static_cast<size_t>(id)],
                        j, id});
                }
            }
        } catch (const std::bad_alloc &) {
            throw ExecAbort{Status::error(
                ErrorCode::InvalidInput, "sim",
                strfmt("loop '%s': dense event list of %lld "
                       "instances exceeds available memory",
                       loop.name.c_str(),
                       static_cast<long long>(nBody * num_ops)))};
        } catch (const std::length_error &) {
            throw ExecAbort{Status::error(
                ErrorCode::InvalidInput, "sim",
                strfmt("loop '%s': dense event list of %lld "
                       "instances exceeds available memory",
                       loop.name.c_str(),
                       static_cast<long long>(nBody * num_ops)))};
        }
        std::sort(events.begin(), events.end(),
                  [](const Event &a, const Event &b) {
                      if (a.cycle != b.cycle)
                          return a.cycle < b.cycle;
                      if (a.j != b.j)
                          return a.j < b.j;
                      return a.op < b.op;
                  });

        int64_t max_cycles =
            watchdogBound(nBody * schedule->ii + completionSpan());
        int64_t completion = 0;
        size_t processed = 0;
        for (const Event &e : events) {
            if (max_cycles > 0 && e.cycle > max_cycles)
                watchdogTrip(e.cycle, max_cycles);
            pollDeadline(processed);
            executeOp(e.j, e.op, e.cycle);
            int64_t done =
                e.cycle + machine.latency(loop.op(e.op).opcode);
            completion = std::max(completion, done);
        }
        return completion;
    }

    std::vector<std::unordered_map<ValueId, RtVal>> envs;
    std::vector<OpId> defCache;
};

/**
 * The streaming pipelined engine (DESIGN.md §13).
 *
 * Replays the plan's per-II-slot issue template over a rotating
 * window of `plan.windowFrames` dense register frames: II block q
 * opens frame q (retiring frame q - W), then issues the template —
 * entry (slot, stage, op) is iteration j = q - stage at cycle
 * q*II + slot — which enumerates instances in exactly the dense
 * engine's (cycle, j, op) order. Operand reads, readiness checks and
 * result writes are all O(1) array accesses via the plan, and
 * evalOpInto reuses each ring slot's storage, so steady-state
 * execution allocates nothing and memory is O(windowFrames * values),
 * independent of the trip count.
 *
 * The epilogue needs reads the window no longer holds, all of a
 * restricted shape: carried-in continuations at iteration boundaries
 * and, after an early exit, values of the exiting body. Carried
 * boundary state sigma_b (what each carried-in reads at iteration b)
 * is advanced incrementally as frames retire; the exiting body's
 * frame and its adjacent sigmas are snapshotted at retirement. A
 * read a frame can no longer serve and no snapshot covers is an
 * internal invariant violation (SV_PANIC), not silent data.
 *
 * With SELVEC_CHECK_SIM on, a DenseEngine shadow executes every
 * instance in lockstep and the run dies on the first divergence in
 * suppression, operand values, readiness, exit state, results or
 * final outputs.
 */
class StreamEngine : public EngineBase
{
  public:
    StreamEngine(const ArrayTable &arrays, const Loop &loop,
                 const Machine &machine, MemoryImage &mem,
                 const LiveEnv &live_ins, int64_t n_body,
                 int64_t base, const ModuloSchedule *schedule,
                 const ExecLimits &limits, const ExecPlan &plan)
        : EngineBase(arrays, loop, machine, mem, live_ins, n_body,
                     base, schedule, limits),
          plan(plan), liveIns(live_ins),
          W(plan.windowFrames),
          numVals(static_cast<size_t>(plan.numValues))
    {
        SV_ASSERT(schedule != nullptr &&
                      plan.ii == schedule->ii &&
                      plan.numOps == loop.numOps() &&
                      plan.numValues == loop.numValues(),
                  "plan built for a different (loop, schedule)");
        ring.resize(static_cast<size_t>(W) * numVals);
        ringEpoch.assign(static_cast<size_t>(W) * numVals, -1);
        frameIter.assign(static_cast<size_t>(W), -1);
        size_t cap = static_cast<size_t>(std::max(plan.maxSrcs, 1));
        operandPtrs.resize(cap);
        readyScratch.assign(cap, 0);
        snapFrame.resize(numVals);
        snapDefined.assign(numVals, 0);
        // Ops whose dest is also a same-iteration frame operand
        // (non-SSA bodies): evalOpInto's no-alias precondition needs
        // a bounce through scratch.
        selfRead.assign(static_cast<size_t>(plan.numOps), 0);
        for (OpId id = 0; id < plan.numOps; ++id) {
            const PlanOp &pop = plan.ops[static_cast<size_t>(id)];
            if (pop.dest == kNoValue)
                continue;
            for (int32_t i = 0; i < pop.srcCount; ++i) {
                const PlanOperand &po =
                    plan.operands[static_cast<size_t>(pop.srcBegin +
                                                      i)];
                if (po.kind == PlanOperand::Kind::Frame &&
                    po.hops == 0 && po.value == pop.dest)
                    selfRead[static_cast<size_t>(id)] = 1;
            }
        }
    }

    RunOutput
    run()
    {
        if (checkSimEnabled()) {
            shadow.reset(new DenseEngine(arrays, loop, machine, mem,
                                         liveIns, nBody, base,
                                         schedule, limits));
            shadow->prepare();
        }
        dynOps.fill(0);
        initSigma();
        int64_t cycles = runStreaming();
        if (shadow)
            verifyPoststoreSources();
        RunOutput out = buildOutput(cycles);
        if (shadow)
            verifyFinal(cycles, out);
        return out;
    }

    int64_t
    instanceCount() const
    {
        return instances;
    }

    int64_t
    windowFrames() const
    {
        return W;
    }

  protected:
    /** Epilogue reads only: globals, carried boundary state, live
     *  window frames, and the exit snapshots. */
    RtVal
    readValue(int64_t j, ValueId v) override
    {
        if (hasGlobal[static_cast<size_t>(v)])
            return globals[static_cast<size_t>(v)];

        int ci = loop.carriedIndexOfIn(v);
        if (ci >= 0) {
            const CarriedValue &cv =
                loop.carried[static_cast<size_t>(ci)];
            if (j == 0) {
                SV_ASSERT(hasGlobal[static_cast<size_t>(cv.init)],
                          "carried init '%s' unbound",
                          vname(cv.init));
                return globals[static_cast<size_t>(cv.init)];
            }
            if (j == sigmaBoundary)
                return sigmaRead(sigmaCur[static_cast<size_t>(ci)]);
            if (havePrev && j == sigmaBoundary - 1)
                return sigmaRead(sigmaPrev[static_cast<size_t>(ci)]);
            if (snapSigmaValid && j == snapBody)
                return sigmaRead(snapSigma[static_cast<size_t>(ci)]);
            if (snapNextValid && j == snapBody + 1)
                return sigmaRead(
                    snapSigmaNext[static_cast<size_t>(ci)]);
            SV_PANIC("streaming executor: no boundary state for "
                     "carried '%s' at iteration %lld", vname(v),
                     static_cast<long long>(j));
        }

        SV_ASSERT(j >= 0 && j < nBody, "reading body value '%s' at "
                  "iteration %lld", vname(v),
                  static_cast<long long>(j));
        if (frameIter[static_cast<size_t>(j % W)] == j) {
            size_t idx = ringIndex(j, v);
            SV_ASSERT(ringEpoch[idx] == j,
                      "iteration %lld reads '%s' before it is "
                      "produced", static_cast<long long>(j),
                      vname(v));
            return ring[idx];
        }
        if (snapFrameValid && j == snapBody) {
            SV_ASSERT(snapDefined[static_cast<size_t>(v)] != 0,
                      "iteration %lld reads '%s' before it is "
                      "produced", static_cast<long long>(j),
                      vname(v));
            return snapFrame[static_cast<size_t>(v)];
        }
        SV_PANIC("streaming executor: frame %lld retired before a "
                 "read of '%s'", static_cast<long long>(j),
                 vname(v));
    }

  private:
    /** What one carried-in value reads at a completed iteration
     *  boundary. Unbound inits and never-produced updates are
     *  recorded, not fatal: the dense engine only dies when such a
     *  value is actually read, and the epilogue may never read it. */
    struct SigmaEntry
    {
        RtVal val;
        ValueId unboundInit = kNoValue;
        ValueId undefValue = kNoValue;
        int64_t undefIter = 0;
    };

    size_t
    ringIndex(int64_t f, ValueId v) const
    {
        return static_cast<size_t>(f % W) * numVals +
               static_cast<size_t>(v);
    }

    const RtVal &
    sigmaRead(const SigmaEntry &e) const
    {
        if (e.unboundInit != kNoValue)
            SV_PANIC("carried init '%s' unbound",
                     vname(e.unboundInit));
        if (e.undefValue != kNoValue)
            SV_PANIC("iteration %lld reads '%s' before it is "
                     "produced",
                     static_cast<long long>(e.undefIter),
                     vname(e.undefValue));
        return e.val;
    }

    /** sigma_0: every carried-in reads its init at iteration 0. */
    void
    initSigma()
    {
        size_t n = loop.carried.size();
        sigmaCur.resize(n);
        sigmaPrev.resize(n);
        sigmaScratch.resize(n);
        for (size_t c = 0; c < n; ++c) {
            SigmaEntry &e = sigmaCur[c];
            e.unboundInit = kNoValue;
            e.undefValue = kNoValue;
            ValueId init = loop.carried[c].init;
            if (hasGlobal[static_cast<size_t>(init)])
                e.val = globals[static_cast<size_t>(init)];
            else
                e.unboundInit = init;
        }
    }

    /** sigma_{f+1}[c] = readValue(f, update_c), resolved against
     *  frame f, sigma_f and the globals — no recursion. */
    void
    computeSigmaNext(int64_t f, ValueId u, SigmaEntry &e)
    {
        e.unboundInit = kNoValue;
        e.undefValue = kNoValue;
        if (hasGlobal[static_cast<size_t>(u)]) {
            e.val = globals[static_cast<size_t>(u)];
            return;
        }
        int ci = loop.carriedIndexOfIn(u);
        if (ci >= 0) {
            // readValue(f, in_ci) is by definition sigma_f[ci].
            e = sigmaCur[static_cast<size_t>(ci)];
            return;
        }
        size_t idx = ringIndex(f, u);
        if (frameIter[static_cast<size_t>(f % W)] == f &&
            ringEpoch[idx] == f) {
            e.val = ring[idx];
            return;
        }
        e.undefValue = u;
        e.undefIter = f;
    }

    /** Advance the carried boundary past frame f, capturing the
     *  exit-adjacent sigmas when f is the exiting body. */
    void
    advanceBoundary(int64_t f)
    {
        SV_ASSERT(sigmaBoundary == f,
                  "streaming executor: boundary %lld out of step "
                  "with frame %lld",
                  static_cast<long long>(sigmaBoundary),
                  static_cast<long long>(f));
        bool capture = exitOrig != INT64_MAX && f == snapBody;
        if (capture && !snapSigmaValid) {
            snapSigma = sigmaCur;
            snapSigmaValid = true;
        }
        for (size_t c = 0; c < loop.carried.size(); ++c)
            computeSigmaNext(f, loop.carried[c].update,
                             sigmaScratch[c]);
        std::swap(sigmaPrev, sigmaCur);
        std::swap(sigmaCur, sigmaScratch);
        havePrev = true;
        ++sigmaBoundary;
        if (capture && !snapNextValid) {
            snapSigmaNext = sigmaCur;
            snapNextValid = true;
        }
    }

    /** Copy the exiting body's frame before its slot is reused. */
    void
    snapshotFrame(int64_t f)
    {
        for (size_t v = 0; v < numVals; ++v) {
            size_t idx = static_cast<size_t>(f % W) * numVals + v;
            snapDefined[v] = ringEpoch[idx] == f ? 1 : 0;
            if (snapDefined[v] != 0)
                snapFrame[v] = ring[idx];
        }
        snapFrameValid = true;
    }

    void
    openFrame(int64_t q)
    {
        if (q >= W) {
            int64_t f = q - W;
            if (exitOrig != INT64_MAX && f == snapBody)
                snapshotFrame(f);
            advanceBoundary(f);
        }
        frameIter[static_cast<size_t>(q % W)] = q;
    }

    /** Advance sigma over the frames still live when issue ends. */
    void
    drain()
    {
        for (int64_t f = sigmaBoundary; f < nBody; ++f)
            advanceBoundary(f);
    }

    void
    noteExit(int64_t orig)
    {
        if (orig >= exitOrig)
            return;
        exitOrig = orig;
        int64_t b = orig / loop.coverage;
        if (b != snapBody) {
            // The deciding instance runs no later than block
            // b + maxStage and frame b retires at block b + W >
            // b + maxStage, so frame b and its sigmas are always
            // still ahead of us here.
            snapBody = b;
            snapSigmaValid = false;
            snapNextValid = false;
            snapFrameValid = false;
        }
    }

    /** Resolve one plan operand for iteration j: a pointer into the
     *  globals, the init pool's bindings, or the ring — no recursion,
     *  no copy. Mirrors the dense engine's readiness check. */
    const RtVal *
    resolveRead(const PlanOperand &po, int64_t j, OpId id,
                ValueId src, int64_t cycle, int64_t &ready)
    {
        ready = 0;
        switch (po.kind) {
          case PlanOperand::Kind::None:
            return &emptyVal;
          case PlanOperand::Kind::Global:
            if (j < po.hops)
                return &initValue(po, j);
            return &globals[static_cast<size_t>(po.value)];
          case PlanOperand::Kind::Cyclic: {
            int64_t idx = j < po.hops
                              ? j
                              : po.hops + (j - po.hops) % po.cycle;
            return &initValue(po, idx);
          }
          case PlanOperand::Kind::Frame: {
            if (j < po.hops)
                return &initValue(po, j);
            int64_t f = j - po.hops;
            SV_ASSERT(po.readyBase != INT64_MIN,
                      "ready time of undefined value");
            ready = f * plan.ii + po.readyBase;
            SV_ASSERT(ready <= cycle,
                      "op #%d of iteration %lld reads '%s' at "
                      "cycle %lld but it completes at %lld",
                      id, static_cast<long long>(j), vname(src),
                      static_cast<long long>(cycle),
                      static_cast<long long>(ready));
            size_t idx = ringIndex(f, po.value);
            SV_ASSERT(frameIter[static_cast<size_t>(f % W)] == f &&
                          ringEpoch[idx] == f,
                      "iteration %lld reads '%s' before it is "
                      "produced", static_cast<long long>(f),
                      vname(po.value));
            return &ring[idx];
          }
        }
        SV_PANIC("unreachable operand kind");
    }

    /** Init-pool binding for peel depth `idx` of a chain operand. */
    const RtVal &
    initValue(const PlanOperand &po, int64_t idx)
    {
        ValueId init = plan.initPool[static_cast<size_t>(
            po.initBegin + idx)];
        SV_ASSERT(hasGlobal[static_cast<size_t>(init)],
                  "carried init '%s' unbound", vname(init));
        return globals[static_cast<size_t>(init)];
    }

    void
    execInstance(int64_t j, OpId id, int64_t cycle)
    {
        const Operation &op = loop.op(id);
        const PlanOp &pop = plan.ops[static_cast<size_t>(id)];
        ++instances;
        bool suppressed =
            pop.isStore && origOf(j, id) > exitOrig;
        if (!suppressed) {
            for (int32_t i = 0; i < pop.srcCount; ++i) {
                const PlanOperand &po =
                    plan.operands[static_cast<size_t>(pop.srcBegin +
                                                      i)];
                operandPtrs[static_cast<size_t>(i)] =
                    resolveRead(po, j, id, op.srcs[static_cast<
                                    size_t>(i)],
                                cycle,
                                readyScratch[static_cast<size_t>(i)]);
            }
            ++dynOps[pop.opClassIdx];
            if (pop.isExitIf) {
                if (operandPtrs[0]->laneI(0) != 0)
                    noteExit(origOf(j, id));
            } else if (pop.dest == kNoValue) {
                evalOpInto(voidDest, op, operandPtrs.data(),
                           static_cast<size_t>(pop.srcCount),
                           base + j, machine.vectorLength, mem);
            } else {
                size_t idx = ringIndex(j, pop.dest);
                if (selfRead[static_cast<size_t>(id)] != 0) {
                    evalOpInto(voidDest, op, operandPtrs.data(),
                               static_cast<size_t>(pop.srcCount),
                               base + j, machine.vectorLength, mem);
                    ring[idx] = voidDest;
                } else {
                    evalOpInto(ring[idx], op, operandPtrs.data(),
                               static_cast<size_t>(pop.srcCount),
                               base + j, machine.vectorLength, mem);
                }
                ringEpoch[idx] = j;
            }
        }
        if (shadow)
            shadowCheck(j, id, cycle, suppressed, op, pop);
    }

    int64_t
    runStreaming()
    {
        int64_t max_cycles =
            watchdogBound(nBody * plan.ii + plan.completionSpan);
        int64_t completion = 0;
        size_t processed = 0;
        if (nBody > 0) {
            const int64_t q_max = nBody - 1 + plan.maxStage;
            for (int64_t q = 0; q <= q_max; ++q) {
                if (q < nBody)
                    openFrame(q);
                for (const PlanIssue &is : plan.issues) {
                    int64_t j = q - is.stage;
                    if (j < 0 || j >= nBody)
                        continue;
                    int64_t cycle = q * plan.ii + is.slot;
                    if (max_cycles > 0 && cycle > max_cycles)
                        watchdogTrip(cycle, max_cycles);
                    pollDeadline(processed);
                    execInstance(j, is.op, cycle);
                    int64_t done =
                        cycle +
                        plan.ops[static_cast<size_t>(is.op)].latency;
                    completion = std::max(completion, done);
                }
            }
        }
        drain();
        return completion;
    }

    // --- SELVEC_CHECK_SIM lockstep shadow ---

    void
    shadowCheck(int64_t j, OpId id, int64_t cycle, bool suppressed,
                const Operation &op, const PlanOp &pop)
    {
        bool shadow_sup = pop.isStore &&
                          origOf(j, id) > shadow->exitOrigNow();
        if (shadow_sup != suppressed) {
            SV_PANIC("SELVEC_CHECK_SIM: loop '%s' op #%d iteration "
                     "%lld: store suppression %d (streaming) vs %d "
                     "(dense)", loop.name.c_str(), id,
                     static_cast<long long>(j),
                     static_cast<int>(suppressed),
                     static_cast<int>(shadow_sup));
        }
        if (!suppressed) {
            for (int32_t i = 0; i < pop.srcCount; ++i) {
                ValueId s = op.srcs[static_cast<size_t>(i)];
                if (s == kNoValue)
                    continue;
                int64_t sready = shadow->readyTimeAt(j, s);
                if (sready != readyScratch[static_cast<size_t>(i)]) {
                    SV_PANIC("SELVEC_CHECK_SIM: loop '%s' op #%d "
                             "iteration %lld src '%s': ready %lld "
                             "(streaming) vs %lld (dense)",
                             loop.name.c_str(), id,
                             static_cast<long long>(j), vname(s),
                             static_cast<long long>(
                                 readyScratch[static_cast<size_t>(
                                     i)]),
                             static_cast<long long>(sready));
                }
                RtVal sval = shadow->readValueAt(j, s);
                if (!(sval ==
                      *operandPtrs[static_cast<size_t>(i)])) {
                    SV_PANIC("SELVEC_CHECK_SIM: loop '%s' op #%d "
                             "iteration %lld: operand '%s' diverges "
                             "between streaming and dense engines",
                             loop.name.c_str(), id,
                             static_cast<long long>(j), vname(s));
                }
            }
        }
        // Re-executing in the shadow is safe: operands were just
        // proven equal, so stores rewrite identical bytes.
        shadow->execInstance(j, id, cycle);
        if (shadow->exitOrigNow() != exitOrig) {
            SV_PANIC("SELVEC_CHECK_SIM: loop '%s' op #%d iteration "
                     "%lld: exitOrig %lld (streaming) vs %lld "
                     "(dense)", loop.name.c_str(), id,
                     static_cast<long long>(j),
                     static_cast<long long>(exitOrig),
                     static_cast<long long>(shadow->exitOrigNow()));
        }
        if (!suppressed && !pop.isExitIf && pop.dest != kNoValue) {
            const RtVal &sv = shadow->envValue(j, pop.dest);
            if (!(sv == ring[ringIndex(j, pop.dest)])) {
                SV_PANIC("SELVEC_CHECK_SIM: loop '%s' op #%d "
                         "iteration %lld: result '%s' diverges "
                         "between streaming and dense engines",
                         loop.name.c_str(), id,
                         static_cast<long long>(j),
                         vname(pop.dest));
            }
        }
    }

    /** buildOutput re-runs poststores in the shadow; prove the
     *  stored values match first so the double store is idempotent. */
    void
    verifyPoststoreSources()
    {
        if (exitOrig != INT64_MAX || nBody == 0)
            return;
        for (const PostStore &ps : loop.poststores) {
            RtVal mine = readValue(nBody - 1, ps.src);
            RtVal theirs = shadow->readValueAt(nBody - 1, ps.src);
            if (!(mine == theirs)) {
                SV_PANIC("SELVEC_CHECK_SIM: loop '%s': poststore "
                         "source '%s' diverges between streaming "
                         "and dense engines", loop.name.c_str(),
                         vname(ps.src));
            }
        }
    }

    void
    verifyFinal(int64_t cycles, const RunOutput &out)
    {
        RunOutput sout = shadow->finishShadow(cycles);
        bool ok = sout.bodyIterations == out.bodyIterations &&
                  sout.cycles == out.cycles &&
                  sout.exited == out.exited &&
                  sout.exitOrig == out.exitOrig &&
                  sout.dynOps == out.dynOps &&
                  envEqual(sout.liveOuts, out.liveOuts) &&
                  envEqual(sout.carriedFinal, out.carriedFinal);
        if (!ok) {
            SV_PANIC("SELVEC_CHECK_SIM: loop '%s': final outputs "
                     "diverge between streaming and dense engines",
                     loop.name.c_str());
        }
    }

    static bool
    envEqual(const LiveEnv &a, const LiveEnv &b)
    {
        if (a.size() != b.size())
            return false;
        auto ia = a.begin();
        auto ib = b.begin();
        for (; ia != a.end(); ++ia, ++ib) {
            if (ia->first != ib->first || !(ia->second == ib->second))
                return false;
        }
        return true;
    }

    const ExecPlan &plan;
    const LiveEnv &liveIns;   ///< kept for shadow construction
    const int64_t W;
    const size_t numVals;

    std::vector<RtVal> ring;          ///< W frames x numVals slots
    std::vector<int64_t> ringEpoch;   ///< iteration that wrote a slot
    std::vector<int64_t> frameIter;   ///< iteration held per frame

    std::vector<SigmaEntry> sigmaCur;    ///< sigma_{sigmaBoundary}
    std::vector<SigmaEntry> sigmaPrev;   ///< sigma_{sigmaBoundary-1}
    std::vector<SigmaEntry> sigmaScratch;
    int64_t sigmaBoundary = 0;
    bool havePrev = false;

    int64_t snapBody = -1;   ///< exiting body (exitOrig / coverage)
    bool snapSigmaValid = false;
    bool snapNextValid = false;
    bool snapFrameValid = false;
    std::vector<SigmaEntry> snapSigma;       ///< sigma_{snapBody}
    std::vector<SigmaEntry> snapSigmaNext;   ///< sigma_{snapBody+1}
    std::vector<RtVal> snapFrame;
    std::vector<char> snapDefined;

    std::vector<const RtVal *> operandPtrs;
    std::vector<int64_t> readyScratch;
    std::vector<char> selfRead;
    RtVal emptyVal;    ///< stands in for kNoValue operands
    RtVal voidDest;    ///< sink for destination-less results

    int64_t instances = 0;
    std::unique_ptr<DenseEngine> shadow;
};

void
addRunStats(const RunOutput &out, const ModuloSchedule *schedule,
            const StreamEngine *engine)
{
    StatsRegistry &stats = globalStats();
    stats.add(schedule != nullptr ? "sim.pipelinedRuns"
                                  : "sim.referenceRuns");
    stats.add("sim.bodyIterations", out.bodyIterations);
    stats.add("sim.cycles", out.cycles);
    if (engine != nullptr) {
        stats.add("sim.stream.instances", engine->instanceCount());
        stats.add("sim.stream.window", engine->windowFrames());
    }
}

/**
 * The lowest and highest cell `ref` touches over iterations
 * [first, last] with `width` lanes each; false on int64 overflow.
 */
bool
refSpan(const AffineRef &ref, int64_t first, int64_t last, int64_t width,
        int64_t *lo, int64_t *hi)
{
    int64_t a = 0, b = 0;
    if (__builtin_mul_overflow(ref.scale, first, &a) ||
        __builtin_add_overflow(a, ref.offset, &a) ||
        __builtin_mul_overflow(ref.scale, last, &b) ||
        __builtin_add_overflow(b, ref.offset, &b) ||
        __builtin_add_overflow(std::max(a, b), width - 1, hi))
        return false;
    *lo = std::min(a, b);
    return true;
}

/**
 * The footprint rule (DESIGN.md §10): every cell a run over
 * iterations [base, base + n_body) may touch must lie where
 * MemoryImage accepts it — stores in [0, size), loads in
 * [-kGuard, size + kGuard). Every iteration counts, even past an
 * early exit, and so do the preloads (at base) and the poststores
 * (at base + n_body). A run that does not fit, or has a negative
 * count, is InvalidInput at stage "sim"; both entry points check it
 * before any engine starts, so both engines fail the same way.
 */
Status
checkFootprint(const ArrayTable &arrays, const Loop &loop, int vl,
               int64_t n_body, int64_t base)
{
    if (n_body < 0) {
        return Status::error(
            ErrorCode::InvalidInput, "sim",
            strfmt("loop '%s': negative iteration count %lld",
                   loop.name.c_str(),
                   static_cast<long long>(n_body)));
    }
    int64_t end = 0;
    if (__builtin_add_overflow(base, n_body, &end)) {
        return Status::error(
            ErrorCode::InvalidInput, "sim",
            strfmt("loop '%s': iteration range overflows",
                   loop.name.c_str()));
    }
    auto check = [&](const AffineRef &ref, int64_t first, int64_t last,
                     int64_t width, bool store) {
        const ArrayInfo &info = arrays[ref.array];
        int64_t slack = store ? 0 : MemoryImage::kGuard;
        int64_t lo = 0, hi = 0;
        bool fits = refSpan(ref, first, last, width, &lo, &hi);
        if (fits && lo >= -slack && hi < info.size + slack)
            return Status::success();
        std::string where =
            fits ? strfmt("[%lld]",
                          static_cast<long long>(lo < -slack ? lo : hi))
                 : std::string("[overflow]");
        return Status::error(
            ErrorCode::InvalidInput, "sim",
            strfmt("loop '%s': %s %s%s is out of extent (size %lld) "
                   "over %lld body iterations",
                   loop.name.c_str(), store ? "store" : "load",
                   info.name.c_str(), where.c_str(),
                   static_cast<long long>(info.size),
                   static_cast<long long>(n_body)));
    };
    for (const PreLoad &pl : loop.preloads) {
        Status st = check(pl.ref, base, base, pl.vector ? vl : 1, false);
        if (!st.ok())
            return st;
    }
    if (n_body == 0)
        return Status::success();
    for (const Operation &op : loop.ops) {
        if (!op.isMemory())
            continue;
        Status st = check(op.ref, base, end - 1,
                          isVectorOp(op.opcode) ? vl : 1,
                          isStoreOp(op.opcode));
        if (!st.ok())
            return st;
    }
    for (const PostStore &ps : loop.poststores) {
        Status st = check(ps.ref, end, end, 1, true);
        if (!st.ok())
            return st;
    }
    return Status::success();
}

} // anonymous namespace

Expected<RunOutput>
tryExecuteLoop(const ArrayTable &arrays, const Loop &loop,
               const Machine &machine, MemoryImage &mem,
               const LiveEnv &live_ins, int64_t n_body, int64_t base,
               const ModuloSchedule *schedule, const ExecLimits &limits,
               const ExecPlan *plan)
{
    Status footprint =
        checkFootprint(arrays, loop, machine.vectorLength, n_body, base);
    if (!footprint.ok())
        return footprint;
    TraceSpan span(schedule != nullptr ? "sim.pipelined"
                                       : "sim.reference");
    try {
        if (schedule == nullptr) {
            DenseEngine engine(arrays, loop, machine, mem, live_ins,
                               n_body, base, nullptr, limits);
            RunOutput out = engine.run();
            addRunStats(out, nullptr, nullptr);
            return out;
        }
        ExecPlan local;
        if (plan == nullptr)
            local = buildExecPlan(loop, *schedule, machine);
        else
            globalStats().add("sim.plan.reuses");
        const ExecPlan &p = plan != nullptr ? *plan : local;
        StreamEngine engine(arrays, loop, machine, mem, live_ins,
                            n_body, base, schedule, limits, p);
        RunOutput out = engine.run();
        addRunStats(out, schedule, &engine);
        return out;
    } catch (const ExecAbort &abort) {
        globalStats().add("sim.aborts");
        return abort.status;
    }
}

Expected<RunOutput>
tryExecuteLoopDense(const ArrayTable &arrays, const Loop &loop,
                    const Machine &machine, MemoryImage &mem,
                    const LiveEnv &live_ins, int64_t n_body,
                    int64_t base, const ModuloSchedule *schedule,
                    const ExecLimits &limits)
{
    Status footprint =
        checkFootprint(arrays, loop, machine.vectorLength, n_body, base);
    if (!footprint.ok())
        return footprint;
    TraceSpan span(schedule != nullptr ? "sim.pipelined"
                                       : "sim.reference");
    try {
        DenseEngine engine(arrays, loop, machine, mem, live_ins,
                           n_body, base, schedule, limits);
        RunOutput out = engine.run();
        addRunStats(out, schedule, nullptr);
        return out;
    } catch (const ExecAbort &abort) {
        globalStats().add("sim.aborts");
        return abort.status;
    }
}

} // namespace selvec
