#include "pipeline/modsched.hh"

#include <algorithm>
#include <chrono>
#include <queue>
#include <thread>
#include <vector>

#include "analysis/recmii.hh"
#include "machine/binpack.hh"
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

/**
 * Modulo reservation table: occupancy of every concrete unit in every
 * of the II kernel rows, with per-op records so displacement can
 * release reservations exactly.
 *
 * Occupancy is mirrored in per-unit bitmasks (one bit per kernel row)
 * so the free-slot probes of canPlace()/pickUnit() test word-wide
 * ranges instead of walking cells cycle-by-cycle, and in per-row
 * fullness counts so rowFullness() is O(1). The cell array remains the
 * source of occupant identity for displacement. Under
 * SELVEC_CHECK_INCREMENTAL every mask answer is cross-checked against
 * the cell walk it replaced.
 */
class Mrt
{
  public:
    Mrt(const Machine &m, int64_t ii, int num_ops)
        : machine(m), ii(ii),
          cells(static_cast<size_t>(ii * m.totalUnits()), kNoOp),
          held(static_cast<size_t>(num_ops)),
          issue(static_cast<size_t>(num_ops), 0),
          words((ii + 63) / 64),
          occ(static_cast<size_t>(words * m.totalUnits()), 0),
          rowUsed(static_cast<size_t>(ii), 0),
          check(checkIncrementalEnabled())
    {
    }

    /** True if op could issue at cycle t without displacement. */
    bool
    canPlace(Opcode opcode, int64_t t) const
    {
        for (const Reservation &res : machine.reservations(opcode)) {
            if (res.cycles > ii)
                return false;
            if (pickUnit(res, t) < 0)
                return false;
        }
        return true;
    }

    /**
     * Ops that must be displaced so `opcode` can issue at t. For each
     * blocked reservation the unit with the fewest distinct occupants
     * is chosen as the victim unit.
     */
    std::vector<OpId>
    conflicts(Opcode opcode, int64_t t) const
    {
        std::vector<OpId> victims;
        for (const Reservation &res : machine.reservations(opcode)) {
            if (pickUnit(res, t) >= 0)
                continue;
            int first = machine.firstUnit(res.kind);
            int count = machine.unitCount(res.kind);
            int best_unit = -1;
            size_t best_victims = SIZE_MAX;
            std::vector<OpId> best_list;
            for (int u = first; u < first + count; ++u) {
                std::vector<OpId> list;
                int64_t span = std::min<int64_t>(res.cycles, ii);
                for (int64_t c = 0; c < span; ++c) {
                    OpId occ = at((t + c) % ii, u);
                    if (occ != kNoOp &&
                        std::find(list.begin(), list.end(), occ) ==
                            list.end()) {
                        list.push_back(occ);
                    }
                }
                if (list.size() < best_victims) {
                    best_victims = list.size();
                    best_unit = u;
                    best_list = std::move(list);
                }
            }
            SV_ASSERT(best_unit >= 0, "reservation with no units");
            for (OpId v : best_list) {
                if (std::find(victims.begin(), victims.end(), v) ==
                    victims.end()) {
                    victims.push_back(v);
                }
            }
        }
        return victims;
    }

    /** Place op at cycle t; caller must have displaced conflicts. */
    void
    place(OpId op, Opcode opcode, int64_t t)
    {
        auto &uses = held[static_cast<size_t>(op)];
        SV_ASSERT(uses.empty(), "op %d placed twice", op);
        for (const Reservation &res : machine.reservations(opcode)) {
            int unit = pickUnit(res, t);
            SV_ASSERT(unit >= 0, "placing op %d with conflicts", op);
            for (int64_t c = 0; c < res.cycles; ++c) {
                int64_t row = (t + c) % ii;
                at(row, unit) = op;
                setBit(unit, row);
                ++rowUsed[static_cast<size_t>(row)];
            }
            uses.push_back(UnitUse{unit, 0, res.cycles});
        }
        issue[static_cast<size_t>(op)] = t;
    }

    /** Release every reservation held by op. */
    void
    remove(OpId op)
    {
        auto &uses = held[static_cast<size_t>(op)];
        int64_t t = issue[static_cast<size_t>(op)];
        for (const UnitUse &use : uses) {
            for (int64_t c = 0; c < use.cycles; ++c) {
                int64_t row = (t + c) % ii;
                OpId &cell = at(row, use.unit);
                SV_ASSERT(cell == op, "MRT cell not held by op %d", op);
                cell = kNoOp;
                clearBit(use.unit, row);
                --rowUsed[static_cast<size_t>(row)];
            }
        }
        uses.clear();
    }

    const std::vector<UnitUse> &
    uses(OpId op) const
    {
        return held[static_cast<size_t>(op)];
    }

    /** Occupied cells in one kernel row (a row-balance metric). */
    int
    rowFullness(int64_t t) const
    {
        return rowUsed[static_cast<size_t>(t % ii)];
    }

    /** Occupancy probes the bitmasks answered "occupied" (the
     *  mrt.maskHits stat). */
    int64_t maskHitCount() const { return hits; }

  private:
    OpId &
    at(int64_t row, int unit)
    {
        return cells[static_cast<size_t>(row * machine.totalUnits() +
                                         unit)];
    }

    OpId
    at(int64_t row, int unit) const
    {
        return cells[static_cast<size_t>(row * machine.totalUnits() +
                                         unit)];
    }

    void
    setBit(int unit, int64_t row)
    {
        occ[static_cast<size_t>(unit * words + (row >> 6))] |=
            uint64_t{1} << (row & 63);
    }

    void
    clearBit(int unit, int64_t row)
    {
        occ[static_cast<size_t>(unit * words + (row >> 6))] &=
            ~(uint64_t{1} << (row & 63));
    }

    /** Any occupied row in [lo, hi) of one unit's mask. */
    bool
    anyBits(int unit, int64_t lo, int64_t hi) const
    {
        const uint64_t *w = &occ[static_cast<size_t>(unit * words)];
        int64_t wlo = lo >> 6;
        int64_t whi = (hi - 1) >> 6;
        uint64_t first = ~uint64_t{0} << (lo & 63);
        uint64_t last = ~uint64_t{0} >> (63 - ((hi - 1) & 63));
        if (wlo == whi)
            return (w[wlo] & first & last) != 0;
        if ((w[wlo] & first) != 0)
            return true;
        for (int64_t i = wlo + 1; i < whi; ++i) {
            if (w[i] != 0)
                return true;
        }
        return (w[whi] & last) != 0;
    }

    /** Any occupied row in the wrapped window [t, t+len) mod II. */
    bool
    rangeOccupied(int unit, int64_t t, int64_t len) const
    {
        int64_t start = t % ii;
        if (start + len <= ii)
            return anyBits(unit, start, start + len);
        return anyBits(unit, start, ii) ||
               anyBits(unit, 0, start + len - ii);
    }

    /** Least-loaded free unit for a reservation at cycle t, or -1. */
    int
    pickUnit(const Reservation &res, int64_t t) const
    {
        int first = machine.firstUnit(res.kind);
        int count = machine.unitCount(res.kind);
        if (res.cycles > ii)
            return -1;
        for (int u = first; u < first + count; ++u) {
            bool busy = rangeOccupied(u, t, res.cycles);
            if (check) {
                bool cell_busy = false;
                for (int64_t c = 0; c < res.cycles && !cell_busy; ++c)
                    cell_busy = at((t + c) % ii, u) != kNoOp;
                SV_ASSERT(busy == cell_busy,
                          "MRT mask diverged from cells: unit %d "
                          "cycle %lld span %d",
                          u, static_cast<long long>(t), res.cycles);
            }
            if (!busy)
                return u;
            ++hits;
        }
        return -1;
    }

    const Machine &machine;
    int64_t ii;
    std::vector<OpId> cells;
    std::vector<std::vector<UnitUse>> held;
    std::vector<int64_t> issue;

    int64_t words;                  ///< 64-bit words per unit mask
    std::vector<uint64_t> occ;      ///< per-unit row-occupancy bits
    std::vector<int32_t> rowUsed;   ///< occupied cells per kernel row
    bool check;                     ///< cross-check mode, latched once
    mutable int64_t hits = 0;       ///< mask probes answered occupied
};

/**
 * Height-based priority: the longest latency path from each op to any
 * sink under the candidate II (edges weigh latency - II*distance).
 */
std::vector<int64_t>
computeHeights(const DepGraph &graph, int64_t ii)
{
    int n = graph.numOps();
    std::vector<int64_t> height(static_cast<size_t>(n), 0);
    // Relaxation; converges within n passes when no positive cycle
    // exists (guaranteed for ii >= RecMII).
    for (int pass = 0; pass < n; ++pass) {
        bool changed = false;
        for (const DepEdge &e : graph.edges()) {
            int64_t h = height[static_cast<size_t>(e.dst)] + e.latency -
                        ii * e.distance;
            if (h > height[static_cast<size_t>(e.src)]) {
                height[static_cast<size_t>(e.src)] = h;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    return height;
}

/** Ready-heap entry: max height first, lowest op index on ties — the
 *  exact order the seed's linear scan produced. */
struct ReadyEntry
{
    int64_t height;
    OpId op;
};

struct ReadyOrder
{
    bool
    operator()(const ReadyEntry &a, const ReadyEntry &b) const
    {
        if (a.height != b.height)
            return a.height < b.height;
        return a.op > b.op;
    }
};

/**
 * One candidate-II scheduling attempt.
 *
 * Slot selection within the II-wide window: classic iterative modulo
 * scheduling takes the earliest conflict-free cycle. On very tight
 * schedules that can fill one kernel row completely while a zero-slack
 * recurrence still needs it, so a second strategy (`balanced`) prefers
 * the feasible cycle whose kernel row is least occupied — the same
 * balancing instinct as the partitioner's squared-weight tiebreak. The
 * driver tries earliest-fit first and balanced-fit on failure before
 * giving up on an II.
 *
 * The highest-priority unscheduled op comes off a ready heap holding
 * exactly one entry per unscheduled op (ops re-enter only when
 * displaced), replacing the seed's O(n) scan per placement. `height`
 * is computed once per candidate II and shared by the earliest-fit and
 * balanced attempts.
 */
bool
tryScheduleAtIi(const Loop &loop, const DepGraph &graph,
                const Machine &machine, int64_t ii, int budget,
                bool balanced, const std::vector<int64_t> &height,
                ModuloSchedule &out, ScheduleResult &counters)
{
    int n = loop.numOps();
    Mrt mrt(machine, ii, n);

    std::vector<int64_t> time(static_cast<size_t>(n), -1);
    std::vector<int64_t> prev_time(static_cast<size_t>(n), 0);
    std::vector<bool> ever(static_cast<size_t>(n), false);
    int unscheduled = n;

    std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                        ReadyOrder>
        ready;
    for (OpId op = 0; op < n; ++op)
        ready.push(ReadyEntry{height[static_cast<size_t>(op)], op});
    counters.readyPushes += n;

    while (unscheduled > 0) {
        if (budget-- <= 0) {
            counters.maskHits += mrt.maskHitCount();
            return false;
        }
        if (deadlineArmed()) {
            // Checked alongside the placement budget: the budget
            // bounds work per candidate II, the deadline bounds the
            // whole search in wall-clock time (DESIGN.md §10).
            Status trip = checkDeadline("modsched");
            if (!trip) {
                counters.code = trip.code();
                counters.error = trip.str();
                counters.maskHits += mrt.maskHitCount();
                return false;
            }
        }

        // Highest-priority unscheduled op (height, then op order).
        SV_ASSERT(!ready.empty(), "worklist accounting broken");
        OpId op = ready.top().op;
        ready.pop();
        SV_ASSERT(time[static_cast<size_t>(op)] < 0,
                  "scheduled op %d on the ready heap", op);
        if (checkIncrementalEnabled()) {
            OpId scan = kNoOp;
            for (OpId cand = 0; cand < n; ++cand) {
                if (time[static_cast<size_t>(cand)] >= 0)
                    continue;
                if (scan == kNoOp ||
                    height[static_cast<size_t>(cand)] >
                        height[static_cast<size_t>(scan)]) {
                    scan = cand;
                }
            }
            SV_ASSERT(scan == op,
                      "ready heap diverged from scan: op %d vs %d", op,
                      scan);
        }

        // Earliest start from scheduled predecessors.
        int64_t estart = 0;
        for (int ei : graph.inEdges(op)) {
            const DepEdge &e = graph.edges()[static_cast<size_t>(ei)];
            if (e.src == op)
                continue;
            int64_t ts = time[static_cast<size_t>(e.src)];
            if (ts < 0)
                continue;
            estart = std::max(estart,
                              ts + e.latency - ii * e.distance);
        }

        Opcode opcode = loop.op(op).opcode;
        int64_t slot = -1;
        if (!balanced) {
            for (int64_t t = estart; t < estart + ii; ++t) {
                if (mrt.canPlace(opcode, t)) {
                    slot = t;
                    break;
                }
            }
        } else {
            int best_fullness = INT32_MAX;
            for (int64_t t = estart; t < estart + ii; ++t) {
                if (!mrt.canPlace(opcode, t))
                    continue;
                int fullness = mrt.rowFullness(t);
                if (fullness < best_fullness) {
                    best_fullness = fullness;
                    slot = t;
                }
            }
        }
        if (slot < 0) {
            slot = ever[static_cast<size_t>(op)]
                       ? std::max(estart,
                                  prev_time[static_cast<size_t>(op)] + 1)
                       : estart;
            for (OpId victim : mrt.conflicts(opcode, slot)) {
                mrt.remove(victim);
                time[static_cast<size_t>(victim)] = -1;
                ready.push(ReadyEntry{
                    height[static_cast<size_t>(victim)], victim});
                ++counters.readyPushes;
                ++unscheduled;
                ++counters.backtracks;
            }
        }

        mrt.place(op, opcode, slot);
        ++counters.placements;
        time[static_cast<size_t>(op)] = slot;
        prev_time[static_cast<size_t>(op)] = slot;
        ever[static_cast<size_t>(op)] = true;
        --unscheduled;

        // Displace successors whose dependence constraints now break.
        for (int ei : graph.outEdges(op)) {
            const DepEdge &e = graph.edges()[static_cast<size_t>(ei)];
            if (e.dst == op)
                continue;
            int64_t ts = time[static_cast<size_t>(e.dst)];
            if (ts >= 0 && ts + ii * e.distance < slot + e.latency) {
                mrt.remove(e.dst);
                time[static_cast<size_t>(e.dst)] = -1;
                ready.push(ReadyEntry{
                    height[static_cast<size_t>(e.dst)], e.dst});
                ++counters.readyPushes;
                ++unscheduled;
                ++counters.backtracks;
            }
        }
    }

    counters.maskHits += mrt.maskHitCount();
    out.ii = ii;
    out.time = std::move(time);
    out.units.resize(static_cast<size_t>(n));
    for (OpId op = 0; op < n; ++op)
        out.units[static_cast<size_t>(op)] = mrt.uses(op);
    return true;
}

} // anonymous namespace

ScheduleResult
moduloSchedule(const Loop &lowered, const DepGraph &graph,
               const Machine &machine, const ScheduleOptions &options)
{
    TraceSpan span("modsched");
    ScheduleResult result;

    // Zero is meaningful for every knob (an empty budget or search
    // window, a disabled watchdog); only negative values are nonsense.
    if (options.budgetFactor < 0 || options.maxIiFactor < 0 ||
        options.maxIiSlack < 0 || options.watchdogFactor < 0) {
        result.code = ErrorCode::InvalidInput;
        result.error = strfmt(
            "invalid schedule options: budgetFactor %d, maxIiFactor "
            "%lld, maxIiSlack %lld and watchdogFactor %lld must all "
            "be >= 0",
            options.budgetFactor,
            static_cast<long long>(options.maxIiFactor),
            static_cast<long long>(options.maxIiSlack),
            static_cast<long long>(options.watchdogFactor));
        return result;
    }

    std::vector<Opcode> opcodes;
    opcodes.reserve(static_cast<size_t>(lowered.numOps()));
    for (const Operation &op : lowered.ops)
        opcodes.push_back(op.opcode);

    if (opcodes.empty()) {
        result.ok = true;
        result.schedule.ii = 1;
        result.resMii = result.recMii = result.mii = 1;
        return result;
    }

    result.resMii = packedHighWater(machine, opcodes);
    result.recMii = computeRecMii(graph);
    result.mii = std::max({result.resMii, result.recMii,
                           static_cast<int64_t>(1)});

    // A reservation longer than the II can never fit in the MRT.
    for (Opcode op : opcodes) {
        for (const Reservation &res : machine.reservations(op)) {
            result.mii = std::max(result.mii,
                                  static_cast<int64_t>(res.cycles));
        }
    }

    int64_t max_ii =
        result.mii * options.maxIiFactor + options.maxIiSlack;
    result.maxIi = max_ii;
    int budget = options.budgetFactor * lowered.numOps();

    StatsRegistry &stats = globalStats();
    stats.add("modsched.loops");
    stats.setGauge("modsched.lastSearchWindow",
                   max_ii - result.mii + 1);

    if (faultPointHit("modsched.search")) {
        result.code = ErrorCode::ScheduleBudgetExhausted;
        result.error = strfmt(
            "fault injected at modsched.search: II search for loop "
            "'%s' forced to fail",
            lowered.name.c_str());
        stats.add("modsched.failures");
        return result;
    }

    if (faultPointHit("modsched.stall")) {
        // Simulated scheduler hang. Under an armed containment
        // context this spins (sleeping) until the ambient deadline
        // trips — the test vehicle for "a pathological
        // loop hangs the scheduler". Without one it fails instantly,
        // so exhaustive fault sweeps stay fast and never wedge.
        if (deadlineArmed()) {
            Status trip = checkDeadline("modsched");
            while (trip) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                trip = checkDeadline("modsched");
            }
            result.code = trip.code();
            result.error = strfmt(
                "fault injected at modsched.stall: scheduler hang on "
                "loop '%s' contained: %s",
                lowered.name.c_str(), trip.message().c_str());
        } else {
            result.code = ErrorCode::ScheduleBudgetExhausted;
            result.error = strfmt(
                "fault injected at modsched.stall: II search for loop "
                "'%s' forced to fail (no deadline armed)",
                lowered.name.c_str());
        }
        stats.add("modsched.failures");
        return result;
    }

    for (int64_t ii = result.mii; ii <= max_ii; ++ii) {
        ++result.attempts;
        // Heights depend only on the candidate II: compute once and
        // share between the earliest-fit and balanced attempts.
        std::vector<int64_t> height = computeHeights(graph, ii);
        if (tryScheduleAtIi(lowered, graph, machine, ii, budget,
                            /*balanced=*/false, height,
                            result.schedule, result) ||
            tryScheduleAtIi(lowered, graph, machine, ii, budget,
                            /*balanced=*/true, height,
                            result.schedule, result)) {
            result.ok = true;
            stats.add("modsched.attempts", result.attempts);
            stats.add("modsched.backtracks", result.backtracks);
            stats.add("modsched.readyPushes", result.readyPushes);
            stats.add("mrt.maskHits", result.maskHits);
            stats.setGauge("modsched.lastIi", result.schedule.ii);
            stats.maxGauge("modsched.maxIi", result.schedule.ii);
            return result;
        }
        if (result.code == ErrorCode::DeadlineExceeded) {
            // Retrying larger IIs cannot recover a tripped deadline.
            break;
        }
    }
    stats.add("modsched.attempts", result.attempts);
    stats.add("modsched.backtracks", result.backtracks);
    stats.add("modsched.readyPushes", result.readyPushes);
    stats.add("mrt.maskHits", result.maskHits);
    stats.add("modsched.failures");
    if (result.code == ErrorCode::DeadlineExceeded)
        return result;
    result.code = ErrorCode::ScheduleBudgetExhausted;
    result.error = strfmt(
        "no schedule found for loop '%s': tried II %lld..%lld "
        "(MII %lld = max(ResMII %lld bound by %s, RecMII %lld)), "
        "placement budget %d (%d ops x factor %d) exhausted at each "
        "of %d candidate IIs",
        lowered.name.c_str(), static_cast<long long>(result.mii),
        static_cast<long long>(max_ii),
        static_cast<long long>(result.mii),
        static_cast<long long>(result.resMii),
        packedBindingUnit(machine, opcodes).c_str(),
        static_cast<long long>(result.recMii), budget,
        lowered.numOps(), options.budgetFactor, result.attempts);
    return result;
}

} // namespace selvec
