/**
 * @file
 * Exact selective-vectorization partitioning: a branch-and-bound
 * search over the scalar/vector assignment of the vectorizable
 * operations that provably minimizes the partition cost model's
 * objective — the packed ResMII high-water mark (including explicit
 * communication and misalignment cost) raised to the recurrence
 * floor, exactly what the KL heuristic of partition.cc optimizes.
 *
 * The search is the partitioner's correctness oracle: it turns "KL
 * seems good" into a measured optimality gap (bench_optgap), and a
 * strict gap is a concrete counterexample for future heuristic work.
 *
 * Bounding. Each search node has an admissible lower bound: for every
 * resource kind k,
 *
 *     LB_k = ceil((overhead_k + fixed_k + decided_k
 *                  + sum over undecided ops of min-over-sides_k)
 *                 / unitCount_k)
 *
 * and LB = max(max_k LB_k, recurrence floor with undecided reductions
 * taken at their cheaper side). Operand transfers are excluded from
 * the bound — they only ever add reservations, so leaving them out
 * keeps the bound a true underestimate of any completion's packed
 * cost (greedy packing can only land at or above the relaxed per-kind
 * average). A subtree is cut when LB >= the incumbent cost.
 *
 * The incumbent starts as the KL assignment and its cost, so the
 * search can only improve on the heuristic and `exact <= kl` holds by
 * construction. Leaves are evaluated with the real cost model
 * (PartitionCostModel::rebuild + cost), so the proven optimum is the
 * optimum of the objective the KL search sees, greedy packing
 * artifacts included.
 *
 * Budget. The search is anytime: past `maxNodes` expanded nodes (0 =
 * unbounded) or an ambient deadline trip (support/deadline) it stops
 * and returns the incumbent with proven=false — Unproven, never
 * wrong, merely incomplete.
 */

#ifndef SELVEC_CORE_PARTITION_EXACT_HH
#define SELVEC_CORE_PARTITION_EXACT_HH

#include <vector>

#include "analysis/vectorizable.hh"
#include "core/costmodel.hh"

namespace selvec
{

struct ExactSearchOptions
{
    CostOptions cost;

    /** Node budget: decision nodes expanded before the search gives
     *  up and reports Unproven (0 = unbounded). */
    int64_t maxNodes = 0;
};

struct ExactSearchResult
{
    /** Best assignment found (the incumbent when nothing beat it). */
    std::vector<bool> vectorize;

    /** Cost of `vectorize` under the partition cost model. */
    int64_t bestCost = 0;

    /** True when the search space was exhausted: bestCost is the
     *  proven minimum of the objective. False after a node-budget or
     *  deadline stop — the result is still valid, merely Unproven. */
    bool proven = false;

    int64_t nodes = 0;      ///< decision nodes expanded
    int64_t pruned = 0;     ///< subtrees cut by the lower bound

    /** True when the ambient deadline stopped the search; callers
     *  convert it to a status exactly as they do for the KL
     *  partitioner's anytime stop. */
    bool deadlineStopped = false;
};

/**
 * Branch-and-bound over the vectorizable ops of `loop`.
 *
 * @param incumbent a full assignment (vectorize[op]) to start from —
 *        the KL result; non-candidate ops must be false
 * @param incumbentCost the cost model's cost of `incumbent`
 */
ExactSearchResult exactPartitionSearch(
    const Loop &loop, const VectAnalysis &va, const Machine &machine,
    const std::vector<bool> &incumbent, int64_t incumbentCost,
    const ExactSearchOptions &options = {});

} // namespace selvec

#endif // SELVEC_CORE_PARTITION_EXACT_HH
