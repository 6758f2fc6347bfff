/**
 * @file
 * Data-dependence DAG over a module's operation list.
 *
 * Quantum operations cannot fan out (no-cloning theorem, paper §2.1), so
 * any two operations sharing a qubit operand are ordered by their program
 * order: the dependence DAG simply chains each operation to the previous
 * operation touching each of its operands. The edges are built once per
 * module into flat CSR arrays; node weights are an argument of the
 * longest-path queries, so the hierarchical analyses weight Call nodes by
 * their callee's schedule length without rebuilding anything. No weights
 * means 1 cycle per op, and path lengths saturate at 2^64-1.
 *
 * A caller that needs only the critical path builds no DAG at all: the
 * free criticalPathLength(mod, weights) sweeps per-qubit frontiers.
 */

#ifndef MSQ_IR_DAG_HH
#define MSQ_IR_DAG_HH

#include <cstdint>
#include <span>
#include <vector>

#include "ir/module.hh"

namespace msq {

/**
 * Dependence DAG of one module. Node i corresponds to module op i, so
 * program order is a topological order. Successor and predecessor lists
 * are ascending.
 */
class DepDag
{
  public:
    /** Build the DAG for @p mod. */
    static DepDag build(const Module &mod);

    size_t numNodes() const { return preds_.offsets.size() - 1; }

    std::span<const uint32_t> succs(uint32_t n) const { return succs_[n]; }
    std::span<const uint32_t> preds(uint32_t n) const { return preds_[n]; }

    /** Nodes with no predecessors. */
    const std::vector<uint32_t> &roots() const { return roots_; }

    /**
     * @return for each node, the longest weighted distance from a root,
     * inclusive of the node's own weight (ASAP finish time).
     * @param weights per-node latency in cycles; empty means 1 per node
     *        (including calls — appropriate for leaf modules only), and
     *        any other length than numNodes() panics.
     */
    std::vector<uint64_t>
    depthFromTop(std::span<const uint64_t> weights = {}) const
    {
        return longestPaths(weights, true);
    }

    /**
     * @return for each node, the longest weighted distance to a sink,
     * inclusive of the node's own weight (@p weights as above).
     */
    std::vector<uint64_t>
    heightToBottom(std::span<const uint64_t> weights = {}) const
    {
        return longestPaths(weights, false);
    }

    /** Longest weighted root-to-sink path length (critical path). */
    uint64_t criticalPathLength(std::span<const uint64_t> weights = {}) const;

    /**
     * Per-node unit-weight slack: criticalPath - (depth + height - 1).
     * Zero for critical-path nodes. Used as the w_slack term of RCP
     * (Algorithm 1).
     */
    std::vector<uint64_t> slack() const;

  private:
    DepDag() = default;

    /** depthFromTop() when @p from_top, else heightToBottom(). */
    std::vector<uint64_t> longestPaths(std::span<const uint64_t> weights,
                                       bool from_top) const;

    /** One adjacency relation, flat: node n's list is
     * index[offsets[n], offsets[n + 1]). */
    struct Csr
    {
        std::vector<size_t> offsets{0}; ///< numNodes() + 1 entries
        std::vector<uint32_t> index;

        std::span<const uint32_t>
        operator[](uint32_t n) const
        {
            return {index.data() + offsets[n], index.data() + offsets[n + 1]};
        }
    };

    Csr succs_;
    Csr preds_;
    std::vector<uint32_t> roots_;
};

/**
 * DepDag::build(@p mod).criticalPathLength(@p weights) without building
 * the DAG. An op's predecessors are exactly the last users of its
 * operands, so one program-order sweep that keeps each qubit's latest
 * finish time (its frontier) finds every op's finish as the maximum
 * frontier of its operands plus its weight: O(operands) time and
 * O(qubits) space. @p weights as for DepDag::depthFromTop.
 */
uint64_t criticalPathLength(const Module &mod,
                            std::span<const uint64_t> weights = {});

} // namespace msq

#endif // MSQ_IR_DAG_HH
