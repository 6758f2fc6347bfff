/**
 * @file
 * Qubit-to-core partitioning for multi-core topologies (DESIGN.md §16).
 *
 * Every qubit of a leaf module gets a *home core*: the memory bank it
 * starts in and returns to when evicted. A fetch whose source bank (or
 * source region) lives on a different core than the destination region
 * is an inter-core teleport, routed over the topology's links — so the
 * placement decides how much of the module's communication crosses
 * links at all. The mapping is a deterministic pure function of the
 * module's *structure* and the topology (never of names or angles),
 * exactly the inputs the leaf-cache key captures, which is what lets
 * the communication analyzer, the schedule validator and the M-code
 * comm checker each recompute it independently and agree bit-for-bit.
 *
 * Strategy Greedy (the pass): build the weighted qubit-interaction
 * graph (edge weight = number of gates touching both endpoints), place
 * qubits in descending total-weight order onto the core that maximizes
 * attraction to already-placed neighbors under a balanced capacity
 * ceiling, then run a bounded Kernighan–Lin-style pairwise swap
 * refinement. Strategy RoundRobin (the baseline): qubit q lives on core
 * q mod cores. Both are seed-free and tie-broken by index, so there is
 * nothing nondeterministic to cache or to verify against.
 */

#ifndef MSQ_ANALYSIS_QUBIT_MAPPING_HH
#define MSQ_ANALYSIS_QUBIT_MAPPING_HH

#include <cstdint>
#include <vector>

#include "arch/topology.hh"
#include "ir/program.hh"

namespace msq {

/**
 * Weighted qubit co-occurrence graph of one module: edge (a, b) carries
 * the number of operations whose operand list contains both a and b
 * (calls included — shared call arguments couple qubits exactly like
 * shared gate operands).
 */
class QubitInteractionGraph
{
  public:
    explicit QubitInteractionGraph(const Module &mod);

    unsigned numQubits() const { return n; }

    /** Interaction weight between @p a and @p b (0 when unlinked). */
    uint64_t weight(QubitId a, QubitId b) const;

    /** Sum of @p q's edge weights (how "hot" the qubit is). */
    uint64_t totalWeight(QubitId q) const;

    /** Neighbors of @p q in ascending id order with their weights. */
    const std::vector<std::pair<QubitId, uint64_t>> &
    neighbors(QubitId q) const
    {
        return adj[q];
    }

  private:
    unsigned n;
    std::vector<std::vector<std::pair<QubitId, uint64_t>>> adj;
    std::vector<uint64_t> totals;
};

/**
 * Assign every qubit of @p mod a home core under @p topo's mapping
 * strategy. Size numQubits(), values in [0, topo.cores). On a
 * single-core topology every qubit maps to core 0.
 */
std::vector<unsigned> computeQubitMapping(const Module &mod,
                                          const Topology &topo);

/**
 * The inter-core cut of @p mapping over @p mod's interaction graph:
 * the summed weight of edges whose endpoints live on different cores —
 * the objective the greedy/KL pass minimizes, which test_topology
 * compares mapped-vs-roundrobin.
 */
uint64_t mappingCutWeight(const Module &mod,
                          const std::vector<unsigned> &mapping);

} // namespace msq

#endif // MSQ_ANALYSIS_QUBIT_MAPPING_HH
