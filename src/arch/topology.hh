/**
 * @file
 * Multi-core topology graph for the architecture layer (DESIGN.md §16).
 *
 * The paper's machine is one flat Multi-SIMD(k,d) tile; the related
 * multi-core line (Suance et al., Ovide et al.) splits the machine into
 * cores — each a local Multi-SIMD tile with its own regions, scratchpads
 * and memory bank — connected by EPR links of finite bandwidth and
 * latency. A Topology describes that graph; the degenerate one-core
 * topology (the default) reproduces the flat machine bit-for-bit: no
 * code path may behave differently under it.
 *
 * Region-to-core geometry: the architecture's k regions are split into
 * `cores` contiguous groups of `regionsPerCore` each, so region r lives
 * on core r / regionsPerCore. Global-memory locations carry the core
 * index of the memory bank they denote in Location::region (always 0 on
 * the flat machine, which is why Location::global() still means "the"
 * memory there).
 *
 * Construction validation (A-code family): zero cores (A001), zero link
 * bandwidth (A002), a disconnected link graph (A003) and self-loop
 * links (A004) are rejected at construction — a disconnected machine
 * cannot route a teleport, so no later layer needs to handle it.
 */

#ifndef MSQ_ARCH_TOPOLOGY_HH
#define MSQ_ARCH_TOPOLOGY_HH

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace msq {

class DiagnosticEngine;

/** How a topology's cores are wired together. */
enum class TopologyShape : uint8_t {
    /** One core, no links: the paper's flat Multi-SIMD machine. */
    SingleCore,
    /** Cycle: core i links to (i±1) mod cores. */
    Ring,
    /** Near-square 2D grid, row-major, no wraparound. */
    Mesh,
    /** Every pair of cores directly linked. */
    AllToAll,
};

/** How the mapping pass assigns qubits to home cores. */
enum class MappingStrategy : uint8_t {
    /** Interaction-graph greedy growth + swap refinement (the real
     * pass, analysis/qubit_mapping.hh). */
    Greedy,
    /** Naive qubit-index round-robin (the baseline the pass is
     * measured against). */
    RoundRobin,
};

/** @return "single" / "ring" / "mesh" / "all-to-all". */
const char *topologyShapeName(TopologyShape shape);

/** @return "greedy" / "roundrobin". */
const char *mappingStrategyName(MappingStrategy strategy);

/**
 * The core-and-link graph of one machine. Default-constructed it is the
 * degenerate single-core topology.
 */
struct Topology
{
    /** Number of cores (tiles). 1 = the flat machine. */
    unsigned cores = 1;

    /**
     * SIMD regions per core on the full machine. 0 (only meaningful
     * with cores == 1) means "all regions", which is what the flat
     * machine uses. The coarse scheduler's width sweep shrinks the
     * arch's k below cores * regionsPerCore; the split stays anchored
     * to the full machine so region->core geometry never shifts with
     * the sweep width.
     */
    unsigned regionsPerCore = 0;

    /** Link graph shape. */
    TopologyShape shape = TopologyShape::SingleCore;

    /**
     * Masked inter-core teleports one link can pipeline per timestep.
     * Excess masked traffic is demoted to blocking by the analyzer (and
     * policed by the M010 checker). ::unbounded = no link cap.
     */
    uint64_t linkBandwidth = std::numeric_limits<uint64_t>::max();

    /**
     * Cycles one blocking inter-core teleport spends per link hop.
     * Defaults to the intra-machine teleport time (4, Fig. 2) so a
     * one-hop inter-core move costs what a global teleport costs.
     */
    uint64_t linkLatency = 4;

    /** Which mapping pass places qubits on home cores. */
    MappingStrategy mapping = MappingStrategy::Greedy;

    /**
     * Explicit undirected links appended to the shape's generated edge
     * list (e.g. a chord across a ring), normalized into the canonical
     * edges() order. Self-loops (A004) and endpoints beyond the last
     * core (A003) are rejected by validate(). Spec syntax: `link=a-b`.
     */
    std::vector<std::pair<unsigned, unsigned>> extraLinks;

    /** @return whether this is a genuine multi-core machine. */
    bool multiCore() const { return cores > 1; }

    /** @return the core owning region @p region (0 on one core). */
    unsigned
    coreOfRegion(unsigned region) const
    {
        if (cores <= 1 || regionsPerCore == 0)
            return 0;
        unsigned core = region / regionsPerCore;
        return core < cores ? core : cores - 1;
    }

    /**
     * Canonical undirected link list, each pair ascending and the list
     * sorted — every consumer (router, checker, bench) sees the same
     * edge order, which is what keeps link-indexed bookkeeping
     * deterministic.
     */
    std::vector<std::pair<unsigned, unsigned>> edges() const;

    /**
     * Check construction invariants, reporting A-codes through
     * @p diags: A001 zero cores, A002 zero link bandwidth, A003
     * disconnected link graph, A004 self-loop link, A005 multi-core
     * without a per-core region split. With a null @p diags the first
     * violation calls fatal() (construction-time contract, like
     * MultiSimdArch::validate).
     * @return true when the topology is well-formed.
     */
    bool validate(DiagnosticEngine *diags = nullptr) const;

    /**
     * @return e.g. "ring(4x2, link-bw=1, link-lat=3)", with ", map=..."
     * for a non-default mapping and ", links=a-b..." for extra links;
     * "" on one core.
     */
    std::string describe() const;

    /**
     * Cache-key fragment, e.g. "topo=ring:4x2|lbw=1|llat=3|map=greedy".
     * Empty for the single-core topology so every flat-machine cache
     * key (in memory and in v1 .msqc files) keeps its historical bytes.
     */
    std::string fingerprint() const;

    bool
    operator==(const Topology &other) const
    {
        return cores == other.cores &&
               regionsPerCore == other.regionsPerCore &&
               shape == other.shape &&
               linkBandwidth == other.linkBandwidth &&
               linkLatency == other.linkLatency &&
               mapping == other.mapping &&
               extraLinks == other.extraLinks;
    }

    bool operator!=(const Topology &other) const
    {
        return !(*this == other);
    }
};

/**
 * Deterministic shortest-path routing tables over one Topology,
 * precomputed once (BFS per core, neighbors visited in ascending order)
 * and then O(hops) per query. Edge ids index Topology::edges().
 */
class TopologyRouter
{
  public:
    explicit TopologyRouter(const Topology &topo);

    size_t numEdges() const { return edgeList.size(); }

    /** Hop count of the canonical route from @p from to @p to. */
    unsigned dist(unsigned from, unsigned to) const;

    /**
     * Append the edge ids of the canonical shortest route from @p from
     * to @p to onto @p out (lowest-index next hop at every step, so the
     * route is unique and deterministic).
     */
    void routeEdges(unsigned from, unsigned to,
                    std::vector<unsigned> &out) const;

    const std::vector<std::pair<unsigned, unsigned>> &
    edges() const
    {
        return edgeList;
    }

  private:
    unsigned at(unsigned from, unsigned to) const;

    unsigned cores;
    std::vector<std::pair<unsigned, unsigned>> edgeList;
    std::vector<unsigned> dist_;    ///< cores x cores hop counts
    std::vector<unsigned> nextHop_; ///< cores x cores first hop
    std::vector<unsigned> edgeId_;  ///< cores x cores adjacency -> edge
};

} // namespace msq

#endif // MSQ_ARCH_TOPOLOGY_HH
