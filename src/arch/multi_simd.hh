/**
 * @file
 * The Multi-SIMD(k,d) architecture model (paper §2.4) and its logical-level
 * cost constants (§2.3, §2.5, §3.2).
 *
 * The machine has k independently controlled SIMD operating regions; in one
 * logical timestep each active region applies a single gate type to at most
 * d qubits. Qubits move between regions and the global quantum memory by
 * quantum teleportation (4 cycles worth of gate operations per move, Fig. 2)
 * and between a region and its optional local scratchpad memory by ballistic
 * transport (1 cycle, §2.5).
 */

#ifndef MSQ_ARCH_MULTI_SIMD_HH
#define MSQ_ARCH_MULTI_SIMD_HH

#include <cstdint>
#include <limits>
#include <string>

#include "arch/topology.hh"

namespace msq {

/** Sentinel meaning "unbounded" for d and local-memory capacity. */
constexpr uint64_t unbounded = std::numeric_limits<uint64_t>::max();

/** The most SIMD regions (k) one core may have, flat or in a topology. */
constexpr unsigned maxRegionsPerCore = 1u << 20;

/** How communication is modelled when costing a schedule. */
enum class CommMode : uint8_t {
    /** Communication is free (parallelism-only studies, Fig. 6). */
    None,
    /** Teleportation to/from global memory only (Fig. 7). */
    Global,
    /** Global teleportation plus per-region local scratchpads (Fig. 8). */
    GlobalWithLocalMem,
};

/** @return human-readable name of @p mode. */
const char *commModeName(CommMode mode);

/**
 * Static description of one Multi-SIMD machine configuration.
 */
struct MultiSimdArch
{
    /** Number of independently controlled SIMD operating regions (k). */
    unsigned k = 4;

    /** Max qubits one region operates on per timestep (d); paper uses ∞. */
    uint64_t d = unbounded;

    /**
     * Capacity (in qubits) of each region's local scratchpad memory.
     * 0 disables local memories; ::unbounded models the paper's "Inf"
     * configuration. Only consulted when CommMode is GlobalWithLocalMem.
     */
    uint64_t localMemCapacity = 0;

    /**
     * EPR-pair channel bandwidth: how many blocking teleports one
     * movement phase can service. The paper assumes sufficient EPR
     * distribution and leaves constrained channels to future work
     * (§2.3, "longer distances do imply higher EPR bandwidth
     * requirements"); ::unbounded (the default) reproduces the paper's
     * model, finite values serialize excess blocking moves into extra
     * 4-cycle phases.
     */
    uint64_t eprBandwidth = unbounded;

    /**
     * Core-and-link graph of the machine (DESIGN.md §16). The default
     * single-core topology is the paper's flat machine and changes
     * nothing anywhere; with cores > 1 the k regions split into
     * contiguous per-core groups (topology.regionsPerCore each, so
     * k == cores * regionsPerCore on the full machine), every qubit
     * gets a home core from the mapping pass, and cross-core moves are
     * routed over the link graph.
     */
    Topology topology;

    /** Cycles per logical gate operation (all gates, §3.2). */
    static constexpr uint64_t gateCycles = 1;

    /** Cycles of gate work per teleportation move (Fig. 2, §2.3). */
    static constexpr uint64_t teleportCycles = 4;

    /** Cycles per ballistic region<->local-memory move (§2.5). */
    static constexpr uint64_t localMoveCycles = 1;

    /**
     * Fixed overhead per module invocation: active qubits are flushed to
     * global memory around calls (§3.2), "a fixed overhead of a single
     * teleportation cycle".
     */
    static constexpr uint64_t callOverheadCycles = 1;

    /**
     * The naive movement model moves data between regions and global
     * memory every timestep, "effectively increasing the overall runtime
     * by 5X" (§4, §5.2): 1 compute cycle + 4 teleport cycles.
     */
    static constexpr uint64_t naiveCyclesPerGate = gateCycles +
                                                   teleportCycles;

    /** Construct a Multi-SIMD(k,d) machine. */
    MultiSimdArch() = default;
    MultiSimdArch(unsigned k, uint64_t d = unbounded,
                  uint64_t local_mem_capacity = 0)
        : k(k), d(d), localMemCapacity(local_mem_capacity)
    {}

    /** Validate the configuration; calls fatal() on nonsense. */
    void validate() const;

    /// @name Per-op cycle costs of the coarse (non-leaf) level, §4.3
    /// @{

    /**
     * Cycles one coarse-level gate operation costs under @p mode: the
     * gate cycle itself plus, when communication is modelled, the
     * 4-cycle teleport of its operands between global memory and a
     * region ("a plain gate has execution cost 1 and movement cost 4").
     */
    static constexpr uint64_t
    coarseGateCost(CommMode mode)
    {
        return mode == CommMode::None ? gateCycles
                                      : gateCycles + teleportCycles;
    }

    /**
     * Fixed per-invocation cost of a call under @p mode: the flush of
     * active qubits to global memory around the call (§3.2, "a fixed
     * overhead of a single teleportation cycle"); free when
     * communication is not modelled.
     */
    static constexpr uint64_t
    callOverhead(CommMode mode)
    {
        return mode == CommMode::None ? 0 : callOverheadCycles;
    }

    /// @}

    /** @return this architecture with a finite EPR channel bandwidth. */
    MultiSimdArch
    withEprBandwidth(uint64_t bandwidth) const
    {
        MultiSimdArch copy = *this;
        copy.eprBandwidth = bandwidth;
        return copy;
    }

    /** @return the core owning region @p region (0 on one core). */
    unsigned
    coreOfRegion(unsigned region) const
    {
        return topology.coreOfRegion(region);
    }

    /**
     * Canonical cache-key fragment covering every architecture
     * parameter a leaf-schedule result depends on (the single source of
     * truth for leafScheduleKeySuffix, the .msqc v2 entry guard, and
     * the serve warm-start path — DESIGN.md §16). On the flat machine
     * this is byte-identical to the historical hand-listed
     * "d=..|lm=..|epr=.." suffix, so existing keys and v1 cache files
     * keep hitting; multi-core appends the topology fingerprint.
     */
    std::string fingerprint() const;

    /** @return e.g. "Multi-SIMD(4,inf)+local(32)" or
     * "Multi-SIMD(8,inf) on ring(4x2, link-bw=1, link-lat=3)". */
    std::string describe() const;
};

/**
 * Parse a `--topology=<spec>` string into @p arch: comma-separated
 * key=value pairs, e.g. "cores=4,k=8,d=2,link-bw=1,link-lat=3,
 * shape=ring,map=greedy,local-mem=16,epr=2". `k` is the per-core region
 * count (the machine total becomes cores * k); keys that are absent
 * leave the corresponding field of @p arch untouched; "shape" accepts
 * ring|mesh|all-to-all (default ring for cores > 1), "map" accepts
 * greedy|roundrobin, and "link=a-b" (repeatable) adds an explicit extra
 * link between two cores. The resulting topology is validated.
 * @return false (with @p error set) on a malformed or invalid spec.
 */
bool parseTopologySpec(const std::string &spec, MultiSimdArch &arch,
                       std::string &error);

} // namespace msq

#endif // MSQ_ARCH_MULTI_SIMD_HH
