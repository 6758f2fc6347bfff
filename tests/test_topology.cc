/**
 * @file
 * Tests for the multi-core topology backend (DESIGN.md §16): topology
 * construction validation (A-code family), deterministic routing,
 * fingerprints, --topology spec parsing, the qubit-partitioning pass
 * and the topology-aware movement-phase cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "analysis/qubit_mapping.hh"
#include "analysis/schedule_summary.hh"
#include "arch/location.hh"
#include "arch/multi_simd.hh"
#include "arch/schedule.hh"
#include "arch/topology.hh"
#include "core/toolflow.hh"
#include "ir/dag.hh"
#include "ir/program.hh"
#include "sched/comm.hh"
#include "sched/core_affinity.hh"
#include "sched/lpfs.hh"
#include "sched/rcp.hh"
#include "support/diagnostic.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "workloads/workloads.hh"

#include "expect_summary.hh"
#include "test_schedule_builder.hh"

namespace {

using namespace msq;

Topology
multiCoreTopo(unsigned cores, unsigned regionsPerCore,
              TopologyShape shape = TopologyShape::Ring)
{
    Topology topo;
    topo.cores = cores;
    topo.regionsPerCore = regionsPerCore;
    topo.shape = shape;
    return topo;
}

TEST(Topology, DefaultIsFlatMachine)
{
    Topology topo;
    EXPECT_FALSE(topo.multiCore());
    EXPECT_TRUE(topo.edges().empty());
    EXPECT_EQ(topo.fingerprint(), "");
    EXPECT_EQ(topo.describe(), "");
    EXPECT_TRUE(topo.validate());
    EXPECT_EQ(topo.coreOfRegion(0), 0u);
    EXPECT_EQ(topo.coreOfRegion(17), 0u);
}

// A001: a machine with no cores cannot exist.
TEST(Topology, ValidateRejectsZeroCores)
{
    Topology topo;
    topo.cores = 0;
    DiagnosticEngine diags;
    EXPECT_FALSE(topo.validate(&diags));
    EXPECT_TRUE(diags.has(DiagCode::ArchNoCores));
}

// A002: a zero-bandwidth link can never carry a teleport.
TEST(Topology, ValidateRejectsZeroLinkBandwidth)
{
    Topology topo = multiCoreTopo(2, 1);
    topo.linkBandwidth = 0;
    DiagnosticEngine diags;
    EXPECT_FALSE(topo.validate(&diags));
    EXPECT_TRUE(diags.has(DiagCode::ArchZeroLinkBandwidth));
}

// A003: multiple cores with no links between them cannot route.
TEST(Topology, ValidateRejectsDisconnectedEdgelessGraph)
{
    Topology topo = multiCoreTopo(3, 1, TopologyShape::SingleCore);
    DiagnosticEngine diags;
    EXPECT_FALSE(topo.validate(&diags));
    EXPECT_TRUE(diags.has(DiagCode::ArchDisconnectedTopology));
}

// A003 also fires for an extra link naming a core that does not exist.
TEST(Topology, ValidateRejectsOutOfRangeLink)
{
    Topology topo = multiCoreTopo(2, 1);
    topo.extraLinks.push_back({0, 9});
    DiagnosticEngine diags;
    EXPECT_FALSE(topo.validate(&diags));
    EXPECT_TRUE(diags.has(DiagCode::ArchDisconnectedTopology));
}

// A004: a core linked to itself is a construction error.
TEST(Topology, ValidateRejectsSelfLoopLink)
{
    Topology topo = multiCoreTopo(2, 1);
    topo.extraLinks.push_back({1, 1});
    DiagnosticEngine diags;
    EXPECT_FALSE(topo.validate(&diags));
    EXPECT_TRUE(diags.has(DiagCode::ArchSelfLoopLink));
}

// A005: a multi-core machine must say how its regions split.
TEST(Topology, ValidateRejectsMissingRegionSplit)
{
    Topology topo = multiCoreTopo(4, 0);
    DiagnosticEngine diags;
    EXPECT_FALSE(topo.validate(&diags));
    EXPECT_TRUE(diags.has(DiagCode::ArchNoRegionSplit));
}

// Without a DiagnosticEngine the construction contract is fatal(),
// exactly like MultiSimdArch::validate.
TEST(Topology, ValidateWithoutEngineThrows)
{
    Topology topo;
    topo.cores = 0;
    EXPECT_THROW(topo.validate(), FatalError);
}

TEST(Topology, EdgesAreCanonicalAndShapeCorrect)
{
    // Ring of 4: a cycle, each pair ascending, list sorted.
    Topology ring = multiCoreTopo(4, 2);
    std::vector<std::pair<unsigned, unsigned>> want_ring{
        {0, 1}, {0, 3}, {1, 2}, {2, 3}};
    EXPECT_EQ(ring.edges(), want_ring);

    // Ring of 2 degenerates to a single link, not a doubled one.
    EXPECT_EQ(multiCoreTopo(2, 1).edges().size(), 1u);

    // 2x2 mesh: 4 edges. All-to-all of 4: 6 edges.
    EXPECT_EQ(multiCoreTopo(4, 1, TopologyShape::Mesh).edges().size(),
              4u);
    EXPECT_EQ(
        multiCoreTopo(4, 1, TopologyShape::AllToAll).edges().size(),
        6u);

    // Extra links are normalized and deduplicated into the list.
    Topology chord = multiCoreTopo(4, 1);
    chord.extraLinks.push_back({2, 0}); // descending on purpose
    chord.extraLinks.push_back({0, 1}); // duplicate of a ring edge
    std::vector<std::pair<unsigned, unsigned>> want_chord{
        {0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3}};
    EXPECT_EQ(chord.edges(), want_chord);
    EXPECT_TRUE(chord.validate());
}

TEST(Topology, CoreOfRegionGeometry)
{
    Topology topo = multiCoreTopo(4, 2);
    EXPECT_EQ(topo.coreOfRegion(0), 0u);
    EXPECT_EQ(topo.coreOfRegion(1), 0u);
    EXPECT_EQ(topo.coreOfRegion(2), 1u);
    EXPECT_EQ(topo.coreOfRegion(7), 3u);
    // Regions past the split clamp to the last core instead of
    // inventing cores that do not exist.
    EXPECT_EQ(topo.coreOfRegion(100), 3u);
}

TEST(Topology, FingerprintAndDescribe)
{
    Topology topo = multiCoreTopo(4, 2);
    topo.linkBandwidth = 1;
    topo.linkLatency = 3;
    EXPECT_EQ(topo.fingerprint(),
              "topo=ring:4x2|lbw=1|llat=3|map=greedy");
    EXPECT_EQ(topo.describe(), "ring(4x2, link-bw=1, link-lat=3)");

    topo.mapping = MappingStrategy::RoundRobin;
    EXPECT_EQ(topo.fingerprint(),
              "topo=ring:4x2|lbw=1|llat=3|map=roundrobin");

    // Extra links are part of the cache key, in canonical order
    // regardless of the order they were specified in.
    Topology with_links = multiCoreTopo(4, 2);
    with_links.linkBandwidth = 1;
    with_links.linkLatency = 3;
    with_links.extraLinks.push_back({2, 0});
    with_links.extraLinks.push_back({1, 3});
    EXPECT_EQ(with_links.fingerprint(),
              "topo=ring:4x2|lbw=1|llat=3|map=greedy|links=0-2.1-3");
}

TEST(TopologyRouter, ShortestPathsAreDeterministic)
{
    Topology ring = multiCoreTopo(4, 1);
    TopologyRouter router(ring);
    EXPECT_EQ(router.dist(0, 0), 0u);
    EXPECT_EQ(router.dist(0, 1), 1u);
    EXPECT_EQ(router.dist(0, 2), 2u);
    EXPECT_EQ(router.dist(3, 1), 2u);

    // The canonical route 0 -> 2 goes through core 1 (the
    // lexicographically-least shortest path), never through core 3.
    std::vector<unsigned> route;
    router.routeEdges(0, 2, route);
    ASSERT_EQ(route.size(), 2u);
    EXPECT_EQ(router.edges()[route[0]], std::make_pair(0u, 1u));
    EXPECT_EQ(router.edges()[route[1]], std::make_pair(1u, 2u));

    // routeEdges appends: callers own clearing.
    router.routeEdges(0, 1, route);
    EXPECT_EQ(route.size(), 3u);

    // All-to-all: every pair one hop apart.
    TopologyRouter full(multiCoreTopo(4, 1, TopologyShape::AllToAll));
    for (unsigned a = 0; a < 4; ++a)
        for (unsigned b = 0; b < 4; ++b)
            EXPECT_EQ(full.dist(a, b), a == b ? 0u : 1u);

    // 2x3 mesh: opposite corners are 3 hops apart.
    TopologyRouter mesh(multiCoreTopo(6, 1, TopologyShape::Mesh));
    EXPECT_EQ(mesh.dist(0, 5), 3u);
}

TEST(ParseTopologySpec, GoodSpecConfiguresArch)
{
    MultiSimdArch arch;
    std::string error;
    ASSERT_TRUE(parseTopologySpec(
        "cores=4,k=2,shape=ring,link-bw=1,link-lat=3,map=roundrobin",
        arch, error))
        << error;
    EXPECT_EQ(arch.k, 8u); // machine total = cores * per-core k
    EXPECT_EQ(arch.topology.cores, 4u);
    EXPECT_EQ(arch.topology.regionsPerCore, 2u);
    EXPECT_EQ(arch.topology.shape, TopologyShape::Ring);
    EXPECT_EQ(arch.topology.linkBandwidth, 1u);
    EXPECT_EQ(arch.topology.linkLatency, 3u);
    EXPECT_EQ(arch.topology.mapping, MappingStrategy::RoundRobin);
}

TEST(ParseTopologySpec, DefaultsAndSingleCore)
{
    // cores=1 collapses to the flat machine whatever else is set.
    MultiSimdArch arch;
    std::string error;
    ASSERT_TRUE(parseTopologySpec("cores=1,k=6", arch, error)) << error;
    EXPECT_EQ(arch.k, 6u);
    EXPECT_FALSE(arch.topology.multiCore());
    EXPECT_EQ(arch.fingerprint(), MultiSimdArch(6).fingerprint());

    // cores>1 without shape defaults to a ring; omitted k keeps the
    // arch's k as the per-core tile size.
    MultiSimdArch arch2(4);
    ASSERT_TRUE(parseTopologySpec("cores=2", arch2, error)) << error;
    EXPECT_EQ(arch2.topology.shape, TopologyShape::Ring);
    EXPECT_EQ(arch2.topology.regionsPerCore, 4u);
    EXPECT_EQ(arch2.k, 8u);
}

TEST(ParseTopologySpec, ExtraLinks)
{
    MultiSimdArch arch;
    std::string error;
    ASSERT_TRUE(parseTopologySpec("cores=4,k=1,link=0-2,link=1-3",
                                  arch, error))
        << error;
    ASSERT_EQ(arch.topology.extraLinks.size(), 2u);
    EXPECT_EQ(arch.topology.extraLinks[0], std::make_pair(0u, 2u));
    EXPECT_EQ(arch.topology.edges().size(), 6u); // ring(4) + 2 chords
}

TEST(ParseTopologySpec, BadSpecsRejected)
{
    const char *bad[] = {
        "nonsense",                 // not key=value
        "cores=0",                  // A001 at validation
        "cores=4,k=2,link-bw=0",    // A002
        "cores=4,k=2,shape=single", // A003 (edgeless multi-core)
        "cores=4,k=2,link=1-1",     // A004 self-loop
        "cores=4,k=2,link=0-z",     // malformed link pair
        "cores=4,k=2,link=07",      // no dash
        "cores=two",                // non-numeric count
        "cores=4,k=0",              // zero per-core regions
        "shape=torus",              // unknown shape
        "map=random",               // unknown strategy
        "cores=4,k=2,link-lat=0",   // zero-latency link
        "frobnicate=1",             // unknown key
    };
    for (const char *spec : bad) {
        MultiSimdArch arch;
        std::string error;
        EXPECT_FALSE(parseTopologySpec(spec, arch, error))
            << "spec accepted: " << spec;
        EXPECT_FALSE(error.empty()) << spec;
    }
}

// --- qubit mapping -----------------------------------------------------

/** Two 3-qubit cliques joined by a single weak edge. */
Module
twoClusterModule()
{
    Module mod("clusters");
    auto reg = mod.addRegister("q", 6);
    for (int rep = 0; rep < 4; ++rep) {
        mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
        mod.addGate(GateKind::CNOT, {reg[1], reg[2]});
        mod.addGate(GateKind::CNOT, {reg[0], reg[2]});
        mod.addGate(GateKind::CNOT, {reg[3], reg[4]});
        mod.addGate(GateKind::CNOT, {reg[4], reg[5]});
        mod.addGate(GateKind::CNOT, {reg[3], reg[5]});
    }
    mod.addGate(GateKind::CNOT, {reg[2], reg[3]}); // weak bridge
    return mod;
}

TEST(QubitMapping, InteractionGraphCountsSharedOperands)
{
    Module mod = twoClusterModule();
    QubitInteractionGraph graph(mod);
    EXPECT_EQ(graph.numQubits(), 6u);
    EXPECT_EQ(graph.weight(0, 1), 4u);
    EXPECT_EQ(graph.weight(1, 0), 4u);
    EXPECT_EQ(graph.weight(2, 3), 1u);
    EXPECT_EQ(graph.weight(0, 5), 0u);
    EXPECT_EQ(graph.totalWeight(0), 8u);
    EXPECT_EQ(graph.totalWeight(2), 9u); // 4 + 4 + bridge
    uint64_t total = 0;
    for (QubitId q = 0; q < graph.numQubits(); ++q)
        total += graph.totalWeight(q);
    EXPECT_EQ(total / 2, 25u); // 6 clique edges * 4 + bridge
}

TEST(QubitMapping, GreedyKeepsClustersTogether)
{
    Module mod = twoClusterModule();
    Topology topo = multiCoreTopo(2, 2);
    std::vector<unsigned> mapping = computeQubitMapping(mod, topo);
    ASSERT_EQ(mapping.size(), 6u);
    // Each clique lands on one core; only the bridge edge is cut.
    EXPECT_EQ(mapping[0], mapping[1]);
    EXPECT_EQ(mapping[1], mapping[2]);
    EXPECT_EQ(mapping[3], mapping[4]);
    EXPECT_EQ(mapping[4], mapping[5]);
    EXPECT_NE(mapping[0], mapping[3]);
    EXPECT_EQ(mappingCutWeight(mod, mapping), 1u);

    // Round-robin scatters both cliques across the cores.
    Topology rr = topo;
    rr.mapping = MappingStrategy::RoundRobin;
    std::vector<unsigned> naive = computeQubitMapping(mod, rr);
    for (unsigned q = 0; q < 6; ++q)
        EXPECT_EQ(naive[q], q % 2);
    EXPECT_GT(mappingCutWeight(mod, naive),
              mappingCutWeight(mod, mapping));
}

TEST(QubitMapping, DeterministicAcrossCalls)
{
    Module mod = twoClusterModule();
    Topology topo = multiCoreTopo(4, 1);
    std::vector<unsigned> first = computeQubitMapping(mod, topo);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(computeQubitMapping(mod, topo), first);
}

/**
 * Reference greedy mapping: a copy of the library's placement, kept
 * independent of it so the refinement below starts from the same
 * mapping.
 */
std::vector<unsigned>
referenceGreedy(const QubitInteractionGraph &graph, unsigned cores)
{
    const unsigned n = graph.numQubits();
    const uint64_t capacity = (uint64_t(n) + cores - 1) / cores;
    std::vector<QubitId> order(n);
    for (unsigned q = 0; q < n; ++q)
        order[q] = q;
    std::sort(order.begin(), order.end(), [&](QubitId a, QubitId b) {
        if (graph.totalWeight(a) != graph.totalWeight(b))
            return graph.totalWeight(a) > graph.totalWeight(b);
        return a < b;
    });
    std::vector<unsigned> mapping(n, std::numeric_limits<unsigned>::max());
    std::vector<uint64_t> load(cores, 0);
    for (QubitId q : order) {
        unsigned best = cores;
        uint64_t best_attraction = 0;
        for (unsigned c = 0; c < cores; ++c) {
            if (load[c] >= capacity)
                continue;
            uint64_t attraction = 0;
            for (const auto &[nbr, weight] : graph.neighbors(q))
                if (mapping[nbr] == c)
                    attraction += weight;
            if (best == cores || attraction > best_attraction ||
                (attraction == best_attraction && load[c] < load[best])) {
                best = c;
                best_attraction = attraction;
            }
        }
        mapping[q] = best;
        ++load[best];
    }
    return mapping;
}

/**
 * Reference swap refinement: the straightforward O(n^2 * degree) form,
 * recomputing both endpoints' attraction from their neighbor lists for
 * every pair. The library keeps an incremental attraction table and
 * must reach the same mapping.
 */
void
referenceRefine(const QubitInteractionGraph &graph,
                std::vector<unsigned> &mapping)
{
    const unsigned n = graph.numQubits();
    if (n > 512)
        return;
    auto to_core = [&](QubitId q, unsigned core) {
        uint64_t w = 0;
        for (const auto &[nbr, weight] : graph.neighbors(q))
            if (mapping[nbr] == core)
                w += weight;
        return w;
    };
    for (unsigned pass = 0; pass < 4; ++pass) {
        bool improved = false;
        for (QubitId a = 0; a < n; ++a) {
            for (QubitId b = a + 1; b < n; ++b) {
                const unsigned ca = mapping[a], cb = mapping[b];
                if (ca == cb)
                    continue;
                const int64_t gain =
                    (int64_t(to_core(a, cb)) - int64_t(to_core(a, ca))) +
                    (int64_t(to_core(b, ca)) - int64_t(to_core(b, cb))) -
                    2 * int64_t(graph.weight(a, b));
                if (gain > 0) {
                    mapping[a] = cb;
                    mapping[b] = ca;
                    improved = true;
                }
            }
        }
        if (!improved)
            break;
    }
}

std::vector<unsigned>
referenceMapping(const Module &mod, unsigned cores)
{
    QubitInteractionGraph graph(mod);
    std::vector<unsigned> mapping = referenceGreedy(graph, cores);
    referenceRefine(graph, mapping);
    return mapping;
}

/** Random interaction graph: @p gates 2- and 3-qubit gates over @p n
 * qubits, drawn from a few hot clusters so swaps have work to do. */
Module
randomInteractionModule(SplitMix64 &rng, unsigned n, unsigned gates)
{
    Module mod("interactions");
    auto reg = mod.addRegister("q", n);
    const unsigned cluster = 1 + static_cast<unsigned>(rng.nextBelow(n));
    auto pick = [&](unsigned base) {
        return reg[(base + rng.nextBelow(cluster)) % n];
    };
    for (unsigned i = 0; i < gates; ++i) {
        const auto base = static_cast<unsigned>(rng.nextBelow(n));
        QubitId a = pick(base), b = pick(base), c = pick(base);
        if (n < 2 || a == b)
            continue;
        if (n >= 3 && c != a && c != b && rng.nextBelow(4) == 0)
            mod.addGate(GateKind::Toffoli, {a, b, c});
        else
            mod.addGate(GateKind::CNOT, {a, b});
    }
    return mod;
}

/**
 * The incremental swap refinement reaches exactly the reference's
 * mapping on random interaction graphs, for several core counts and on
 * both sides of the 512-qubit refinement cap.
 */
TEST(QubitMapping, MatchesReferenceOnRandomGraphs)
{
    SplitMix64 rng(2015);
    const unsigned sizes[] = {1, 2, 3, 7, 16, 40, 97, 200, 511, 512, 513,
                              600};
    for (unsigned n : sizes) {
        for (unsigned cores : {2u, 3u, 4u, 8u}) {
            const auto gates = static_cast<unsigned>(
                n * (1 + rng.nextBelow(6)));
            Module mod = randomInteractionModule(rng, n, gates);
            SCOPED_TRACE(csprintf("n=%u, cores=%u, gates=%u", n, cores,
                                  gates));
            EXPECT_EQ(computeQubitMapping(mod, multiCoreTopo(cores, 1)),
                      referenceMapping(mod, cores));
        }
    }
}

/** The two multi-core points of the architecture sweep. */
std::vector<std::pair<std::string, MultiSimdArch>>
sweepTopologies()
{
    std::vector<std::pair<std::string, MultiSimdArch>> archs;
    for (const char *spec : {"cores=2,k=2,shape=ring,link-bw=2",
                             "cores=4,k=2,shape=mesh,link-bw=2"}) {
        MultiSimdArch arch;
        std::string error;
        EXPECT_TRUE(parseTopologySpec(spec, arch, error)) << error;
        archs.emplace_back(spec, arch);
    }
    return archs;
}

TEST(QubitMapping, MatchesReferenceOnWorkloadLeaves)
{
    const auto archs = sweepTopologies();
    for (const auto &spec : workloads::scaledParams()) {
        Program prog = Toolflow::lowerWorkload(spec);
        for (ModuleId id : prog.reachableModules()) {
            const Module &mod = prog.module(id);
            if (!mod.isLeaf())
                continue;
            for (const auto &[name, arch] : archs) {
                SCOPED_TRACE(spec.shortName + "/" + mod.name() + " " +
                             name);
                EXPECT_EQ(computeQubitMapping(mod, arch.topology),
                          referenceMapping(mod, arch.topology.cores));
            }
        }
    }
}

TEST(QubitMapping, SingleCoreMapsEverythingToZero)
{
    Module mod = twoClusterModule();
    std::vector<unsigned> mapping =
        computeQubitMapping(mod, Topology{});
    for (unsigned core : mapping)
        EXPECT_EQ(core, 0u);
    EXPECT_EQ(mappingCutWeight(mod, mapping), 0u);
}

// --- movement-phase cost model -----------------------------------------

TEST(MovePhaseCostModel, FlatMachineMatchesMovePhaseCycles)
{
    MultiSimdArch arch = MultiSimdArch(4).withEprBandwidth(2);
    MovePhaseCostModel model(arch);

    std::vector<Move> moves;
    auto check = [&] {
        EXPECT_EQ(model.cycles(moves),
                  movePhaseCycles(moves, arch.eprBandwidth));
    };
    check();
    moves.push_back({0, Location::global(), Location::inRegion(0),
                     false});
    check();
    moves.push_back({1, Location::inRegion(0), Location::inLocalMem(0),
                     false});
    check();
    for (QubitId q = 2; q < 7; ++q) {
        moves.push_back({q, Location::global(), Location::inRegion(1),
                         true});
        check();
    }
}

TEST(MovePhaseCostModel, InterCoreRoutesOverLinks)
{
    MultiSimdArch arch;
    std::string error;
    ASSERT_TRUE(parseTopologySpec(
        "cores=4,k=1,shape=ring,link-bw=1,link-lat=3", arch, error))
        << error;
    MovePhaseCostModel model(arch);

    // Region 0 (core 0) -> region 2 (core 2): 2 hops on the ring.
    Move two_hops{0, Location::inRegion(0), Location::inRegion(2),
                  true};
    EXPECT_TRUE(model.interCore(two_hops));
    // One blocking inter-core teleport: linkLatency * hops cycles.
    EXPECT_EQ(model.cycles({&two_hops, 1}), 6u);

    // A fetch from core 2's memory bank into core 0 is also 2 hops.
    Move bank_fetch{1, Location::inMemory(2), Location::inRegion(0),
                    true};
    EXPECT_TRUE(model.interCore(bank_fetch));
    EXPECT_EQ(model.cycles({&bank_fetch, 1}), 6u);

    // Intra-core traffic stays on the EPR fabric: a blocking move
    // within core 1 costs the classic 4-cycle teleport.
    Move intra{2, Location::inMemory(1), Location::inRegion(1), true};
    EXPECT_FALSE(model.interCore(intra));
    EXPECT_EQ(model.cycles({&intra, 1}), 4u);

    // Two blocking one-hop teleports crowding the same link serialize
    // into a second pipelined round: lat * (hops + rounds - 1).
    std::vector<Move> crowd{
        {3, Location::inRegion(0), Location::inRegion(1), true},
        {4, Location::inMemory(0), Location::inRegion(1), true},
    };
    EXPECT_EQ(model.cycles(crowd), 6u);
}

TEST(LocationCore, MapsThroughTopology)
{
    MultiSimdArch arch;
    std::string error;
    ASSERT_TRUE(parseTopologySpec("cores=2,k=2", arch, error)) << error;
    EXPECT_EQ(locationCore(Location::inRegion(0), arch), 0u);
    EXPECT_EQ(locationCore(Location::inRegion(1), arch), 0u);
    EXPECT_EQ(locationCore(Location::inRegion(2), arch), 1u);
    EXPECT_EQ(locationCore(Location::inLocalMem(3), arch), 1u);
    EXPECT_EQ(locationCore(Location::global(), arch), 0u);
    EXPECT_EQ(locationCore(Location::inMemory(1), arch), 1u);
}

TEST(MultiSimdArch, FingerprintCoversTopology)
{
    MultiSimdArch flat(4, 16, 2);
    EXPECT_EQ(flat.fingerprint(), "d=16|lm=2|epr=" +
              std::to_string(unbounded));

    MultiSimdArch multi;
    std::string error;
    ASSERT_TRUE(parseTopologySpec("cores=2,k=2,link-bw=1", multi,
                                  error))
        << error;
    EXPECT_NE(multi.fingerprint().find("topo=ring:2x2"),
              std::string::npos);
    // Same machine, different mapping strategy: different key.
    MultiSimdArch rr;
    ASSERT_TRUE(parseTopologySpec("cores=2,k=2,link-bw=1,map=roundrobin",
                                  rr, error))
        << error;
    EXPECT_NE(multi.fingerprint(), rr.fingerprint());
}

// --- core-affinity region rebind ---------------------------------------

/** Two independent 2-qubit pairs; greedy maps each pair to its own core. */
Module
pairModule()
{
    Module mod("pairs");
    auto reg = mod.addRegister("q", 4);
    for (int rep = 0; rep < 4; ++rep)
        mod.addGate(GateKind::CNOT, {reg[0], reg[1]});
    for (int rep = 0; rep < 4; ++rep)
        mod.addGate(GateKind::CNOT, {reg[2], reg[3]});
    return mod;
}

TEST(CoreAffinity, SingleCoreIsIdentity)
{
    Module mod = twoClusterModule();
    MultiSimdArch arch(2);
    LeafSchedule sched = RcpScheduler().schedule(mod, arch);
    LeafSchedule same = applyCoreAffinity(sched, arch);
    // No rebind on the flat machine: the very same buffer comes back.
    EXPECT_EQ(same.sharedBuffer().get(), sched.sharedBuffer().get());
}

TEST(CoreAffinity, SlotsLandOnHomeCores)
{
    Module mod = pairModule();
    MultiSimdArch arch;
    std::string error;
    ASSERT_TRUE(parseTopologySpec("cores=2,k=1", arch, error)) << error;
    std::vector<unsigned> home = computeQubitMapping(mod, arch.topology);
    ASSERT_EQ(home[0], home[1]);
    ASSERT_EQ(home[2], home[3]);
    ASSERT_NE(home[0], home[2]);

    // Hand-place each step so both pairs sit on the WRONG core: ops
    // 0..3 touch {q0,q1}, ops 4..7 touch {q2,q3}.
    ScheduleBuilder builder(mod, arch.k);
    for (uint32_t i = 0; i < 4; ++i) {
        builder.beginStep();
        builder.slot(home[2]).kind = GateKind::CNOT;
        builder.slot(home[2]).ops.push_back(i);
        builder.slot(home[0]).kind = GateKind::CNOT;
        builder.slot(home[0]).ops.push_back(4 + i);
        builder.endStep();
    }
    LeafSchedule sched = builder.finish();

    LeafSchedule bound = applyCoreAffinity(sched, arch);
    ASSERT_EQ(bound.computeTimesteps(), 4u);
    EXPECT_EQ(bound.scheduledOps(), 8u);
    for (TimestepView step : bound.steps()) {
        ASSERT_EQ(step.activeRegions(), 2u);
        for (RegionSlotView slot : step) {
            ASSERT_EQ(slot.ops().size(), 1u);
            QubitId q = mod.op(slot.ops()[0]).operands[0];
            EXPECT_EQ(arch.coreOfRegion(slot.region()), home[q])
                << "op " << slot.ops()[0] << " off its home core";
        }
    }

    // Deterministic and stable: rebinding again changes nothing.
    LeafSchedule again = applyCoreAffinity(bound, arch);
    EXPECT_EQ(again.buffer().slots.size(), bound.buffer().slots.size());
    for (size_t i = 0; i < bound.buffer().slots.size(); ++i)
        EXPECT_EQ(again.buffer().slots[i].region,
                  bound.buffer().slots[i].region);
}

/**
 * The rebind's assignment order is heavier groups first, equal weights
 * in group order (slot order, then first op): pinned on two
 * hand-built steps of a 4-core, one-region-per-core machine, with
 * every qubit's home given explicitly.
 */
TEST(CoreAffinity, EqualWeightGroupsClaimCoresInGroupOrder)
{
    MultiSimdArch arch;
    std::string error;
    ASSERT_TRUE(parseTopologySpec("cores=4,k=1", arch, error)) << error;
    ASSERT_EQ(arch.k, 4u);
    for (unsigned r = 0; r < arch.k; ++r)
        ASSERT_EQ(arch.coreOfRegion(r), r);

    Module mod("ties");
    auto q = mod.addRegister("q", 11);
    const std::vector<unsigned> home = {3, 3, 3, 0, 0, // step 1
                                        3, 3, 1, 2, 0, 0}; // step 2
    // Step 1 (ops 0-3): three weight-1 groups that all prefer core 3,
    // and one weight-2 group that prefers core 0.
    mod.addGate(GateKind::H, {q[0]});
    mod.addGate(GateKind::H, {q[1]});
    mod.addGate(GateKind::H, {q[2]});
    mod.addGate(GateKind::CNOT, {q[3], q[4]});
    const uint32_t t0 = 0, t1 = 1, t2 = 2, pair = 3;
    // Step 2 (ops 4-9): five groups on four regions. Region 0's slot
    // splits into a core-3 group {a0, a1} and a core-1 group {b}; the
    // lighter one merges back, leaving a weight-3 group and three
    // weight-1 groups.
    for (size_t i = 5; i < 11; ++i)
        mod.addGate(GateKind::H, {q[i]});
    const uint32_t a0 = 4, a1 = 5, b = 6, c = 7, d = 8, e = 9;

    LeafSchedule sched = test::TestScheduleBuilder(mod, arch.k)
                             .step({{0, t0}, {1, t1}, {2, t2}, {3, pair}})
                             .step({{0, a0},
                                    {0, a1},
                                    {0, b},
                                    {1, c},
                                    {2, d},
                                    {3, e}})
                             .take();
    const LeafSchedule bound = applyCoreAffinity(sched, arch, home);

    // (region, ops) of each slot, step by step, region-ascending.
    using Slots = std::vector<std::pair<unsigned, std::vector<uint32_t>>>;
    const std::vector<Slots> expected = {
        // The pair takes core 0 first; t0, t1, t2 then claim in that
        // order: t0 wins core 3, t1 and t2 keep their regions.
        {{0, {pair}}, {1, {t1}}, {2, {t2}}, {3, {t0}}},
        // The merged group takes core 3; then c keeps core 2, d takes
        // core 0 and e, last of the ties, the one core left.
        {{0, {d}}, {1, {e}}, {2, {c}}, {3, {a0, a1, b}}},
    };
    ASSERT_EQ(bound.computeTimesteps(), expected.size());
    for (TimestepView step : bound.steps()) {
        Slots got;
        for (RegionSlotView slot : step)
            got.emplace_back(slot.region(),
                             std::vector<uint32_t>(slot.ops().begin(),
                                                   slot.ops().end()));
        EXPECT_EQ(got, expected[step.index()]) << "step " << step.index();
    }
}

void
expectSameBuffer(const ScheduleBuffer &a, const ScheduleBuffer &b)
{
    EXPECT_EQ(a.k, b.k);
    ASSERT_EQ(a.slots.size(), b.slots.size());
    for (size_t i = 0; i < a.slots.size(); ++i) {
        EXPECT_EQ(a.slots[i].opEnd, b.slots[i].opEnd) << "slot " << i;
        EXPECT_EQ(a.slots[i].region, b.slots[i].region) << "slot " << i;
        EXPECT_EQ(a.slots[i].kind, b.slots[i].kind) << "slot " << i;
    }
    EXPECT_EQ(a.slotEnd, b.slotEnd);
    EXPECT_EQ(a.ops, b.ops);
    ASSERT_EQ(a.moves.size(), b.moves.size());
    for (size_t i = 0; i < a.moves.size(); ++i) {
        EXPECT_EQ(a.moves[i].qubit, b.moves[i].qubit) << "move " << i;
        EXPECT_EQ(a.moves[i].from, b.moves[i].from) << "move " << i;
        EXPECT_EQ(a.moves[i].to, b.moves[i].to) << "move " << i;
        EXPECT_EQ(a.moves[i].blocking, b.moves[i].blocking)
            << "move " << i;
    }
    EXPECT_EQ(a.moveEnd, b.moveEnd);
}

/**
 * A mapping computed once per leaf and passed down changes nothing: on
 * every scaled workload leaf and both sweep topologies, the rebind
 * inside RCP/LPFS and applyCoreAffinity itself give the same schedule
 * with the passed mapping as without, and annotate gives the same
 * moves and ResourceSummary under every communication mode.
 */
TEST(CoreAffinity, PassedMappingMatchesComputed)
{
    const RcpScheduler rcp;
    const LpfsScheduler lpfs;
    const auto archs = sweepTopologies();
    for (const auto &spec : workloads::scaledParams()) {
        Program prog = Toolflow::lowerWorkload(spec);
        // Shor's 128 one-qubit leaves are alike; a few cover them.
        unsigned leaves_left = 8;
        for (ModuleId id : prog.reachableModules()) {
            const Module &mod = prog.module(id);
            if (!mod.isLeaf() || leaves_left == 0)
                continue;
            --leaves_left;
            const DepDag dag = DepDag::build(mod);
            for (const auto &[name, arch] : archs) {
                const std::vector<unsigned> home =
                    computeQubitMapping(mod, arch.topology);
                for (const LeafScheduler *scheduler :
                     {static_cast<const LeafScheduler *>(&rcp),
                      static_cast<const LeafScheduler *>(&lpfs)}) {
                    SCOPED_TRACE(spec.shortName + "/" + mod.name() + " " +
                                 name + " " + scheduler->name());
                    ScheduleAttempt attempt;
                    LeafSchedule passed = scheduler->scheduleWithAttempt(
                        mod, dag, arch, attempt, home);
                    LeafSchedule computed = scheduler->schedule(mod, arch);
                    expectSameBuffer(passed.buffer(), computed.buffer());

                    // The bare rebind of the flat machine's schedule.
                    MultiSimdArch flat(arch.k, arch.d);
                    LeafSchedule unbound = scheduler->schedule(mod, flat);
                    expectSameBuffer(
                        applyCoreAffinity(unbound, arch, home).buffer(),
                        applyCoreAffinity(unbound, arch).buffer());

                    for (CommMode mode :
                         {CommMode::None, CommMode::Global,
                          CommMode::GlobalWithLocalMem}) {
                        MultiSimdArch machine = arch;
                        machine.localMemCapacity =
                            mode == CommMode::GlobalWithLocalMem ? 2 : 0;
                        const CommunicationAnalyzer comm(machine, mode);
                        LeafSchedule with_home = passed;
                        LeafSchedule without = passed;
                        ResourceSummary sum_home, sum_without;
                        comm.annotate(with_home, sum_home, home);
                        comm.annotate(without, sum_without);
                        expectSameBuffer(with_home.buffer(),
                                         without.buffer());
                        test::expectSameSummary(sum_home, sum_without);
                    }
                }
            }
        }
    }
}

TEST(CoreAffinity, GreedyMappingCutsInterCoreTeleports)
{
    Module mod = twoClusterModule();
    std::string error;
    MultiSimdArch greedy;
    ASSERT_TRUE(parseTopologySpec("cores=2,k=1", greedy, error)) << error;
    MultiSimdArch naive = greedy;
    naive.topology.mapping = MappingStrategy::RoundRobin;

    auto teleports = [&](const MultiSimdArch &arch) {
        LeafSchedule sched = RcpScheduler().schedule(mod, arch);
        return CommunicationAnalyzer(arch, CommMode::Global)
            .annotate(sched)
            .interCoreTeleports;
    };
    // The clustered mapping keeps each clique's traffic on one core;
    // round-robin interleaves the cliques across both.
    EXPECT_LT(teleports(greedy), teleports(naive));
}

} // namespace
