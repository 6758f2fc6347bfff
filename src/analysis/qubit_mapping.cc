#include "analysis/qubit_mapping.hh"

#include <algorithm>
#include <map>

#include "support/logging.hh"

namespace msq {

namespace {

/** Pairwise-swap refinement visits O(n^2) pairs per pass; above this
 * qubit count the greedy placement stands alone (the cap is part of
 * the deterministic contract — it depends only on the module). */
constexpr unsigned refinementQubitCap = 512;

/** Bounded number of full swap passes (each pass is monotone in the
 * cut weight, so four passes converge on every practical module). */
constexpr unsigned refinementPasses = 4;

std::vector<unsigned>
greedyMapping(const QubitInteractionGraph &graph, unsigned cores)
{
    const unsigned n = graph.numQubits();
    const uint64_t capacity = (uint64_t(n) + cores - 1) / cores;

    // Hot qubits first: they anchor their neighborhoods, so placing
    // them early gives later qubits a meaningful attraction signal.
    std::vector<QubitId> order(n);
    for (unsigned q = 0; q < n; ++q)
        order[q] = q;
    std::sort(order.begin(), order.end(), [&](QubitId a, QubitId b) {
        uint64_t wa = graph.totalWeight(a);
        uint64_t wb = graph.totalWeight(b);
        if (wa != wb)
            return wa > wb;
        return a < b;
    });

    constexpr unsigned unplaced = std::numeric_limits<unsigned>::max();
    std::vector<unsigned> mapping(n, unplaced);
    std::vector<uint64_t> load(cores, 0);
    for (QubitId q : order) {
        unsigned best = cores;
        uint64_t best_attraction = 0;
        uint64_t best_load = 0;
        for (unsigned c = 0; c < cores; ++c) {
            if (load[c] >= capacity)
                continue;
            uint64_t attraction = 0;
            for (const auto &[nbr, weight] : graph.neighbors(q))
                if (mapping[nbr] == c)
                    attraction += weight;
            // Prefer attraction, then the emptier core, then the
            // lower index — every tiebreak is total, so the placement
            // is a pure function of the interaction graph.
            if (best == cores || attraction > best_attraction ||
                (attraction == best_attraction &&
                 load[c] < best_load)) {
                best = c;
                best_attraction = attraction;
                best_load = load[c];
            }
        }
        if (best == cores)
            panic("greedyMapping: no core has capacity left");
        mapping[q] = best;
        ++load[best];
    }
    return mapping;
}

/**
 * Kernighan–Lin-style pairwise swaps over every pair (a < b) in index
 * order, up to refinementPasses passes. The attraction table holds each
 * qubit's summed edge weight into each core under the current mapping,
 * updated for the neighbors of both endpoints on every swap, so a pair
 * costs O(1) and a pass O(n^2 + swaps * degree).
 */
void
refineMapping(const QubitInteractionGraph &graph, unsigned cores,
              std::vector<unsigned> &mapping)
{
    const unsigned n = graph.numQubits();
    if (n > refinementQubitCap)
        return;
    // attraction[q * cores + c]: weight of q's edges into core c.
    std::vector<uint64_t> attraction(size_t(n) * cores, 0);
    for (QubitId q = 0; q < n; ++q)
        for (const auto &[nbr, weight] : graph.neighbors(q))
            attraction[size_t(q) * cores + mapping[nbr]] += weight;
    auto move = [&](QubitId q, unsigned from, unsigned to) {
        for (const auto &[nbr, weight] : graph.neighbors(q)) {
            attraction[size_t(nbr) * cores + from] -= weight;
            attraction[size_t(nbr) * cores + to] += weight;
        }
    };
    // Dense row of a's edge weights, filled per a and cleared after.
    std::vector<uint64_t> row(n, 0);
    for (unsigned pass = 0; pass < refinementPasses; ++pass) {
        bool improved = false;
        for (QubitId a = 0; a < n; ++a) {
            for (const auto &[nbr, weight] : graph.neighbors(a))
                row[nbr] = weight;
            for (QubitId b = a + 1; b < n; ++b) {
                unsigned ca = mapping[a], cb = mapping[b];
                if (ca == cb)
                    continue;
                // Classic KL swap gain: external minus internal
                // attraction of both endpoints, minus twice their own
                // edge (it stays cut after the swap).
                const uint64_t *at_a = &attraction[size_t(a) * cores];
                const uint64_t *at_b = &attraction[size_t(b) * cores];
                int64_t gain =
                    (int64_t(at_a[cb]) - int64_t(at_a[ca])) +
                    (int64_t(at_b[ca]) - int64_t(at_b[cb])) -
                    2 * int64_t(row[b]);
                if (gain > 0) {
                    mapping[a] = cb;
                    mapping[b] = ca;
                    move(a, ca, cb);
                    move(b, cb, ca);
                    improved = true;
                }
            }
            for (const auto &[nbr, weight] : graph.neighbors(a))
                row[nbr] = 0;
        }
        if (!improved)
            break;
    }
}

} // anonymous namespace

QubitInteractionGraph::QubitInteractionGraph(const Module &mod)
    : n(static_cast<unsigned>(mod.numQubits())), adj(n), totals(n, 0)
{
    std::vector<std::map<QubitId, uint64_t>> weights(n);
    for (const Operation &op : mod.ops()) {
        const auto &operands = op.operands;
        for (size_t i = 0; i < operands.size(); ++i) {
            for (size_t j = i + 1; j < operands.size(); ++j) {
                QubitId a = operands[i], b = operands[j];
                if (a == b || a >= n || b >= n)
                    continue;
                ++weights[a][b];
                ++weights[b][a];
            }
        }
    }
    for (unsigned q = 0; q < n; ++q) {
        adj[q].assign(weights[q].begin(), weights[q].end());
        for (const auto &[nbr, weight] : adj[q])
            totals[q] += weight;
    }
}

uint64_t
QubitInteractionGraph::weight(QubitId a, QubitId b) const
{
    if (a >= n || b >= n)
        return 0;
    const auto &list = adj[a];
    auto it = std::lower_bound(
        list.begin(), list.end(), b,
        [](const std::pair<QubitId, uint64_t> &e, QubitId q) {
            return e.first < q;
        });
    if (it == list.end() || it->first != b)
        return 0;
    return it->second;
}

uint64_t
QubitInteractionGraph::totalWeight(QubitId q) const
{
    return q < n ? totals[q] : 0;
}

std::vector<unsigned>
computeQubitMapping(const Module &mod, const Topology &topo)
{
    const auto n = static_cast<unsigned>(mod.numQubits());
    if (!topo.multiCore())
        return std::vector<unsigned>(n, 0);

    if (topo.mapping == MappingStrategy::RoundRobin) {
        std::vector<unsigned> mapping(n);
        for (unsigned q = 0; q < n; ++q)
            mapping[q] = q % topo.cores;
        return mapping;
    }

    QubitInteractionGraph graph(mod);
    std::vector<unsigned> mapping = greedyMapping(graph, topo.cores);
    refineMapping(graph, topo.cores, mapping);
    return mapping;
}

uint64_t
mappingCutWeight(const Module &mod, const std::vector<unsigned> &mapping)
{
    QubitInteractionGraph graph(mod);
    uint64_t cut = 0;
    for (unsigned q = 0; q < graph.numQubits(); ++q) {
        for (const auto &[nbr, weight] : graph.neighbors(q)) {
            if (nbr <= q)
                continue;
            if (q < mapping.size() && nbr < mapping.size() &&
                mapping[q] != mapping[nbr])
                cut += weight;
        }
    }
    return cut;
}

} // namespace msq
