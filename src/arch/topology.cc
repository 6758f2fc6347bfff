#include "arch/topology.hh"

#include <algorithm>
#include <deque>

#include "support/diagnostic.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace msq {

namespace {

constexpr uint64_t noLimit = std::numeric_limits<uint64_t>::max();

/** Near-square factorization of @p cores for the mesh: rows x cols with
 * rows <= cols and rows the largest divisor <= sqrt(cores). */
std::pair<unsigned, unsigned>
meshDims(unsigned cores)
{
    unsigned rows = 1;
    for (unsigned r = 1; r * r <= cores; ++r)
        if (cores % r == 0)
            rows = r;
    return {rows, cores / rows};
}

/** @p links normalized (each pair ascending, sorted, deduplicated)
 * and joined as "a-b.c-d", so spec order never shows. */
std::string
linksText(std::vector<std::pair<unsigned, unsigned>> links)
{
    for (auto &[a, b] : links)
        if (a > b)
            std::swap(a, b);
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
    std::string text;
    for (const auto &[a, b] : links)
        text += csprintf("%s%u-%u", text.empty() ? "" : ".", a, b);
    return text;
}

} // anonymous namespace

const char *
topologyShapeName(TopologyShape shape)
{
    switch (shape) {
      case TopologyShape::SingleCore:
        return "single";
      case TopologyShape::Ring:
        return "ring";
      case TopologyShape::Mesh:
        return "mesh";
      case TopologyShape::AllToAll:
        return "all-to-all";
    }
    panic("unknown TopologyShape");
}

const char *
mappingStrategyName(MappingStrategy strategy)
{
    switch (strategy) {
      case MappingStrategy::Greedy:
        return "greedy";
      case MappingStrategy::RoundRobin:
        return "roundrobin";
    }
    panic("unknown MappingStrategy");
}

std::vector<std::pair<unsigned, unsigned>>
Topology::edges() const
{
    std::vector<std::pair<unsigned, unsigned>> out;
    if (cores <= 1)
        return out;
    switch (shape) {
      case TopologyShape::SingleCore:
        break;
      case TopologyShape::Ring:
        if (cores == 2) {
            out.emplace_back(0, 1);
            break;
        }
        for (unsigned c = 0; c < cores; ++c) {
            unsigned next = (c + 1) % cores;
            out.emplace_back(std::min(c, next), std::max(c, next));
        }
        break;
      case TopologyShape::Mesh: {
        auto [rows, cols] = meshDims(cores);
        for (unsigned r = 0; r < rows; ++r) {
            for (unsigned c = 0; c < cols; ++c) {
                unsigned id = r * cols + c;
                if (c + 1 < cols)
                    out.emplace_back(id, id + 1);
                if (r + 1 < rows)
                    out.emplace_back(id, id + cols);
            }
        }
        break;
      }
      case TopologyShape::AllToAll:
        for (unsigned a = 0; a < cores; ++a)
            for (unsigned b = a + 1; b < cores; ++b)
                out.emplace_back(a, b);
        break;
    }
    for (const auto &[a, b] : extraLinks)
        out.emplace_back(std::min(a, b), std::max(a, b));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

bool
Topology::validate(DiagnosticEngine *diags) const
{
    DiagnosticEngine fatal_engine(DiagnosticEngine::FailMode::Fatal);
    DiagnosticEngine &out = diags != nullptr ? *diags : fatal_engine;
    size_t errors_before = out.numErrors();

    if (cores == 0) {
        out.error(DiagCode::ArchNoCores,
                  "topology needs at least one core");
        return false;
    }
    if (linkBandwidth == 0) {
        out.error(DiagCode::ArchZeroLinkBandwidth,
                  "inter-core link bandwidth must be >= 1 (0 cannot "
                  "carry any teleport; use ::unbounded for uncapped "
                  "links)");
    }
    if (multiCore() && regionsPerCore == 0) {
        out.error(DiagCode::ArchNoRegionSplit,
                  csprintf("%u-core topology needs a per-core region "
                           "count (regionsPerCore >= 1)",
                           cores));
    }
    if (multiCore() && shape == TopologyShape::SingleCore) {
        // A multi-core machine whose link graph has no edges cannot
        // route anything between cores.
        out.error(DiagCode::ArchDisconnectedTopology,
                  csprintf("%u cores with the single-core (edgeless) "
                           "shape form a disconnected machine",
                           cores));
    }

    const auto edge_list = edges();
    for (const auto &[a, b] : edge_list) {
        if (a == b) {
            out.error(DiagCode::ArchSelfLoopLink,
                      csprintf("link from core %u to itself", a));
        } else if (a >= cores || b >= cores) {
            out.error(DiagCode::ArchDisconnectedTopology,
                      csprintf("link (%u, %u) names a core beyond the "
                               "last core %u",
                               a, b, cores - 1));
        }
    }
    if (multiCore() && shape != TopologyShape::SingleCore) {
        // BFS connectivity over the link graph.
        std::vector<std::vector<unsigned>> adj(cores);
        for (const auto &[a, b] : edge_list) {
            if (a < cores && b < cores && a != b) {
                adj[a].push_back(b);
                adj[b].push_back(a);
            }
        }
        std::vector<bool> seen(cores, false);
        std::deque<unsigned> work{0};
        seen[0] = true;
        unsigned reached = 1;
        while (!work.empty()) {
            unsigned c = work.front();
            work.pop_front();
            for (unsigned n : adj[c]) {
                if (!seen[n]) {
                    seen[n] = true;
                    ++reached;
                    work.push_back(n);
                }
            }
        }
        if (reached != cores) {
            out.error(DiagCode::ArchDisconnectedTopology,
                      csprintf("link graph reaches only %u of %u cores",
                               reached, cores));
        }
    }
    return out.numErrors() == errors_before;
}

std::string
Topology::describe() const
{
    if (!multiCore())
        return "";
    std::string bw = linkBandwidth == noLimit
                         ? "inf"
                         : std::to_string(linkBandwidth);
    std::string text =
        csprintf("%s(%ux%u, link-bw=%s, link-lat=%llu",
                 topologyShapeName(shape), cores, regionsPerCore,
                 bw.c_str(), static_cast<unsigned long long>(linkLatency));
    if (mapping != Topology().mapping)
        text += csprintf(", map=%s", mappingStrategyName(mapping));
    if (!extraLinks.empty())
        text += ", links=" + linksText(extraLinks);
    return text + ")";
}

std::string
Topology::fingerprint() const
{
    if (!multiCore())
        return "";
    std::string fp =
        csprintf("topo=%s:%ux%u|lbw=%llu|llat=%llu|map=%s",
                 topologyShapeName(shape), cores, regionsPerCore,
                 static_cast<unsigned long long>(linkBandwidth),
                 static_cast<unsigned long long>(linkLatency),
                 mappingStrategyName(mapping));
    // Extra links change the routable edge set, so they must change the
    // cache key, in a spec-order-independent way.
    if (!extraLinks.empty())
        fp += "|links=" + linksText(extraLinks);
    return fp;
}

TopologyRouter::TopologyRouter(const Topology &topo)
    : cores(topo.cores == 0 ? 1 : topo.cores), edgeList(topo.edges())
{
    constexpr unsigned unreachable =
        std::numeric_limits<unsigned>::max();
    dist_.assign(size_t(cores) * cores, unreachable);
    nextHop_.assign(size_t(cores) * cores, unreachable);
    edgeId_.assign(size_t(cores) * cores, unreachable);

    std::vector<std::vector<unsigned>> adj(cores);
    for (unsigned e = 0; e < edgeList.size(); ++e) {
        auto [a, b] = edgeList[e];
        if (a >= cores || b >= cores || a == b)
            continue;
        adj[a].push_back(b);
        adj[b].push_back(a);
        edgeId_[size_t(a) * cores + b] = e;
        edgeId_[size_t(b) * cores + a] = e;
    }
    // Ascending neighbor order makes the BFS parent (and therefore the
    // whole route) the lexicographically-least shortest path.
    for (auto &n : adj)
        std::sort(n.begin(), n.end());

    for (unsigned src = 0; src < cores; ++src) {
        dist_[size_t(src) * cores + src] = 0;
        nextHop_[size_t(src) * cores + src] = src;
        std::deque<unsigned> work{src};
        while (!work.empty()) {
            unsigned c = work.front();
            work.pop_front();
            for (unsigned n : adj[c]) {
                size_t idx = size_t(src) * cores + n;
                if (dist_[idx] != unreachable)
                    continue;
                dist_[idx] = dist_[size_t(src) * cores + c] + 1;
                // First hop out of src toward n: inherit c's, unless c
                // IS src (then the first hop is n itself).
                nextHop_[idx] = c == src
                                    ? n
                                    : nextHop_[size_t(src) * cores + c];
                work.push_back(n);
            }
        }
    }
}

unsigned
TopologyRouter::at(unsigned from, unsigned to) const
{
    if (from >= cores || to >= cores)
        panic("TopologyRouter: core index out of range");
    return dist_[size_t(from) * cores + to];
}

unsigned
TopologyRouter::dist(unsigned from, unsigned to) const
{
    unsigned d = at(from, to);
    if (d == std::numeric_limits<unsigned>::max())
        panic("TopologyRouter: no route between cores (validate() "
              "should have rejected a disconnected topology)");
    return d;
}

void
TopologyRouter::routeEdges(unsigned from, unsigned to,
                           std::vector<unsigned> &out) const
{
    dist(from, to); // range + reachability check
    unsigned c = from;
    while (c != to) {
        unsigned n = nextHop_[size_t(c) * cores + to];
        unsigned e = edgeId_[size_t(c) * cores + n];
        if (e == std::numeric_limits<unsigned>::max())
            panic("TopologyRouter: next hop without a link");
        out.push_back(e);
        c = n;
    }
}

} // namespace msq
