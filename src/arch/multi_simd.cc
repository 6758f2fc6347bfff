#include "arch/multi_simd.hh"

#include "support/diagnostic.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace msq {

const char *
commModeName(CommMode mode)
{
    switch (mode) {
      case CommMode::None:
        return "none";
      case CommMode::Global:
        return "global";
      case CommMode::GlobalWithLocalMem:
        return "global+local";
    }
    panic("unknown CommMode");
}

void
MultiSimdArch::validate() const
{
    if (k == 0)
        fatal("Multi-SIMD architecture needs at least one region (k >= 1)");
    if (d == 0)
        fatal("Multi-SIMD region width d must be >= 1");
    if (eprBandwidth == 0)
        fatal("Multi-SIMD EPR channel bandwidth must be >= 1 (0 cannot "
              "service any teleport; use ::unbounded for the paper's "
              "model)");
    topology.validate(); // fatal() on any A-code violation
    if (topology.multiCore()) {
        // The width sweep shrinks k below the full machine; it can
        // never exceed it (region->core geometry is anchored to the
        // full machine's split).
        uint64_t full = static_cast<uint64_t>(topology.cores) *
                        topology.regionsPerCore;
        if (k > full) {
            fatal(csprintf("architecture has k=%u regions but the "
                           "topology provides only %llu (%u cores x %u "
                           "regions)",
                           k, static_cast<unsigned long long>(full),
                           topology.cores, topology.regionsPerCore));
        }
    }
}

std::string
MultiSimdArch::fingerprint() const
{
    std::string fp =
        csprintf("d=%llu|lm=%llu|epr=%llu",
                 static_cast<unsigned long long>(d),
                 static_cast<unsigned long long>(localMemCapacity),
                 static_cast<unsigned long long>(eprBandwidth));
    // Single-core machines keep the historical suffix bytes, so every
    // pre-topology cache key (in memory and on disk) still matches.
    std::string topo = topology.fingerprint();
    if (!topo.empty())
        fp += "|" + topo;
    return fp;
}

std::string
MultiSimdArch::describe() const
{
    std::string d_text = d == unbounded ? "inf" : std::to_string(d);
    std::string text = csprintf("Multi-SIMD(%u,%s)", k, d_text.c_str());
    if (localMemCapacity == unbounded)
        text += "+local(inf)";
    else if (localMemCapacity > 0)
        text += csprintf("+local(%llu)",
                         static_cast<unsigned long long>(localMemCapacity));
    if (topology.multiCore())
        text += " on " + topology.describe();
    return text;
}

bool
parseTopologySpec(const std::string &spec, MultiSimdArch &arch,
                  std::string &error)
{
    Topology topo;
    topo.linkLatency = MultiSimdArch::teleportCycles;
    unsigned per_core_k = 0;
    bool shape_set = false;

    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        size_t eq = item.find('=');
        if (eq == std::string::npos) {
            error = "topology spec item \"" + item +
                    "\" is not key=value";
            return false;
        }
        std::string key = item.substr(0, eq);
        std::string value = item.substr(eq + 1);
        auto parse_count = [&](uint64_t &out_value) {
            if (parseCount(value, out_value))
                return true;
            error = "topology spec: \"" + key + "\" needs a count, got \"" +
                    value + "\"";
            return false;
        };
        uint64_t number = 0;
        if (key == "cores") {
            if (!parse_count(number))
                return false;
            if (number == 0 || number > 1024) {
                error = "topology spec: cores must be in [1, 1024]";
                return false;
            }
            topo.cores = static_cast<unsigned>(number);
        } else if (key == "k") {
            if (!parse_count(number))
                return false;
            if (number == 0 || number > maxRegionsPerCore) {
                error = "topology spec: per-core k must be in "
                        "[1, 2^20]";
                return false;
            }
            per_core_k = static_cast<unsigned>(number);
        } else if (key == "d") {
            if (!parse_count(number))
                return false;
            arch.d = number == 0 ? unbounded : number;
        } else if (key == "local-mem") {
            if (!parse_count(number))
                return false;
            arch.localMemCapacity = number;
        } else if (key == "epr") {
            if (!parse_count(number))
                return false;
            arch.eprBandwidth = number;
        } else if (key == "link-bw") {
            if (!parse_count(number))
                return false;
            topo.linkBandwidth = number;
        } else if (key == "link-lat") {
            if (!parse_count(number))
                return false;
            if (number == 0 || number == unbounded) {
                error = "topology spec: link-lat must be a positive "
                        "cycle count";
                return false;
            }
            topo.linkLatency = number;
        } else if (key == "shape") {
            shape_set = true;
            if (value == "ring")
                topo.shape = TopologyShape::Ring;
            else if (value == "mesh")
                topo.shape = TopologyShape::Mesh;
            else if (value == "all-to-all" || value == "all")
                topo.shape = TopologyShape::AllToAll;
            else if (value == "single")
                topo.shape = TopologyShape::SingleCore;
            else {
                error = "topology spec: unknown shape \"" + value +
                        "\" (ring|mesh|all-to-all|single)";
                return false;
            }
        } else if (key == "link") {
            const size_t dash = value.find('-');
            const uint64_t maxIndex = std::numeric_limits<unsigned>::max();
            uint64_t a = 0, b = 0;
            if (dash == std::string::npos ||
                !parseCount(std::string_view(value).substr(0, dash), a, 0,
                            maxIndex) ||
                !parseCount(std::string_view(value).substr(dash + 1), b, 0,
                            maxIndex)) {
                error = "topology spec: link needs \"a-b\" core "
                        "indices, got \"" + value + "\"";
                return false;
            }
            topo.extraLinks.emplace_back(static_cast<unsigned>(a),
                                         static_cast<unsigned>(b));
        } else if (key == "map") {
            if (value == "greedy")
                topo.mapping = MappingStrategy::Greedy;
            else if (value == "roundrobin" || value == "round-robin")
                topo.mapping = MappingStrategy::RoundRobin;
            else {
                error = "topology spec: unknown map \"" + value +
                        "\" (greedy|roundrobin)";
                return false;
            }
        } else {
            error = "topology spec: unknown key \"" + key + "\"";
            return false;
        }
    }

    if (topo.cores > 1 && !shape_set)
        topo.shape = TopologyShape::Ring;
    if (topo.cores == 1) {
        topo.shape = TopologyShape::SingleCore;
        topo.regionsPerCore = 0;
        if (per_core_k > 0)
            arch.k = per_core_k;
    } else {
        // Default per-core region count: keep the arch's current k as
        // the per-core tile size when the spec omits k.
        topo.regionsPerCore = per_core_k > 0 ? per_core_k : arch.k;
        if (topo.regionsPerCore == 0) {
            error = "topology spec: per-core k must be >= 1";
            return false;
        }
        arch.k = topo.cores * topo.regionsPerCore;
    }

    DiagnosticEngine diags;
    if (!topo.validate(&diags)) {
        error = "invalid topology: ";
        for (const auto &diag : diags.diagnostics()) {
            error += diag.format();
            error += "; ";
        }
        error.erase(error.size() - 2);
        return false;
    }
    arch.topology = topo;
    return true;
}

} // namespace msq
