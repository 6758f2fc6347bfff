#include "core/request.hh"

#include <algorithm>
#include <vector>

#include "support/json.hh"
#include "support/strings.hh"
#include "workloads/workloads.hh"

namespace msq {

namespace {

/** The workload parameter presets a "params" value names. */
constexpr std::pair<std::string_view,
                    std::vector<workloads::WorkloadSpec> (*)()>
    paramsPresets[] = {{"scaled", workloads::scaledParams},
                       {"paper", workloads::paperParams},
                       {"tiny", workloads::tinyParams}};

/** The communication models a "comm_mode" value names. */
constexpr std::pair<std::string_view, CommMode> commModes[] = {
    {"none", CommMode::None},
    {"global", CommMode::Global},
    {"local", CommMode::GlobalWithLocalMem}};

/** One request key: a count field and its range, or a name (no field). */
struct RequestKey
{
    std::string_view key;
    uint64_t CompileRequest::*count = nullptr;
    uint64_t min = 0;
    uint64_t max = 0;
};

/** Every request key, in the order an NDJSON request is checked. */
constexpr RequestKey requestKeys[] = {
    {"params"},
    {"scale", &CompileRequest::scale, 1, unbounded - 1},
    {"scheduler"},
    {"k", &CompileRequest::k, 1, maxRegionsPerCore},
    {"d", &CompileRequest::d, 0, unbounded},
    {"local_mem", &CompileRequest::localMem, 0, unbounded},
    {"epr", &CompileRequest::epr, 1, unbounded},
    {"topology"},
    {"comm_mode"},
};

/** Set name key @p key; false for a name outside the key's list. */
bool
setName(CompileRequest &req, std::string_view key, std::string_view name)
{
    if (key == "topology") {
        req.topology = name;
        return true;
    }
    if (key == "scheduler") {
        const std::optional<SchedulerKind> kind = parseSchedulerKind(name);
        if (kind)
            req.scheduler = kind;
        return kind.has_value();
    }
    if (key == "comm_mode") {
        for (const auto &[text, mode] : commModes) {
            if (text == name) {
                req.commMode = mode;
                return true;
            }
        }
        return false;
    }
    for (const auto &preset : paramsPresets) {
        if (preset.first == name) {
            req.params = name;
            return true;
        }
    }
    return false;
}

bool
setField(CompileRequest &req, const RequestKey &spec, std::string_view token,
         std::string &error)
{
    const std::string key(spec.key);
    if (!spec.count) {
        if (setName(req, key, token))
            return true;
        error = "unknown " + (key == "params" ? "params preset" : key) +
                " \"" + std::string(token) + "\"";
        return false;
    }
    if (parseCount(token, req.*spec.count, spec.min, spec.max))
        return true;
    const auto min = static_cast<unsigned long long>(spec.min);
    error = spec.max == unbounded
                ? csprintf("%s must be an integer >= %llu", key.c_str(), min)
                : csprintf("%s must be an integer in [%llu, %llu]",
                           key.c_str(), min,
                           static_cast<unsigned long long>(spec.max));
    return false;
}

} // anonymous namespace

bool
setRequestField(CompileRequest &req, std::string_view key,
                std::string_view token, std::string &error)
{
    for (const RequestKey &spec : requestKeys)
        if (spec.key == key)
            return setField(req, spec, token, error);
    error = "unknown request key \"" + std::string(key) + "\"";
    return false;
}

FlagRead
readRequestFlag(CompileRequest &req, std::string_view arg,
                std::span<const std::string_view> keys)
{
    const size_t eq = arg.find('=');
    if (!arg.starts_with("--") || eq == std::string_view::npos)
        return FlagRead::NotRequestFlag;
    std::string key(arg.substr(2, eq - 2));
    if (key.find('_') != std::string::npos)
        return FlagRead::NotRequestFlag; // flags spell '_' as '-'
    std::replace(key.begin(), key.end(), '-', '_');
    if (std::find(keys.begin(), keys.end(), key) == keys.end())
        return FlagRead::NotRequestFlag;
    std::string error;
    return setRequestField(req, key, arg.substr(eq + 1), error)
               ? FlagRead::Set
               : FlagRead::Rejected;
}

bool
readRequestJson(CompileRequest &req, const JsonValue &object,
                std::string &error)
{
    for (const RequestKey &spec : requestKeys) {
        const std::string key(spec.key);
        if (!object.has(key))
            continue;
        const JsonValue &value = object.get(key);
        if (!setField(req, spec,
                      spec.count ? value.numberText() : value.asString(),
                      error))
            return false;
    }
    return true;
}

std::optional<ToolflowConfig>
toolflowConfig(const CompileRequest &req, std::string &error)
{
    ToolflowConfig config;
    config.scheduler = req.scheduler.value_or(SchedulerKind::Lpfs);
    config.arch = MultiSimdArch(static_cast<unsigned>(req.k),
                                req.d == 0 ? unbounded : req.d,
                                req.localMem);
    config.arch.eprBandwidth = req.epr;
    if (!req.topology.empty() &&
        !parseTopologySpec(req.topology, config.arch, error)) {
        error = "bad topology spec: " + error;
        return std::nullopt;
    }
    config.commMode = req.commMode.value_or(
        config.arch.localMemCapacity > 0 ? CommMode::GlobalWithLocalMem
                                         : CommMode::Global);
    return config;
}

bool
buildRequestWorkload(const CompileRequest &req, const std::string &name,
                     Program &prog, ToolflowConfig &config,
                     std::string &error)
{
    for (const auto &[preset, specs] : paramsPresets) {
        if (preset != req.params)
            continue;
        for (const workloads::WorkloadSpec &spec : specs()) {
            if (spec.shortName == name) {
                prog = spec.build();
                workloads::scaleWorkload(prog, req.scale);
                config.rotations = Toolflow::rotationPresetFor(name);
                return true;
            }
        }
    }
    error = "unknown workload \"" + name + "\"";
    return false;
}

} // namespace msq
