/**
 * @file
 * One compile request: the machine and scheduler knobs that msq-verify's
 * flags, msq-served's daemon defaults and every NDJSON request set, the
 * one reader that checks them, and the one place that turns them into a
 * ToolflowConfig. DESIGN.md §15 lists the keys and their ranges.
 */

#ifndef MSQ_CORE_REQUEST_HH
#define MSQ_CORE_REQUEST_HH

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/toolflow.hh"

namespace msq {

class JsonValue;

/** The knobs of one compile; each field's request key in brackets. */
struct CompileRequest
{
    uint64_t k = 4;           ///< ["k"] regions, in [1, 2^20]
    uint64_t d = unbounded;   ///< ["d"] region width; 0 = unbounded
    uint64_t localMem = 0;    ///< ["local_mem"] scratchpad per region
    uint64_t epr = unbounded; ///< ["epr"] EPR pairs per cycle, >= 1

    /** ["topology"] parseTopologySpec spec; "" = flat machine. */
    std::string topology;

    /** ["scheduler"] Unset: msq-verify sweeps RCP and LPFS, a
     * compile runs LPFS. */
    std::optional<SchedulerKind> scheduler;

    /** ["comm_mode"] none, global or local. Unset: global, with local
     * memory when the machine has scratchpads (from localMem or the
     * topology's local-mem). */
    std::optional<CommMode> commMode;

    std::string params = "scaled"; ///< ["params"] scaled, paper or tiny
    uint64_t scale = 1;            ///< ["scale"] repeat wrapper, >= 1
};

/**
 * Set @p req's field @p key from @p token: a count (parseCount grammar)
 * for k, d, local_mem, epr and scale, a name for scheduler, comm_mode
 * and params, a spec for topology (checked by toolflowConfig()).
 * @return false, with @p error set and @p req unchanged, for an unknown
 * key or a token outside the key's range or names.
 */
bool setRequestField(CompileRequest &req, std::string_view key,
                     std::string_view token, std::string &error);

/** What readRequestFlag() made of one argument. */
enum class FlagRead : uint8_t { NotRequestFlag, Set, Rejected };

/**
 * The argv adapter: read @p arg into @p req when it is `--key=value`
 * for one of @p keys, the request keys a tool exposes as flags ('_' is
 * spelled '-', so local_mem is --local-mem).
 */
FlagRead readRequestFlag(CompileRequest &req, std::string_view arg,
                         std::span<const std::string_view> keys);

/**
 * The NDJSON adapter: read every request key @p object has into @p req,
 * a count from the number's token (so "k": "4" is rejected), a name
 * from the string.
 * @return false with @p error set on the first bad field.
 */
bool readRequestJson(CompileRequest &req, const JsonValue &object,
                     std::string &error);

/**
 * The configuration @p req describes: Multi-SIMD(k, d) with its local
 * memory and EPR bandwidth, reshaped by the topology, under the chosen
 * or derived communication model and scheduler.
 * @return nullopt with @p error set for a bad topology spec.
 */
std::optional<ToolflowConfig> toolflowConfig(const CompileRequest &req,
                                             std::string &error);

/**
 * Build built-in workload @p name at req.params, repeat-wrapped
 * req.scale times, into @p prog, and set @p config's rotation preset
 * for it (Toolflow::rotationPresetFor).
 * @return false with @p error set when the preset has no such workload.
 */
bool buildRequestWorkload(const CompileRequest &req,
                          const std::string &name, Program &prog,
                          ToolflowConfig &config, std::string &error);

} // namespace msq

#endif // MSQ_CORE_REQUEST_HH
