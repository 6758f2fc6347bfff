/**
 * @file
 * Shared helpers for the bench binaries.
 */

#ifndef MSQ_BENCH_COMMON_HH
#define MSQ_BENCH_COMMON_HH

#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <string>

#include "core/toolflow.hh"
#include "support/json.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "workloads/workloads.hh"

namespace msq {
namespace bench {

/**
 * The count knob @p name from the environment: @p fallback when it is
 * unset or empty, else a decimal count in [1, UINT_MAX] read through
 * parseCount. A malformed, zero or overflowing value exits 2 before any
 * work starts, so a typo never runs a different bench.
 */
inline unsigned
envCount(const char *name, unsigned fallback)
{
    const char *text = std::getenv(name);
    if (!text || !*text)
        return fallback;
    uint64_t value = 0;
    if (!parseCount(text, value, 1, std::numeric_limits<unsigned>::max())) {
        std::cerr << "bad value in " << name << "='" << text
                  << "': expected a count in [1, "
                  << std::numeric_limits<unsigned>::max() << "]\n";
        std::exit(2);
    }
    return static_cast<unsigned>(value);
}

/**
 * Print the standard bench header. Also honors the MSQ_METRICS /
 * MSQ_TRACE environment fallback, so any bench binary can emit its
 * telemetry without new flags.
 */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    Telemetry::initFromEnv();
    std::cout << "==========================================================\n"
              << title << "\n"
              << "reproduces: " << paper_ref << "\n"
              << "==========================================================\n\n";
}

/**
 * Write the bench's JSON document to @p path through writeJsonFile and
 * say where. @return false, after a message on stderr, when the file
 * cannot be opened or fully written.
 */
inline bool
writeReport(const std::string &path,
            const std::function<void(JsonWriter &)> &write)
{
    if (!writeJsonFile(path, [&](std::ostream &os) {
            JsonWriter json(os);
            write(json);
        })) {
        std::cerr << "cannot write " << path << "\n";
        return false;
    }
    std::cout << "\nwrote " << path << "\n";
    return true;
}

} // namespace bench
} // namespace msq

#endif // MSQ_BENCH_COMMON_HH
