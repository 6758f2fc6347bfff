/**
 * @file
 * msq-served: the MSQ compile service (DESIGN.md §15).
 *
 * Reads one NDJSON compile request per stdin line, writes one NDJSON
 * response per stdout line (same order), and keeps one shared
 * LeafScheduleCache across all requests. With --cache=<path> the cache
 * is loaded at startup (warm start) and persisted periodically and at
 * EOF, so scheduling work is amortized across daemon restarts; the
 * determinism contract guarantees a warm-started daemon answers every
 * request bit-identically to a cold one (only wall-clock and
 * cache-traffic fields differ).
 *
 * Example session:
 *   $ printf '%s\n' \
 *       '{"id": 1, "workload": "grovers", "k": 8}' \
 *       '{"id": 2, "workload": "bwt", "scheduler": "rcp"}' \
 *     | msq-served --cache=/tmp/msq.cache
 *
 * Exit status: 0 on clean EOF, 2 on bad usage. Malformed requests get
 * {"ok": false} responses and never kill the daemon.
 */

#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/request.hh"
#include "core/serve.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

using namespace msq;

namespace {

struct Options
{
    ServeOptions serve;
    uint64_t batch = 1;      ///< requests handled concurrently
    uint64_t saveEvery = 64; ///< cache persistence cadence (requests)
    uint64_t flushEvery = 64; ///< telemetry flush cadence (requests)
    std::string metricsPath; ///< --metrics=<path> (periodic flush)
    bool quiet = false;
};

int
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " [options] < requests.ndjson\n"
        << "\n"
        << "One JSON compile request per input line; one JSON response\n"
        << "per output line, in order. See DESIGN.md §15 for the\n"
        << "protocol.\n"
        << "\n"
        << "options:\n"
        << "  --k=<n>          default SIMD regions (default 4)\n"
        << "  --d=<n|inf>      default region width (default inf; 0 = inf)\n"
        << "  --local-mem=<n>  default scratchpad capacity (default 0)\n"
        << "  --epr=<n|inf>    default EPR bandwidth (default inf)\n"
        << "  --topology=<spec> default multi-core topology applied to\n"
        << "                   requests without a \"topology\" field,\n"
        << "                   e.g. cores=4,k=2,shape=ring,link-bw=1;\n"
        << "                   bad specs exit 2\n"
        << "  --threads=<n>    batch parallelism (default: hardware)\n"
        << "  --batch=<n>      requests handled concurrently (default 1;\n"
        << "                   responses stay in request order)\n"
        << "  --cache=<path>   persistent leaf-schedule cache file\n"
        << "  --save-every=<n> save the cache every n requests\n"
        << "                   (default 64; 0 = only at EOF)\n"
        << "  --metrics=<path> write a metrics JSON snapshot there\n"
        << "  --flush-every=<n> metrics flush cadence (default 64;\n"
        << "                   0 = only at EOF)\n"
        << "  --quiet          suppress startup/shutdown chatter\n";
    return 2;
}

/** The request keys msq-served exposes as daemon-default flags. */
constexpr std::string_view servedKeys[] = {"k", "d", "local_mem", "epr",
                                           "topology"};

bool
parseArgs(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const FlagRead read =
            readRequestFlag(options.serve.defaults, arg, servedKeys);
        if (read == FlagRead::Rejected)
            return false;
        if (read == FlagRead::Set)
            continue;
        uint64_t value = 0;
        if (startsWith(arg, "--threads=")) {
            if (!parseCount(arg.substr(10), value, 0,
                            std::numeric_limits<unsigned>::max()))
                return false;
            options.serve.numThreads = static_cast<unsigned>(value);
        } else if (startsWith(arg, "--batch=")) {
            if (!parseCount(arg.substr(8), options.batch, 1))
                return false;
        } else if (startsWith(arg, "--cache=")) {
            options.serve.cachePath = arg.substr(8);
        } else if (startsWith(arg, "--save-every=")) {
            if (!parseCount(arg.substr(13), options.saveEvery))
                return false;
        } else if (startsWith(arg, "--metrics=")) {
            options.metricsPath = arg.substr(10);
        } else if (startsWith(arg, "--flush-every=")) {
            if (!parseCount(arg.substr(14), options.flushEvery))
                return false;
        } else if (arg == "--quiet") {
            options.quiet = true;
        } else {
            return false;
        }
    }
    // Fail fast on a bad topology: check it once, against the final
    // default machine, rather than erroring on every request.
    std::string error;
    if (!toolflowConfig(options.serve.defaults, error)) {
        std::cerr << "msq-served: " << error << "\n";
        return false;
    }
    return true;
}

void
reportDiags(ServeEngine &engine)
{
    for (const auto &diag : engine.diags().diagnostics())
        std::cerr << diag.format() << "\n";
    engine.diags().clear();
}

/** Overwrite @p path with a snapshot of the engine's registry, which
 * holds every request served so far. A failed write is reported and
 * the daemon keeps serving. */
void
writeMetrics(ServeEngine &engine, const std::string &path)
{
    if (!writeJsonFile(path, [&](std::ostream &os) {
            engine.metrics().snapshot().writeJson(os);
        })) {
        std::cerr << "msq-served: cannot write metrics to '" << path
                  << "'\n";
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseArgs(argc, argv, options))
        return usage(argv[0]);

    ServeEngine engine(options.serve);
    size_t preloaded = engine.loadCache();
    reportDiags(engine);
    if (!options.quiet && !options.serve.cachePath.empty()) {
        std::cerr << "msq-served: " << preloaded
                  << " cache entries preloaded from "
                  << options.serve.cachePath << "\n";
    }

    uint64_t sinceSave = 0;
    uint64_t sinceFlush = 0;
    const auto afterRequests = [&](uint64_t n) {
        sinceSave += n;
        sinceFlush += n;
        if (options.saveEvery > 0 && sinceSave >= options.saveEvery &&
            !options.serve.cachePath.empty()) {
            engine.saveCache();
            reportDiags(engine);
            sinceSave = 0;
        }
        // A daemon that is killed never reaches EOF, so the metrics
        // file is also rewritten on a request cadence.
        if (options.flushEvery > 0 && sinceFlush >= options.flushEvery &&
            !options.metricsPath.empty()) {
            writeMetrics(engine, options.metricsPath);
            sinceFlush = 0;
        }
    };

    std::string line;
    std::vector<std::string> batch;
    while (std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        if (options.batch <= 1) {
            std::cout << engine.handleLine(line) << "\n" << std::flush;
            afterRequests(1);
            continue;
        }
        batch.push_back(line);
        if (batch.size() >= options.batch) {
            for (const std::string &response : engine.handleBatch(batch))
                std::cout << response << "\n";
            std::cout << std::flush;
            afterRequests(batch.size());
            batch.clear();
        }
    }
    if (!batch.empty()) {
        for (const std::string &response : engine.handleBatch(batch))
            std::cout << response << "\n";
        std::cout << std::flush;
    }

    if (!options.serve.cachePath.empty()) {
        engine.saveCache();
        reportDiags(engine);
    }
    if (!options.metricsPath.empty())
        writeMetrics(engine, options.metricsPath);
    if (!options.quiet) {
        std::cerr << "msq-served: " << engine.requestsServed()
                  << " requests served; cache "
                  << engine.cache().size() << " entries, "
                  << engine.cache().hits() << " hits / "
                  << engine.cache().misses() << " misses / "
                  << engine.cache().loads() << " loads\n";
    }
    return 0;
}
