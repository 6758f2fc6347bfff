/**
 * @file
 * Shared pieces of the MSQ compile benchmark: arguments, timing,
 * output checks, end-to-end accounting, the span tracer, and the
 * stage-by-stage replica of Toolflow::run that the traced runs time
 * layer by layer. Every span is recorded here, around calls into the
 * library's public functions; nothing inside src/ is instrumented.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/schedule.hh"
#include "core/serve.hh"
#include "core/toolflow.hh"
#include "support/rng.hh"

namespace perfbench {

/** Command-line arguments shared by every workload. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    unsigned seconds = 20;
    bool trace = false;
    /** Checkout root; examples/programs is read from here. */
    std::string root = ".";
    /** Directory for files the run writes (.msqc, span dumps). */
    std::string workDir = ".";
};

/** Monotonic wall clock in milliseconds. */
double nowMs();

/**
 * Run the fixed calibration kernel once; @return its wall time in ms.
 * Two phases of about equal time: a list schedule of a seeded random
 * DAG through a priority queue and a hash map (cache-resident, the
 * memory behaviour of a leaf scheduler), then random reads over a
 * 64 MiB buffer (the shared-cache traffic of a large leaf compile).
 * Written here so that no library change can move it.
 */
double calibrationMs();

/** Size of the calibration kernel's buffer; peak_rss_mb excludes it. */
double calibrationBufferMb();

/**
 * Measured rounds for a run of @p seconds at @p rounds_per_second (at
 * least one). The request count of a run is fixed by its arguments,
 * never by how fast the host happens to be, so every run of a workload
 * reports the same percentile as its tail.
 */
unsigned roundsFor(unsigned seconds, double rounds_per_second);

/** Seeded Fisher-Yates shuffle. */
template <class T>
void
shuffle(std::vector<T> &items, msq::SplitMix64 &rng)
{
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.nextBelow(i)]);
}

/** Median of @p values (interpolated; 0 when empty). */
double median(std::vector<double> values);

/** Schedule hash in the daemon's "schedule_hash" text form. */
std::string hashText(const msq::ProgramSchedule &sched);

/** Read a whole file; fatal when it cannot be opened. */
std::string readFile(const std::string &path);

/** What a correct compile of one input must report. */
struct Expected
{
    bool known = false; ///< makespan and hash set
    uint64_t makespan = 0;
    std::string hash;
    bool haveBound = false; ///< lowerBound computed here
    uint64_t lowerBound = 0;
    bool haveDaemonBound = false; ///< a daemon response reported one
    uint64_t daemonBound = 0;
};

/** Counts failed output checks and prints the first few to stderr. */
class Checker
{
  public:
    /** Record one check; @return @p ok. */
    bool expect(bool ok, const std::string &what);

    /**
     * The checks every compile result must pass: the schedule
     * validates against the lowered program, the makespan is at least
     * the certified lower bound, and it matches @p expected (filled
     * in from the first occurrence when still unknown). Runs
     * MakespanBoundAnalysis when @p expected has no bound yet.
     */
    bool checkCompile(const std::string &what, const msq::Program &lowered,
                      const msq::ToolflowConfig &config,
                      const msq::ProgramSchedule &sched,
                      Expected &expected);

    /**
     * Check one daemon response line: ok, makespan at least its lower
     * bound, and makespan, hash and bound equal to @p expected (filled
     * in when still unknown). With @p all_hits every leaf lookup of
     * the request must have hit the cache.
     */
    bool checkResponse(const std::string &what,
                       const std::string &response, Expected &expected,
                       bool all_hits = false);

    uint64_t failures() const { return failures_; }

  private:
    /** Compare with @p expected, or fill it in when still unknown. */
    bool matchExpected(const std::string &what, uint64_t makespan,
                       const std::string &hash, Expected &expected);

    uint64_t failures_ = 0;
};

/**
 * End-to-end accounting of one run.
 *
 * Times are reported at reference-host speed. The calibration kernel
 * runs between requests, about every quarter second of request time,
 * and each request's wall time is scaled by referenceCalibrationMs over
 * the median of the three kernel samples around it; each set-up
 * repetition is scaled by the sample taken right after it. This cancels the host's speed drift, which on a shared VM
 * moves every wall time together by up to a third, in phases of seconds
 * to minutes. Raw wall times are printed too.
 */
class Report
{
  public:
    /** Calibration kernel time on the reference 4-vCPU host. */
    static constexpr double referenceCalibrationMs = 25.0;

    /** One repetition of the workload's set-up (seconds); runs the
     * calibration kernel right after it. */
    void setup(double seconds);

    /** A distinct input of the run and its scheduled makespan. */
    void input(const std::string &cls, const std::string &label,
               uint64_t makespan);

    /** One timed request of class @p cls; may run the calibration
     * kernel afterwards. */
    void request(const std::string &cls, double ms, bool ok);

    /** Print the manifest, per-class rows and every end-to-end metric,
     * then the result line. */
    void print(const std::string &workload, const Checker &checker) const;

  private:
    std::vector<double> setups_; ///< at reference speed
    std::vector<double> latencies_;
    std::vector<std::string> manifest_;
    std::vector<std::string> classes_; ///< per request
    std::map<std::string, std::vector<double>> classMakespans_;
    std::vector<double> makespans_;
    /** Per request: index of the first calibration sample taken after
     * it. */
    std::vector<size_t> nextCalibration_;
    std::vector<double> calibrations_;
    double sinceCalibrationMs_ = 0;
    uint64_t failed_ = 0;
};

/** In-memory span recorder for the traced runs. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
        uint64_t request = 0;
    };

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const std::string &name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer;
        int index;
    };

    /** Later spans belong to request @p id. */
    void beginRequest(uint64_t id) { request_ = id; }

    /** Add @p value to counter @p name. */
    void count(const std::string &name, double value)
    {
        counts_[name] += value;
    }

    double counter(const std::string &name) const;

    /** Summed self time (ms) of every span called @p name: its
     * duration minus the part its child spans cover. */
    double selfMs(const std::string &name) const;

    /** Summed duration (ms) of every span called @p name. */
    double totalMs(const std::string &name) const;

    /** Write every span as one JSON line to @p path. */
    void write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::map<std::string, double> counts_;
    int current_ = -1;
    uint64_t request_ = 0;
};

/** An extra call made next to a leaf task to time a layer that the
 * task's stage functions call internally. */
struct ProbeTask
{
    const msq::Module *mod;
    msq::MultiSimdArch sub; ///< arch at the task's width
    /** Scheduler output before comm annotation; empty when the task
     * only computed a cache key (a hit). */
    std::optional<msq::LeafSchedule> unannotated;
};

/**
 * Stage-by-stage replica of Toolflow::run on @p prog (rewritten in
 * place like run() does), each stage a span: passes, estimators, then
 * per leaf x width the cache key and lookup (when @p cache is set),
 * scheduling, communication annotation, leaf bounds and the summary
 * fold, then coarse packing through CoarseScheduler::schedule over the
 * now all-hit cache. With a null @p cache the leaf results go to a
 * private cache that only the coarse stage reads, and no lookups are
 * counted. @p probes receives every leaf task that computed a cache
 * key or scheduled.
 */
msq::ProgramSchedule
replicaCompile(msq::Program &prog, const msq::ToolflowConfig &config,
               std::shared_ptr<msq::LeafScheduleCache> cache,
               Tracer &tracer, std::vector<ProbeTask> &probes);

/**
 * Time the layers nested inside the leaf stage by calling them again
 * on each task's inputs: DepDag::build, computeQubitMapping,
 * TopologyRouter construction and applyCoreAffinity. Recorded under a
 * "probe" span, outside any request.
 */
void runProbes(const std::vector<ProbeTask> &probes,
               const msq::MultiSimdArch &arch, Tracer &tracer);

/** Per-layer results of one traced run. */
class LayerReport
{
  public:
    /** One traced request: @p untraced_ms is the same work timed with
     * tracing off, @p traced_ms the replica's request span, @p ok
     * whether its checks passed. */
    void request(double untraced_ms, double traced_ms, bool ok);

    /** Override a metric computed from the tracer. */
    void set(const std::string &name, double value) { fixed_[name] = value; }

    /** Record a replica result that disagreed with the entry point. */
    void mismatch(const std::string &what);

    /** Fail the layer-contrast self-check with @p what. */
    void contrastFailure(const std::string &what);

    /** Print every per-layer metric with its base, then the result
     * line. */
    void print(const std::string &workload, const Tracer &tracer,
               const Checker &checker) const;

    /** Metric value as printed (and as the self-check reads it). */
    double value(const Tracer &tracer, const std::string &name) const;

  private:
    struct Metric
    {
        const char *name;
        const char *unit;
        const char *base;
    };
    static const std::vector<Metric> &metrics();

    std::map<std::string, double> fixed_;
    std::vector<std::string> problems_;
    uint64_t requests_ = 0;
    uint64_t failed_ = 0;
    double untracedMs_ = 0;
    double tracedMs_ = 0;
};

int runCompileCold(const Args &args);
int runServeWarm(const Args &args);
int runSweepArch(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
