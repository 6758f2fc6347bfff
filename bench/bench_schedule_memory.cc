/**
 * @file
 * Schedule-memory baseline: measures the bytes the compact SoA
 * ScheduleBuffer holds per timestep, against an analytic model of the
 * nested-vector representation it replaced (one Timestep struct per
 * step owning k RegionSlot vectors — the literal translation of paper
 * §4's description). The paper evaluates machines up to k = 128; the
 * nested layout paid ~sizeof(RegionSlot) per region per step whether or
 * not the region was active, so its footprint scales with k while the
 * SoA layout scales with *activity*.
 *
 * Per workload x scheduler x k, every flattened leaf is scheduled and
 * movement-annotated, then:
 *
 *   soa_bytes_per_step      sum of ScheduleBuffer::byteSize() over
 *                           leaves / total timesteps (measured)
 *   nested_bytes_per_step   the same schedules costed under the old
 *                           layout: per step, the Timestep struct +
 *                           k RegionSlot structs + the ops/moves vector
 *                           payloads (analytic, capacity == size — a
 *                           lower bound favoring the old layout)
 *   ratio                   nested / soa
 *
 * The harness exits nonzero unless the SoA layout is at least 4x
 * smaller per timestep at some k >= 32 (the representation's raison
 * d'etre), and reports peak RSS per configuration for context.
 *
 * Usage: bench_schedule_memory [output.json]   (default
 * BENCH_schedule_memory.json in the working directory)
 */

#include "common.hh"

#include <fstream>
#include <vector>

#include <sys/resource.h>

#include "sched/comm.hh"
#include "support/stats.hh"

using namespace msq;

namespace {

/** The retired nested-vector layout, reconstructed for sizeof() only. */
struct OldRegionSlot
{
    GateKind kind;
    std::vector<uint32_t> ops;
};

struct OldTimestep
{
    std::vector<OldRegionSlot> regions;
    std::vector<Move> moves;
};

struct Row
{
    std::string workload;
    std::string scheduler;
    unsigned k;
    uint64_t leaves;
    uint64_t timesteps;
    uint64_t soaBytes;
    double soaBytesPerStep;
    double nestedBytesPerStep;
    double ratio;
    long peakRssKb;
};

/** What this schedule would occupy under the nested-vector layout. */
uint64_t
nestedLayoutBytes(const LeafSchedule &sched)
{
    uint64_t bytes = 0;
    for (TimestepView step : sched.steps()) {
        bytes += sizeof(OldTimestep);
        bytes += uint64_t(sched.k()) * sizeof(OldRegionSlot);
        for (RegionSlotView slot : step)
            bytes += slot.numOps() * sizeof(uint32_t);
        bytes += step.moves().size() * sizeof(Move);
    }
    return bytes;
}

long
peakRssKb()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return usage.ru_maxrss;
}

void
writeJson(std::ostream &os, const std::vector<Row> &rows)
{
    os << "{\n"
       << "  \"bench\": \"bench_schedule_memory\",\n"
       << "  \"nested_timestep_bytes\": " << sizeof(OldTimestep) << ",\n"
       << "  \"nested_region_slot_bytes\": " << sizeof(OldRegionSlot)
       << ",\n"
       << "  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        os << "    {\"workload\": \"" << row.workload
           << "\", \"scheduler\": \"" << row.scheduler
           << "\", \"k\": " << row.k << ", \"leaves\": " << row.leaves
           << ", \"timesteps\": " << row.timesteps
           << ", \"soa_bytes\": " << row.soaBytes
           << ", \"soa_bytes_per_step\": " << row.soaBytesPerStep
           << ", \"nested_bytes_per_step\": " << row.nestedBytesPerStep
           << ", \"ratio\": " << row.ratio
           << ", \"peak_rss_kb\": " << row.peakRssKb << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::banner("bench_schedule_memory",
                  "schedule storage footprint - compact SoA buffer vs "
                  "the nested-vector layout of paper §4 at k up to 128");

    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_schedule_memory.json";
    const unsigned ks[] = {4, 32, 128};

    ResultTable table("schedule bytes per timestep (lower is better)");
    table.setHeader({"benchmark", "scheduler", "k", "timesteps",
                     "SoA B/step", "nested B/step", "ratio"});

    std::vector<Row> rows;
    double best_ratio_at_wide_k = 0.0;

    for (const auto &spec : workloads::scaledParams()) {
        Program prog = Toolflow::lowerWorkload(spec);
        for (SchedulerKind kind :
             {SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
            auto scheduler = Toolflow::makeScheduler(kind);
            for (unsigned k : ks) {
                MultiSimdArch arch(k);
                CommunicationAnalyzer comm(arch, CommMode::Global);
                uint64_t leaves = 0;
                uint64_t timesteps = 0;
                uint64_t soa_bytes = 0;
                uint64_t nested_bytes = 0;
                for (ModuleId id : prog.reachableModules()) {
                    const Module &mod = prog.module(id);
                    if (!mod.isLeaf() || mod.numOps() == 0)
                        continue;
                    LeafSchedule sched = scheduler->schedule(mod, arch);
                    comm.annotate(sched);
                    ++leaves;
                    timesteps += sched.computeTimesteps();
                    soa_bytes += sched.buffer().byteSize();
                    nested_bytes += nestedLayoutBytes(sched);
                }
                if (timesteps == 0)
                    continue;
                const double soa_per_step =
                    static_cast<double>(soa_bytes) /
                    static_cast<double>(timesteps);
                const double nested_per_step =
                    static_cast<double>(nested_bytes) /
                    static_cast<double>(timesteps);
                const double ratio =
                    soa_per_step > 0.0 ? nested_per_step / soa_per_step
                                       : 0.0;
                if (k >= 32 && ratio > best_ratio_at_wide_k)
                    best_ratio_at_wide_k = ratio;
                rows.push_back({spec.shortName,
                                schedulerKindName(kind), k, leaves,
                                timesteps, soa_bytes, soa_per_step,
                                nested_per_step, ratio, peakRssKb()});

                table.beginRow();
                table.addCell(spec.name);
                table.addCell(std::string(schedulerKindName(kind)));
                table.addCell(static_cast<double>(k), 0);
                table.addCell(static_cast<double>(timesteps), 0);
                table.addCell(soa_per_step, 1);
                table.addCell(nested_per_step, 1);
                table.addCell(ratio, 2);
            }
        }
    }

    table.printAscii(std::cout);
    std::cout << "\nbest nested/SoA ratio at k >= 32: "
              << best_ratio_at_wide_k << "x (acceptance floor: 4x)\n"
              << "peak RSS: " << peakRssKb() << " KB\n";

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    writeJson(out, rows);
    std::cout << "wrote " << out_path << "\n";

    if (best_ratio_at_wide_k < 4.0) {
        std::cerr << "FAIL: SoA layout is not 4x smaller than the "
                     "nested layout at any k >= 32\n";
        return 1;
    }
    return 0;
}
