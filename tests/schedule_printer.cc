#include "schedule_printer.hh"

#include <algorithm>

#include "support/strings.hh"

namespace msq {

void
printTimeline(std::ostream &os, const LeafSchedule &sched,
              const TimelinePrintOptions &options)
{
    const Module &mod = sched.module();
    const uint64_t total = sched.computeTimesteps();
    const uint64_t shown = options.maxSteps == 0
                               ? total
                               : std::min(options.maxSteps, total);
    for (TimestepView step : sched.steps()) {
        if (step.index() == shown)
            break;
        os << csprintf("t%-5llu [%llu] ",
                       static_cast<unsigned long long>(step.index()),
                       static_cast<unsigned long long>(
                           MultiSimdArch::gateCycles +
                           movePhaseCycles(step.moves())));
        // Active slots come region-ascending, so the inactive regions
        // are the gaps between them, printed as r{--}.
        unsigned next_region = 0;
        auto print_idle_up_to = [&](unsigned region) {
            for (; next_region < region; ++next_region)
                os << " r" << next_region << "{--}";
        };
        for (RegionSlotView slot : step) {
            print_idle_up_to(slot.region());
            os << " r" << slot.region() << "{" << gateName(slot.kind())
               << ":";
            for (uint32_t op_index : slot.ops())
                for (QubitId q : mod.op(op_index).operands)
                    os << " " << mod.qubitName(q);
            os << "}";
            next_region = slot.region() + 1;
        }
        print_idle_up_to(sched.k());
        if (options.showMoves && !step.moves().empty()) {
            os << "  | moves:";
            for (const Move &move : step.moves()) {
                os << " " << mod.qubitName(move.qubit) << " "
                   << move.from.describe() << "->"
                   << move.to.describe();
                if (!move.isLocal() && move.blocking)
                    os << "!";
            }
        }
        os << "\n";
    }

    if (shown < total) {
        os << "... (" << static_cast<unsigned long long>(total - shown)
           << " more timesteps)\n";
    }
}

} // namespace msq
