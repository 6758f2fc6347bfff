#include "schedule_printer.hh"

#include "support/strings.hh"

namespace msq {

namespace {

/**
 * ScheduleSink that renders the classic timeline format. Active slots
 * arrive region-ascending, so inactive regions are the gaps between
 * consecutive slot callbacks — printed as r{--} without ever
 * materializing them.
 */
class TimelineSink : public ScheduleSink
{
  public:
    TimelineSink(std::ostream &os, const Module &mod, bool show_moves)
        : os(os), mod(mod), showMoves(show_moves)
    {}

    void
    beginStep(const TimestepView &step) override
    {
        os << csprintf("t%-5llu [%llu] ",
                       static_cast<unsigned long long>(step.index()),
                       static_cast<unsigned long long>(
                           MultiSimdArch::gateCycles +
                           step.movePhaseCycles()));
        nextRegion = 0;
    }

    void
    slot(const RegionSlotView &slot) override
    {
        printIdleUpTo(slot.region());
        os << " r" << slot.region() << "{" << gateName(slot.kind())
           << ":";
        for (uint32_t op_index : slot.ops())
            for (QubitId q : mod.op(op_index).operands)
                os << " " << mod.qubitName(q);
        os << "}";
        nextRegion = slot.region() + 1;
    }

    void
    endStep(const TimestepView &step) override
    {
        printIdleUpTo(step.k());
        MoveSpan moves = step.moves();
        if (showMoves && !moves.empty()) {
            os << "  | moves:";
            for (const Move &move : moves) {
                os << " " << mod.qubitName(move.qubit) << " "
                   << move.from.describe() << "->"
                   << move.to.describe();
                if (!move.isLocal() && move.blocking)
                    os << "!";
            }
        }
        os << "\n";
    }

  private:
    void
    printIdleUpTo(unsigned region)
    {
        for (unsigned r = nextRegion; r < region; ++r)
            os << " r" << r << "{--}";
    }

    std::ostream &os;
    const Module &mod;
    bool showMoves;
    unsigned nextRegion = 0;
};

} // anonymous namespace

void
printTimeline(std::ostream &os, const LeafSchedule &sched,
              const TimelinePrintOptions &options)
{
    TimelineSink sink(os, sched.module(), options.showMoves);
    sched.stream(sink, options.maxSteps);

    const uint64_t total = sched.computeTimesteps();
    if (options.maxSteps != 0 && options.maxSteps < total) {
        os << "... ("
           << static_cast<unsigned long long>(total - options.maxSteps)
           << " more timesteps)\n";
    }
}

} // namespace msq
