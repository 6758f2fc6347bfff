#include "arch/schedule.hh"

#include <algorithm>

#include "support/logging.hh"

namespace msq {

uint64_t
movePhaseCycles(std::span<const Move> moves, uint64_t epr_bandwidth)
{
    if (epr_bandwidth == 0)
        panic("movePhaseCycles: EPR bandwidth of 0 cannot move anything; "
              "MultiSimdArch::validate() should have rejected this "
              "configuration");
    uint64_t blocking = 0;
    bool any_local = false;
    for (const Move &m : moves) {
        if (m.isLocal())
            any_local = true;
        else if (m.blocking)
            ++blocking;
    }
    return movePhaseCyclesFor(blocking, any_local, epr_bandwidth);
}

uint64_t
movePhaseCyclesFor(uint64_t blocking, bool any_local,
                   uint64_t epr_bandwidth)
{
    if (blocking > 0) {
        uint64_t phases = 1;
        if (epr_bandwidth != unbounded)
            phases = (blocking + epr_bandwidth - 1) / epr_bandwidth;
        return phases * MultiSimdArch::teleportCycles;
    }
    if (any_local)
        return MultiSimdArch::localMoveCycles;
    return 0;
}

MovePhaseCostModel::MovePhaseCostModel(const MultiSimdArch &arch)
    : arch_(&arch), router_(arch.topology),
      edgeLoad(router_.numEdges(), 0)
{}

uint64_t
MovePhaseCostModel::cycles(std::span<const Move> moves) const
{
    const Topology &topo = arch_->topology;
    if (!topo.multiCore())
        return movePhaseCycles(moves, arch_->eprBandwidth);

    if (arch_->eprBandwidth == 0)
        panic("MovePhaseCostModel: EPR bandwidth of 0 cannot move "
              "anything; MultiSimdArch::validate() should have rejected "
              "this configuration");

    uint64_t intra_blocking = 0;
    uint64_t max_hops = 0;
    bool any_inter = false;
    bool any_local = false;
    std::fill(edgeLoad.begin(), edgeLoad.end(), 0);
    for (const Move &m : moves) {
        if (m.isLocal()) {
            any_local = true;
            continue;
        }
        if (!m.blocking)
            continue;
        unsigned from = locationCore(m.from, *arch_);
        unsigned to = locationCore(m.to, *arch_);
        if (from == to) {
            ++intra_blocking;
            continue;
        }
        any_inter = true;
        max_hops = std::max<uint64_t>(max_hops, router_.dist(from, to));
        route.clear();
        router_.routeEdges(from, to, route);
        for (unsigned e : route)
            ++edgeLoad[e];
    }

    const uint64_t intra =
        movePhaseCyclesFor(intra_blocking, false, arch_->eprBandwidth);

    uint64_t inter = 0;
    if (any_inter) {
        // Pipelined store-and-forward: the first round drains after
        // maxHops link traversals, and every extra round a saturated
        // link needs adds one more traversal behind it.
        uint64_t rounds = 1;
        if (topo.linkBandwidth != unbounded)
            for (uint64_t load : edgeLoad)
                rounds = std::max(
                    rounds,
                    (load + topo.linkBandwidth - 1) / topo.linkBandwidth);
        inter = topo.linkLatency * (max_hops + rounds - 1);
    }

    uint64_t phase = std::max(intra, inter);
    if (phase == 0 && any_local)
        return MultiSimdArch::localMoveCycles;
    return phase;
}

uint64_t
ScheduleBuffer::byteSize() const
{
    return sizeof(ScheduleBuffer) +
           slots.capacity() * sizeof(Slot) +
           slotEnd.capacity() * sizeof(uint32_t) +
           ops.capacity() * sizeof(uint32_t) +
           moves.capacity() * sizeof(Move) +
           moveEnd.capacity() * sizeof(uint64_t);
}

LeafSchedule::LeafSchedule(const Module &mod, unsigned k) : mod(&mod)
{
    auto buf = std::make_shared<ScheduleBuffer>();
    buf->k = k;
    buf_ = std::move(buf);
}

LeafSchedule::LeafSchedule(const Module &mod,
                           std::shared_ptr<const ScheduleBuffer> buffer)
    : mod(&mod), buf_(std::move(buffer))
{
    if (!buf_)
        panic("LeafSchedule: null schedule buffer");
}

ScheduleBuffer &
LeafSchedule::mutableBuffer()
{
    // Copy-on-write: a buffer may be aliased by other schedule handles;
    // never mutate through a shared reference.
    if (buf_.use_count() != 1)
        buf_ = std::make_shared<ScheduleBuffer>(*buf_);
    return *std::const_pointer_cast<ScheduleBuffer>(buf_);
}

void
LeafSchedule::appendEmptyStep()
{
    ScheduleBuffer &buf = mutableBuffer();
    buf.slotEnd.push_back(static_cast<uint32_t>(buf.slots.size()));
    buf.moveEnd.push_back(buf.moves.size());
}

void
LeafSchedule::appendMove(uint64_t ts, const Move &move)
{
    ScheduleBuffer &buf = mutableBuffer();
    if (ts >= buf.numSteps())
        panic("LeafSchedule::appendMove: timestep out of range");
    buf.moves.insert(buf.moves.begin() +
                         static_cast<ptrdiff_t>(buf.moveEnd[ts]),
                     move);
    for (uint64_t s = ts; s < buf.numSteps(); ++s)
        ++buf.moveEnd[s];
}

ScheduleBuilder::ScheduleBuilder(const Module &mod, unsigned k)
    : mod(&mod), buf(std::make_shared<ScheduleBuffer>()), draft(k)
{
    if (k == 0)
        panic("ScheduleBuilder: k must be >= 1");
    buf->k = k;
    // Every op of the module is placed exactly once, so the op stream
    // never grows past this allocation.
    buf->ops.reserve(mod.numOps());
}

void
ScheduleBuilder::beginStep()
{
    if (stepOpen)
        panic("ScheduleBuilder: beginStep with a step already open");
    stepOpen = true;
    // clear() keeps each draft slot's capacity, so steady-state steps
    // allocate nothing here.
    for (DraftSlot &slot : draft)
        slot.ops.clear();
}

void
ScheduleBuilder::endStep()
{
    if (!stepOpen)
        panic("ScheduleBuilder: endStep without beginStep");
    stepOpen = false;
    for (unsigned r = 0; r < draft.size(); ++r) {
        const DraftSlot &slot = draft[r];
        if (!slot.active())
            continue;
        buf->ops.insert(buf->ops.end(), slot.ops.begin(),
                        slot.ops.end());
        buf->slots.push_back({static_cast<uint32_t>(buf->ops.size()), r,
                              slot.kind});
    }
    buf->slotEnd.push_back(static_cast<uint32_t>(buf->slots.size()));
    buf->moveEnd.push_back(buf->moves.size());
}

LeafSchedule
ScheduleBuilder::finish()
{
    if (stepOpen)
        panic("ScheduleBuilder: finish with a step still open");
    if (!buf)
        panic("ScheduleBuilder: finish called twice");
    // Return the excess growth capacity of the step-indexed arrays to
    // the allocator: ScheduleBuffer::byteSize (bench_compile_time's
    // schedule_bytes table) counts capacity. The reserved op stream is
    // already exact, so its shrink copies nothing.
    buf->slots.shrink_to_fit();
    buf->slotEnd.shrink_to_fit();
    buf->ops.shrink_to_fit();
    buf->moveEnd.shrink_to_fit();
    return LeafSchedule(*mod, std::move(buf));
}

MoveAnnotator::MoveAnnotator(LeafSchedule &sched)
    : buf(&sched.mutableBuffer())
{
    buf->moves.clear();
    buf->moveEnd.clear();
}

void
MoveAnnotator::finish()
{
    if (buf->moveEnd.size() != buf->slotEnd.size())
        panic("MoveAnnotator: sealed step count does not match the "
              "schedule");
}

} // namespace msq
