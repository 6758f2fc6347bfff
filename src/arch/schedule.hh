/**
 * @file
 * Schedule representation for leaf modules, following paper §4: "Schedules
 * are stored as a list of sequential timesteps. Each timestep consists of
 * an array of k+1 SIMD regions. The 0th region contains a list of the
 * qubits that will be moved and their sources and destinations. The
 * remaining SIMD regions contain an unsorted list of operations to be
 * performed in that region."
 *
 * The storage is NOT the literal nested-vector translation of that
 * sentence (one Timestep struct per step owning k RegionSlot vectors,
 * k+1 heap allocations per step even when almost every slot is empty).
 * The paper evaluates machines up to k = 128 on circuits of 10^7..10^12
 * gates; at that scale the nested representation's allocator traffic and
 * per-step overhead dominate. Schedules are therefore stored as a compact
 * structure-of-arrays ScheduleBuffer:
 *
 *   ops        one flat op-index stream for the whole schedule
 *   slots      one record per *active* (step, region) pair: the region,
 *              the SIMD gate kind, and the exclusive end of its op range
 *              (the begin is the previous slot's end — op ranges tile the
 *              stream); slots are sorted by region within each step
 *   slotEnd    per step, the exclusive end of its slot range
 *   moves      one flat movement stream (the "0th region")
 *   moveEnd    per step, the exclusive end of its move range
 *
 * Empty regions cost zero bytes and zero allocations. Consumers read
 * one way: range-for over LeafSchedule::steps() yields TimestepView
 * values, and each view yields its RegionSlotView slots. Producers write
 * through ScheduleBuilder (schedulers) or MoveAnnotator (communication
 * analysis). See DESIGN.md §11 for the layout math.
 *
 * LeafSchedule holds the buffer behind a shared_ptr with copy-on-write
 * mutation: copying a schedule shares its buffer, and a mutation through
 * one copy (re-annotation, a test's planted fault) can never corrupt
 * another.
 */

#ifndef MSQ_ARCH_SCHEDULE_HH
#define MSQ_ARCH_SCHEDULE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/location.hh"
#include "arch/multi_simd.hh"
#include "ir/module.hh"

namespace msq {

/// @name Movement-phase cost helpers
/// @{

/**
 * Cycles spent on one timestep's movement phase @p moves: the full
 * 4-cycle teleport time if any blocking global move occurs (paper §4.4),
 * 1 cycle if only local (ballistic) moves occur, 0 otherwise — masked
 * teleports overlap computation (paper §2.3). A finite EPR channel
 * bandwidth serializes excess blocking moves into additional teleport
 * phases. Zero bandwidth is a configuration error
 * (MultiSimdArch::validate() rejects it at construction time) and
 * panics here.
 */
uint64_t movePhaseCycles(std::span<const Move> moves,
                         uint64_t epr_bandwidth = unbounded);

/** The movePhaseCycles formula over a phase already classified into
 * @p blocking blocking teleports and whether @p any_local ballistic
 * move occurs (what a single-pass producer counts as it emits). */
uint64_t movePhaseCyclesFor(uint64_t blocking, bool any_local,
                            uint64_t epr_bandwidth = unbounded);

/** Core that houses @p loc: region/scratchpad locations map through the
 * topology's region->core assignment; a GlobalMemory location names its
 * core (bank index) directly. */
inline unsigned
locationCore(const Location &loc, const MultiSimdArch &arch)
{
    return loc.isGlobal() ? loc.region : arch.coreOfRegion(loc.region);
}

/**
 * Topology-aware movement-phase cost model. On the flat one-core machine
 * it reduces exactly to movePhaseCycles(moves, arch.eprBandwidth);
 * on a multi-core topology the phase additionally routes blocking
 * inter-core teleports over the link graph:
 *
 *   intra  = ceil(blockingIntra / eprBandwidth) * teleportCycles
 *   inter  = linkLatency * (maxHops + rounds - 1), where rounds is the
 *            max over links of ceil(blockingLoad(link) / linkBandwidth)
 *   phase  = max(intra, inter), or localMoveCycles if that is zero and
 *            a ballistic move occurs
 *
 * i.e. intra-core and inter-core traffic overlap (separate fabrics), a
 * longer route costs one linkLatency per hop, and links serialize their
 * excess load into extra pipelined rounds. Build one per schedule walk —
 * construction builds the all-pairs route table.
 */
class MovePhaseCostModel
{
  public:
    explicit MovePhaseCostModel(const MultiSimdArch &arch);

    /** Cycles for one timestep's movement phase @p moves. */
    uint64_t cycles(std::span<const Move> moves) const;

    const MultiSimdArch &arch() const { return *arch_; }
    const TopologyRouter &router() const { return router_; }

    /** Is @p m an inter-core teleport (endpoints on different cores)? */
    bool
    interCore(const Move &m) const
    {
        return arch_->topology.multiCore() &&
               locationCore(m.from, *arch_) != locationCore(m.to, *arch_);
    }

  private:
    const MultiSimdArch *arch_;
    TopologyRouter router_;
    /** Scratch per-link blocking loads and route, reused across
     * cycles() calls. */
    mutable std::vector<uint64_t> edgeLoad;
    mutable std::vector<unsigned> route;
};

/// @}

/**
 * Structure-of-arrays storage for one leaf schedule. Pure data, no
 * reference to the scheduled Module — so one buffer can be rebound to
 * any structurally identical module (their op indices are
 * interchangeable by definition of the structural hash).
 *
 * Invariants (checked by consumers, produced by ScheduleBuilder):
 *  - slotEnd and moveEnd have one entry per step, non-decreasing;
 *  - slots of one step are sorted by strictly increasing region < k;
 *  - every slot has a non-empty op range (inactive regions have none).
 */
struct ScheduleBuffer
{
    /** One active (step, region) pair. The op range begin is implicit:
     * the previous slot's opEnd (0 for the very first slot). */
    struct Slot
    {
        uint32_t opEnd;  ///< exclusive end into ops
        uint32_t region; ///< region index in [0, k)
        GateKind kind;   ///< the region's SIMD gate type this step
    };

    unsigned k = 0;                  ///< regions per timestep
    std::vector<Slot> slots;         ///< region-sorted within each step
    std::vector<uint32_t> slotEnd;   ///< per step: exclusive end into slots
    std::vector<uint32_t> ops;       ///< flat op-index stream
    std::vector<Move> moves;         ///< flat movement stream
    std::vector<uint64_t> moveEnd;   ///< per step: exclusive end into moves

    uint64_t numSteps() const { return slotEnd.size(); }

    uint32_t
    slotBegin(uint64_t step) const
    {
        return step == 0 ? 0 : slotEnd[step - 1];
    }

    uint32_t
    opBegin(uint32_t slot_index) const
    {
        return slot_index == 0 ? 0 : slots[slot_index - 1].opEnd;
    }

    uint64_t
    moveBegin(uint64_t step) const
    {
        return step == 0 ? 0 : moveEnd[step - 1];
    }

    /** Heap bytes held by this buffer (capacity-based, plus the struct
     * itself) — the quantity bench_compile_time's schedule_bytes
     * table reports. */
    uint64_t byteSize() const;
};

/**
 * What one SIMD region does in one timestep: a single gate type applied
 * to the operands of one or more operations (SIMD semantics: one control
 * signal, many qubits). A cheap value type over ScheduleBuffer — only
 * *active* regions have a slot, so a view is never empty.
 */
class RegionSlotView
{
  public:
    RegionSlotView(const ScheduleBuffer &buf, uint32_t index)
        : buf(&buf), index_(index)
    {}

    unsigned region() const { return buf->slots[index_].region; }
    GateKind kind() const { return buf->slots[index_].kind; }

    std::span<const uint32_t>
    ops() const
    {
        const uint32_t *base = buf->ops.data();
        return {base + buf->opBegin(index_),
                base + buf->slots[index_].opEnd};
    }

  private:
    const ScheduleBuffer *buf;
    uint32_t index_;
};

/**
 * One logical timestep: the movement slot plus the step's active region
 * slots. A cheap value type; iterating its slots visits active regions
 * in ascending region order.
 */
class TimestepView
{
  public:
    TimestepView(const ScheduleBuffer &buf, uint64_t step)
        : buf(&buf), step_(step)
    {}

    uint64_t index() const { return step_; }

    /** Number of regions executing an operation this step. */
    unsigned
    activeRegions() const
    {
        return buf->slotEnd[step_] - buf->slotBegin(step_);
    }

    /** The step's movement slot (the paper's "0th region"). */
    std::span<const Move>
    moves() const
    {
        const Move *base = buf->moves.data();
        return {base + buf->moveBegin(step_),
                base + buf->moveEnd[step_]};
    }

    /// @name Slot iteration (range-for yields RegionSlotView)
    /// @{
    class SlotIterator
    {
      public:
        SlotIterator(const ScheduleBuffer &buf, uint32_t index)
            : buf(&buf), index_(index)
        {}
        RegionSlotView operator*() const
        {
            return RegionSlotView(*buf, index_);
        }
        SlotIterator &operator++()
        {
            ++index_;
            return *this;
        }
        bool operator!=(const SlotIterator &o) const
        {
            return index_ != o.index_;
        }

      private:
        const ScheduleBuffer *buf;
        uint32_t index_;
    };

    SlotIterator begin() const
    {
        return SlotIterator(*buf, buf->slotBegin(step_));
    }
    SlotIterator end() const
    {
        return SlotIterator(*buf, buf->slotEnd[step_]);
    }
    /// @}

  private:
    const ScheduleBuffer *buf;
    uint64_t step_;
};

/**
 * A complete fine-grained schedule of one leaf module on a Multi-SIMD
 * machine. Produced by the leaf schedulers through ScheduleBuilder
 * (compute placement only) and then annotated with movement by the
 * CommunicationAnalyzer through MoveAnnotator.
 *
 * The underlying ScheduleBuffer is shared between copies and
 * copy-on-write: the few mutation entry points (appendMove,
 * appendEmptyStep, MoveAnnotator) detach a private copy when the buffer
 * is aliased, so no handle can corrupt another's schedule.
 */
class LeafSchedule
{
  public:
    /**
     * An empty schedule.
     * @param mod the scheduled leaf module (must outlive the schedule).
     * @param k number of SIMD regions the schedule may use.
     */
    LeafSchedule(const Module &mod, unsigned k);

    /**
     * Rebind an existing buffer to @p mod. The module must be
     * structurally identical to the one the buffer was built from
     * (Module::structuralHash()).
     */
    LeafSchedule(const Module &mod,
                 std::shared_ptr<const ScheduleBuffer> buffer);

    const Module &module() const { return *mod; }
    unsigned k() const { return buf_->k; }

    const ScheduleBuffer &buffer() const { return *buf_; }

    /** Share the underlying storage. */
    std::shared_ptr<const ScheduleBuffer> sharedBuffer() const
    {
        return buf_;
    }

    /** Number of compute timesteps. */
    uint64_t computeTimesteps() const { return buf_->numSteps(); }

    TimestepView step(uint64_t ts) const
    {
        return TimestepView(*buf_, ts);
    }

    /// @name Timestep iteration (range-for yields TimestepView)
    /// @{
    class StepIterator
    {
      public:
        StepIterator(const ScheduleBuffer &buf, uint64_t step)
            : buf(&buf), step_(step)
        {}
        TimestepView operator*() const
        {
            return TimestepView(*buf, step_);
        }
        StepIterator &operator++()
        {
            ++step_;
            return *this;
        }
        bool operator!=(const StepIterator &o) const
        {
            return step_ != o.step_;
        }

      private:
        const ScheduleBuffer *buf;
        uint64_t step_;
    };

    struct StepRange
    {
        const ScheduleBuffer *buf;
        StepIterator begin() const { return StepIterator(*buf, 0); }
        StepIterator end() const
        {
            return StepIterator(*buf, buf->numSteps());
        }
    };

    /** Read-only view range over all timesteps: the one way to read a
     * schedule in order. */
    StepRange steps() const { return StepRange{buf_.get()}; }
    /// @}

    /** Append a timestep with no active regions and no moves (COW). */
    void appendEmptyStep();

    /**
     * Append @p move to timestep @p ts's movement slot (COW). O(moves)
     * when @p ts is not the last step — meant for fault injection and
     * tests, not bulk annotation (use MoveAnnotator for that).
     */
    void appendMove(uint64_t ts, const Move &move);

    /** Total operations placed (for completeness checks). */
    uint64_t scheduledOps() const { return buf_->ops.size(); }

  private:
    friend class MoveAnnotator;

    /** Detach a private copy when the buffer is shared. */
    ScheduleBuffer &mutableBuffer();

    const Module *mod;
    std::shared_ptr<const ScheduleBuffer> buf_;
};

/**
 * Incremental producer interface for the leaf schedulers. The builder
 * keeps one dense draft of k slots that is reused across timesteps —
 * after the first few steps warm their capacity up, emitting a step
 * performs no heap allocation beyond the amortized growth of the flat
 * output arrays:
 *
 *   ScheduleBuilder b(mod, arch.k);
 *   while (work) {
 *       b.beginStep();
 *       b.slot(r).kind = ...; b.slot(r).ops.push_back(op);  // any order
 *       ... (drafted placements may be read back within the step) ...
 *       b.endStep();   // compacts the draft into the SoA buffer
 *   }
 *   LeafSchedule sched = b.finish();
 */
class ScheduleBuilder
{
  public:
    /** Mutable draft of one region's slot for the current timestep. */
    struct DraftSlot
    {
        GateKind kind = GateKind::X;
        std::vector<uint32_t> ops;

        bool active() const { return !ops.empty(); }
    };

    ScheduleBuilder(const Module &mod, unsigned k);

    unsigned k() const { return buf->k; }

    /** Open the next timestep; all draft slots become empty. */
    void beginStep();

    /** The draft slot of region @p r in the open timestep. */
    DraftSlot &slot(unsigned r) { return draft[r]; }
    const DraftSlot &slot(unsigned r) const { return draft[r]; }

    /** Seal the open timestep into the buffer. */
    void endStep();

    /** @return the finished schedule; the builder is then exhausted. */
    LeafSchedule finish();

  private:
    const Module *mod;
    std::shared_ptr<ScheduleBuffer> buf;
    std::vector<DraftSlot> draft;
    bool stepOpen = false;
};

/**
 * Single-pass movement-stream rebuilder for the CommunicationAnalyzer:
 * clears the schedule's existing movement annotation on construction
 * (detaching a private buffer copy if shared), then refills it step by
 * step. The slot/op arrays are untouched throughout, so reading the
 * schedule's compute placement through views stays valid during
 * annotation; move spans of unsealed steps must not be read until
 * finish().
 *
 *   MoveAnnotator annot(sched);           // moves cleared
 *   for each step: annot.add(move)...; annot.endStep();
 *   annot.finish();                       // checks step-count match
 */
class MoveAnnotator
{
  public:
    explicit MoveAnnotator(LeafSchedule &sched);

    /** Append @p move to the movement slot of the current timestep. */
    void add(const Move &move) { buf->moves.push_back(move); }

    /** The moves added to the current (unsealed) timestep so far; valid
     * until the next add(). */
    std::span<const Move>
    stepMoves() const
    {
        const Move *base = buf->moves.data();
        return {base + (buf->moveEnd.empty() ? 0 : buf->moveEnd.back()),
                base + buf->moves.size()};
    }

    /** Seal the current timestep's movement slot. */
    void
    endStep()
    {
        buf->moveEnd.push_back(buf->moves.size());
    }

    /** Finish annotation; panics unless every timestep was sealed. */
    void finish();

  private:
    ScheduleBuffer *buf;
};

} // namespace msq

#endif // MSQ_ARCH_SCHEDULE_HH
