#include "sched/lpfs.hh"

#include "sched/core_affinity.hh"

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <vector>

#include "ir/dag.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace msq {

namespace {

/**
 * How many timesteps a ready op may starve in its home region before any
 * region may steal it. Small values spread independent serial chains
 * across regions quickly while keeping established chains pinned (the
 * whole point of LPFS's locality strategy, §4.2).
 */
constexpr uint32_t stealAge = 4;

/**
 * DAG height at or below which a fresh (memory-resident) op is considered
 * a one-shot data-parallel sibling rather than the head of a long serial
 * chain. Shallow ops may join any region's SIMD group; deep chain heads
 * are adopted one per region so independent chains spread out instead of
 * piling into one region and thrashing.
 */
constexpr uint64_t shallowHeight = 12;

/**
 * Released ops in canonical (release step, op index) order. Committed
 * entries are dropped lazily: a reader compacts the list first when
 * they outnumber the live ones, so a scan visits at most twice the live
 * entries and a step that reads no list pays nothing to maintain it.
 */
struct ReadyList
{
    std::vector<uint32_t> ops;
    size_t dead = 0; ///< committed entries still in `ops`

    /** The entries, compacted first when most are committed. Every
     * reader still skips the scheduled ones. */
    const std::vector<uint32_t> &
    entries(const std::vector<bool> &scheduled)
    {
        if (2 * dead > ops.size()) {
            std::erase_if(ops, [&](uint32_t op) { return scheduled[op]; });
            dead = 0;
        }
        return ops;
    }
};

/**
 * Mutable per-run scheduling state. Every per-step cost follows the ops
 * the step commits, not the length of the ready list (DESIGN.md §9,
 * "Ready lists"): fills scan one per-kind bucket, lists drop committed
 * ops only when a reader finds them the majority, ages come from the
 * release step, and a chain continuation is looked up in the last
 * release batch.
 */
struct LpfsState
{
    const Module &mod;
    const MultiSimdArch &arch;
    const DepDag &dag;
    uint64_t &scanned; ///< ScheduleAttempt::readyScanned
    std::vector<uint32_t> pendingPreds;
    std::vector<uint64_t> height; ///< static DAG height (chain depth)
    std::vector<bool> scheduled;
    std::vector<bool> onPath;
    /** The step at whose end each op was released (0 for roots), so an
     * op off every path has waited step - releaseStep timesteps. */
    std::vector<uint32_t> releaseStep;
    std::vector<int> qubitRegion; ///< region holding each qubit, or -1
    /** 1 + the last timestep that touched each qubit, 0 if none; with
     * qubitRegion it tells which region ran a qubit in the previous
     * timestep. */
    std::vector<uint32_t> touchedStep;
    uint32_t step = 0; ///< the open timestep
    ReadyList ready; ///< every ready op
    /** The ready ops of each kind: subsequences of `ready`. */
    std::array<ReadyList, numGateKinds> byKind;
    /** Ops committed this timestep; their successors are released only
     * at the end of the step so dependent ops never share a timestep
     * with their predecessor. */
    std::vector<uint32_t> committedThisStep;
    /** Ops released at the end of the previous step, ascending: the
     * tail of `ready`, and the only place a chain continuation can be
     * (pickForRegion). */
    std::vector<uint32_t> releaseBatch;
    uint64_t available = 0; ///< live ready ops on no path
    bool pathTaken = false; ///< has nextLongestPath() marked any op?
    uint64_t remaining;     ///< unscheduled op count

    LpfsState(const Module &mod, const DepDag &dag,
              const MultiSimdArch &arch, uint64_t &scanned)
        : mod(mod), arch(arch), dag(dag), scanned(scanned),
          scheduled(mod.numOps(), false), onPath(mod.numOps(), false),
          releaseStep(mod.numOps(), 0), qubitRegion(mod.numQubits(), -1),
          touchedStep(mod.numQubits(), 0), remaining(mod.numOps())
    {
        height = dag.heightToBottom();
        pendingPreds.resize(dag.numNodes());
        for (uint32_t i = 0; i < dag.numNodes(); ++i)
            pendingPreds[i] = static_cast<uint32_t>(dag.preds(i).size());
        // Each op is released once: no list ever outgrows these.
        ready.ops.reserve(mod.numOps());
        for (size_t kind = 0; kind < numGateKinds; ++kind)
            byKind[kind].ops.reserve(
                mod.localCount(static_cast<GateKind>(kind)));
        for (uint32_t root : dag.roots())
            release(root);
    }

    bool
    isReady(uint32_t op) const
    {
        return !scheduled[op] && pendingPreds[op] == 0;
    }

    /** Timesteps a ready op has waited. Read only for ops on no path:
     * an op stays on its path until it is scheduled, so the count is
     * every step since its release. */
    uint32_t
    age(uint32_t op) const
    {
        return step - releaseStep[op];
    }

    /**
     * The region an op's data currently lives in, or -1 when its
     * operands are fresh (still in memory).
     */
    int
    homeRegion(uint32_t op) const
    {
        for (QubitId q : mod.op(op).operands) {
            int r = qubitRegion[q];
            if (r >= 0)
                return r;
        }
        return -1;
    }

    /** Did @p region touch one of @p op's operands last timestep? */
    bool
    continuesChain(uint32_t op, unsigned region) const
    {
        for (QubitId q : mod.op(op).operands) {
            if (touchedStep[q] == step &&
                qubitRegion[q] == static_cast<int>(region))
                return true;
        }
        return false;
    }

    /**
     * May @p op join @p region's SIMD group under the affinity rules?
     * Homed ops stay in their region; fresh ops join freely only when
     * shallow (one-shot siblings); anything may move once steal-aged.
     */
    bool
    placeable(uint32_t op, unsigned region) const
    {
        int home = homeRegion(op);
        if (home >= 0)
            return home == static_cast<int>(region);
        return height[op] <= shallowHeight;
    }

    /** Append a newly dependence-free op to the ready structures. */
    void
    release(uint32_t op)
    {
        releaseStep[op] = step;
        ready.ops.push_back(op);
        byKind[static_cast<size_t>(mod.op(op).kind)].ops.push_back(op);
        if (!onPath[op])
            ++available;
    }

    /**
     * Extract the longest path through unscheduled, un-pathed nodes,
     * starting from the currently ready frontier (getNextLongestPath).
     */
    std::deque<uint32_t>
    nextLongestPath()
    {
        // Heights over the unscheduled, un-pathed subgraph: the static
        // ones until the first path is taken (no op is scheduled
        // before that).
        std::vector<uint64_t> remaining_height;
        if (pathTaken) {
            size_t n = dag.numNodes();
            remaining_height.assign(n, 0);
            for (uint32_t i = static_cast<uint32_t>(n); i-- > 0;) {
                if (scheduled[i] || onPath[i])
                    continue;
                uint64_t best = 0;
                for (uint32_t s : dag.succs(i)) {
                    if (!scheduled[s] && !onPath[s])
                        best = std::max(best, remaining_height[s]);
                }
                remaining_height[i] = best + 1;
            }
        }
        const std::vector<uint64_t> &height =
            pathTaken ? remaining_height : this->height;

        // Start from the deepest ready node.
        int64_t start = -1;
        uint64_t best_height = 0;
        const std::vector<uint32_t> &entries = ready.entries(scheduled);
        scanned += entries.size();
        for (uint32_t op : entries) {
            if (onPath[op] || scheduled[op])
                continue;
            if (start < 0 || height[op] > best_height) {
                start = op;
                best_height = height[op];
            }
        }
        std::deque<uint32_t> path;
        if (start < 0)
            return path;
        pathTaken = true;

        auto cur = static_cast<uint32_t>(start);
        while (true) {
            path.push_back(cur);
            if (isReady(cur))
                --available;
            onPath[cur] = true;
            int64_t next = -1;
            uint64_t next_height = 0;
            for (uint32_t s : dag.succs(cur)) {
                if (scheduled[s] || onPath[s])
                    continue;
                if (next < 0 || height[s] > next_height) {
                    next = s;
                    next_height = height[s];
                }
            }
            if (next < 0)
                break;
            cur = static_cast<uint32_t>(next);
        }
        return path;
    }

    /** Mark ready @p op scheduled; its dependents are released by
     * endOfStep(). */
    void
    commit(uint32_t op)
    {
        if (!onPath[op])
            --available;
        ++ready.dead;
        ++byKind[static_cast<size_t>(mod.op(op).kind)].dead;
        scheduled[op] = true;
        onPath[op] = false;
        --remaining;
        committedThisStep.push_back(op);
    }

    /**
     * Close the open timestep of @p builder. Operand qubits now live
     * where their ops ran. The step's successors are released in
     * canonical op-index order, so `ready` and every bucket stay
     * ordered by (release step, op index) — a pure function of the
     * module content — and every first-seen tie-break (pickForRegion,
     * nextLongestPath, fillWithType) is canonical too, never an
     * artifact of the region-commit order within the step.
     */
    void
    endOfStep(const ScheduleBuilder &builder)
    {
        for (unsigned r = 0; r < arch.k; ++r) {
            for (uint32_t op : builder.slot(r).ops) {
                for (QubitId q : mod.op(op).operands) {
                    qubitRegion[q] = static_cast<int>(r);
                    touchedStep[q] = step + 1;
                }
            }
        }

        releaseBatch.clear();
        for (uint32_t op : committedThisStep) {
            for (uint32_t succ : dag.succs(op)) {
                if (--pendingPreds[succ] == 0)
                    releaseBatch.push_back(succ);
            }
        }
        std::sort(releaseBatch.begin(), releaseBatch.end());
        for (uint32_t succ : releaseBatch)
            release(succ);
        committedThisStep.clear();
        ++step;
    }

    /**
     * Fill @p slot with ready free-list (non-path) ops of @p kind that
     * the affinity rules allow into @p region, until the qubit budget
     * runs out. Entries are taken in release order; ops committed
     * earlier in this step are skipped.
     */
    void
    fillWithType(ScheduleBuilder::DraftSlot &slot, GateKind kind,
                 uint64_t &budget, unsigned region, int64_t adopted = -1)
    {
        slot.kind = kind;
        if (available == 0)
            return;
        const std::vector<uint32_t> &bucket =
            byKind[static_cast<size_t>(kind)].entries(scheduled);
        scanned += bucket.size();
        for (uint32_t op : bucket) {
            if (scheduled[op] || onPath[op])
                continue;
            if (static_cast<int64_t>(op) != adopted &&
                !placeable(op, region))
                continue;
            uint64_t need = opQubitCount(mod.op(op));
            // Skip, don't stop: under a finite d one wide op at the
            // front of the ready list must not starve smaller same-kind
            // ops queued behind it.
            if (need > budget)
                continue;
            budget -= need;
            slot.ops.push_back(op);
            commit(op);
        }
    }

    /**
     * Pick the operation whose type region @p region should execute, in
     * priority order: (1) the continuation of the chain the region ran
     * last timestep; (2) the oldest other op homed in the region;
     * (3) the deepest fresh chain head (adopting a new chain); (4) the
     * oldest steal-aged op marooned in a busy region; (5) any ready op
     * at all - an idle region is pure waste, and one (usually maskable)
     * migration beats stalling. Returns -1 only when nothing is ready.
     */
    int64_t
    pickForRegion(unsigned region)
    {
        if (available == 0)
            return -1;
        // DepDag links consecutive users of a qubit, so an op on a
        // qubit that an op of the last timestep used depends on that
        // op: it was released at the end of that step.
        for (uint32_t op : releaseBatch) {
            ++scanned;
            if (scheduled[op] || onPath[op])
                continue;
            if (homeRegion(op) == static_cast<int>(region) &&
                continuesChain(op, region))
                return op;
        }
        int64_t fresh_pick = -1;
        int64_t aged_pick = -1;
        int64_t any_pick = -1;
        for (uint32_t op : ready.entries(scheduled)) {
            ++scanned;
            if (scheduled[op] || onPath[op])
                continue;
            if (any_pick < 0 && age(op) >= 1)
                any_pick = op;
            int home = homeRegion(op);
            if (home == static_cast<int>(region)) {
                return op; // no continuation: the oldest homed op wins
            } else if (home < 0) {
                if (fresh_pick < 0 ||
                    height[op] > height[static_cast<size_t>(fresh_pick)])
                    fresh_pick = op;
            } else if (aged_pick < 0 && age(op) >= stealAge) {
                aged_pick = op;
            }
        }
        if (fresh_pick >= 0)
            return fresh_pick;
        return aged_pick >= 0 ? aged_pick : any_pick;
    }
};

} // anonymous namespace

std::string
LpfsScheduler::fingerprint() const
{
    return csprintf("lpfs(l=%u,simd=%d,refill=%d)", options.l,
                    options.simd ? 1 : 0, options.refill ? 1 : 0);
}

unsigned
LpfsScheduler::saturationWidth(const Module &mod) const
{
    const uint64_t qubits = LeafScheduler::saturationWidth(mod);
    const uint64_t width = options.simd
                               ? std::max<uint64_t>(qubits, options.l)
                               : qubits + options.l;
    return static_cast<unsigned>(std::min<uint64_t>(
        width, std::numeric_limits<unsigned>::max()));
}

LeafSchedule
LpfsScheduler::scheduleOnDag(const Module &mod, const DepDag &dag,
                             const MultiSimdArch &arch,
                             ScheduleAttempt &attempt,
                             std::span<const unsigned> home) const
{
    if (options.l == 0)
        fatal("LPFS: l must be >= 1");
    // The hierarchical width sweep schedules leaves on narrower
    // sub-machines; clamp the dedicated-path count to what exists.
    const unsigned l = std::min(options.l, arch.k);

    ScheduleBuilder builder(mod, arch.k);
    if (mod.numOps() == 0)
        return builder.finish();

    LpfsState st(mod, dag, arch, attempt.readyScanned);

    // Initial longest paths for the l dedicated regions.
    std::vector<std::deque<uint32_t>> paths(l);
    for (auto &path : paths)
        path = st.nextLongestPath();

    while (st.remaining > 0) {
        builder.beginStep();
        bool placed_any = false;

        // Dedicated path regions.
        for (unsigned i = 0; i < l; ++i) {
            auto &path = paths[i];
            while (!path.empty() && st.scheduled[path.front()])
                path.pop_front();
            if (path.empty() && options.refill)
                path = st.nextLongestPath();

            ScheduleBuilder::DraftSlot &slot = builder.slot(i);
            uint64_t budget = arch.d;
            if (!path.empty() && st.isReady(path.front())) {
                uint32_t op = path.front();
                path.pop_front();
                slot.kind = mod.op(op).kind;
                slot.ops.push_back(op);
                budget -= opQubitCount(mod.op(op));
                st.commit(op);
                placed_any = true;
                if (options.simd)
                    st.fillWithType(slot, slot.kind, budget, i);
            } else if (options.simd) {
                // Stalled (or no path): execute free-list ops instead.
                int64_t free_op = st.pickForRegion(i);
                if (free_op >= 0) {
                    st.fillWithType(slot, mod.op(free_op).kind, budget, i,
                                    free_op);
                    placed_any = placed_any || slot.active();
                }
            }
        }

        // Unallocated regions: schedule from the free list by type, with
        // location affinity so serial chains stay pinned in place.
        for (unsigned i = l; i < arch.k; ++i) {
            int64_t free_op = st.pickForRegion(i);
            if (free_op < 0)
                continue;
            uint64_t budget = arch.d;
            st.fillWithType(builder.slot(i), mod.op(free_op).kind, budget,
                            i, free_op);
            placed_any = placed_any || builder.slot(i).active();
        }

        // Progress guarantee: if every path head stalled and no free op
        // was available, force the first ready op through.
        if (!placed_any) {
            int64_t any = -1;
            for (uint32_t op : st.ready.entries(st.scheduled)) {
                ++st.scanned;
                if (st.isReady(op)) {
                    any = op;
                    break;
                }
            }
            if (any < 0)
                panic("LPFS: no ready operation but work remains "
                      "(dependence cycle?)");
            auto op = static_cast<uint32_t>(any);
            ScheduleBuilder::DraftSlot &slot = builder.slot(0);
            slot.kind = mod.op(op).kind;
            slot.ops.push_back(op);
            st.commit(op);
        }

        st.endOfStep(builder);
        builder.endStep();
    }

    return applyCoreAffinity(builder.finish(), arch, home);
}

} // namespace msq
