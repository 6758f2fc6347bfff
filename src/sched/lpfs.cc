#include "sched/lpfs.hh"

#include "sched/core_affinity.hh"

#include <algorithm>
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

/** Mutable per-run scheduling state. */
struct LpfsState
{
    const Module &mod;
    const MultiSimdArch &arch;
    const DepDag &dag;
    std::vector<uint32_t> pendingPreds;
    std::vector<uint64_t> height; ///< static DAG height (chain depth)
    std::vector<bool> scheduled;
    std::vector<bool> onPath;
    std::vector<uint32_t> age;  ///< timesteps spent ready but unplaced
    std::vector<int> qubitRegion; ///< region holding each qubit, or -1
    /** Operand qubits each region touched in the previous timestep;
     * used to keep a region working on the same serial chain. */
    std::vector<std::vector<QubitId>> lastQubits;
    /** Free/ready list in release order. Holds only unscheduled ops
     * at the start of every step: endOfStep() compacts out what the
     * step committed. */
    std::vector<uint32_t> ready;
    /** Ops committed this timestep; their successors are released only
     * at the end of the step so dependent ops never share a timestep
     * with their predecessor. */
    std::vector<uint32_t> committedThisStep;
    std::vector<uint32_t> releaseBatch; ///< endOfStep() scratch
    uint64_t remaining;         ///< unscheduled op count

    LpfsState(const Module &mod, const DepDag &dag,
              const MultiSimdArch &arch)
        : mod(mod), arch(arch), dag(dag),
          scheduled(mod.numOps(), false), onPath(mod.numOps(), false),
          age(mod.numOps(), 0), qubitRegion(mod.numQubits(), -1),
          lastQubits(arch.k), remaining(mod.numOps())
    {
        height = dag.heightToBottom();
        pendingPreds.resize(dag.numNodes());
        for (uint32_t i = 0; i < dag.numNodes(); ++i)
            pendingPreds[i] = static_cast<uint32_t>(dag.preds(i).size());
        for (uint32_t root : dag.roots())
            ready.push_back(root);
    }

    bool
    isReady(uint32_t op) const
    {
        return !scheduled[op] && pendingPreds[op] == 0;
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

    /**
     * Extract the longest path through unscheduled, un-pathed nodes,
     * starting from the currently ready frontier (getNextLongestPath).
     */
    std::deque<uint32_t>
    nextLongestPath()
    {
        size_t n = dag.numNodes();
        // Heights over the unscheduled, un-pathed subgraph.
        std::vector<uint64_t> height(n, 0);
        for (uint32_t i = static_cast<uint32_t>(n); i-- > 0;) {
            if (scheduled[i] || onPath[i])
                continue;
            uint64_t best = 0;
            for (uint32_t s : dag.succs(i)) {
                if (!scheduled[s] && !onPath[s])
                    best = std::max(best, height[s]);
            }
            height[i] = best + 1;
        }

        // Start from the deepest ready node.
        int64_t start = -1;
        uint64_t best_height = 0;
        for (uint32_t op : ready) {
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

        auto cur = static_cast<uint32_t>(start);
        while (true) {
            path.push_back(cur);
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

    /** Mark @p op scheduled; its dependents are released by
     * endOfStep(). */
    void
    commit(uint32_t op)
    {
        scheduled[op] = true;
        onPath[op] = false;
        --remaining;
        committedThisStep.push_back(op);
    }

    /**
     * Drop everything committed this timestep from the ready list, then
     * release its successors in canonical op-index order. The list then
     * holds exactly the live ops ordered by (release step, op index) — a
     * pure function of the module content — so every first-seen
     * tie-break over `ready` (pickForRegion, nextLongestPath,
     * fillWithType) is canonical too, never an artifact of the
     * region-commit order within the step.
     */
    void
    endOfStep()
    {
        auto committed = [&](uint32_t op) { return scheduled[op]; };
        ready.erase(std::remove_if(ready.begin(), ready.end(), committed),
                    ready.end());
        releaseBatch.clear();
        for (uint32_t op : committedThisStep) {
            for (uint32_t succ : dag.succs(op)) {
                if (--pendingPreds[succ] == 0)
                    releaseBatch.push_back(succ);
            }
        }
        std::sort(releaseBatch.begin(), releaseBatch.end());
        for (uint32_t succ : releaseBatch)
            ready.push_back(succ);
        committedThisStep.clear();
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
        for (uint32_t op : ready) {
            if (scheduled[op] || onPath[op] || mod.op(op).kind != kind)
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
        int64_t homed_pick = -1;
        int64_t fresh_pick = -1;
        int64_t aged_pick = -1;
        int64_t any_pick = -1;
        const auto &recent = lastQubits[region];
        for (uint32_t op : ready) {
            if (scheduled[op] || onPath[op])
                continue;
            if (any_pick < 0 && age[op] >= 1)
                any_pick = op;
            int home = homeRegion(op);
            if (home == static_cast<int>(region)) {
                for (QubitId q : mod.op(op).operands) {
                    if (std::find(recent.begin(), recent.end(), q) !=
                        recent.end())
                        return op; // chain continuation
                }
                if (homed_pick < 0)
                    homed_pick = op;
            } else if (home < 0) {
                if (fresh_pick < 0 ||
                    height[op] > height[static_cast<size_t>(fresh_pick)])
                    fresh_pick = op;
            } else if (aged_pick < 0 && age[op] >= stealAge) {
                aged_pick = op;
            }
        }
        if (homed_pick >= 0)
            return homed_pick;
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
                             ScheduleAttempt &,
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

    LpfsState st(mod, dag, arch);

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
            for (uint32_t op : st.ready) {
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

        st.endOfStep();

        // Operand qubits now live where their ops ran; waiting ops age
        // toward stealability.
        for (unsigned r = 0; r < arch.k; ++r) {
            st.lastQubits[r].clear();
            for (uint32_t op_index : builder.slot(r).ops) {
                for (QubitId q : mod.op(op_index).operands) {
                    st.qubitRegion[q] = static_cast<int>(r);
                    st.lastQubits[r].push_back(q);
                }
            }
        }
        for (uint32_t op : st.ready)
            if (!st.onPath[op])
                ++st.age[op];

        builder.endStep();
    }

    return applyCoreAffinity(builder.finish(), arch, home);
}

} // namespace msq
