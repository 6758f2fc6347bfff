#include "sched/rcp.hh"

#include "sched/core_affinity.hh"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "ir/dag.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace msq {

namespace {

constexpr int inMemory = -1;

/** Mutable per-run scheduling state. */
struct RcpState
{
    const Module &mod;
    const MultiSimdArch &arch;
    const DepDag &dag;
    std::vector<uint64_t> staticSlack; ///< DepDag::slack(); see slack()
    uint64_t stepsElapsed = 0;         ///< timesteps completed so far
    std::vector<uint32_t> pendingPreds;
    std::vector<bool> scheduled; ///< placed in some region already
    /** Ready ops, kept sorted by op index: every tie in the weight scan
     * and the candidate sort below resolves to the lowest op index, so
     * the schedule is a canonical function of the module content with
     * no reliance on incidental release order. */
    std::vector<uint32_t> ready;
    std::array<uint32_t, numGateKinds> readyCount{};
    std::vector<int> qubitRegion; ///< region holding each qubit, or memory

    RcpState(const Module &mod, const DepDag &dag,
             const MultiSimdArch &arch)
        : mod(mod), arch(arch), dag(dag),
          staticSlack(dag.slack()), scheduled(mod.numOps(), false),
          qubitRegion(mod.numQubits(), inMemory)
    {
        pendingPreds.resize(dag.numNodes());
        for (uint32_t i = 0; i < dag.numNodes(); ++i)
            pendingPreds[i] = static_cast<uint32_t>(dag.preds(i).size());
        for (uint32_t root : dag.roots())
            pushReady(root); // roots() is ascending; ready starts sorted
    }

    /**
     * Dynamic slack of @p op (Algorithm 1's updateRcpq): every op's
     * slack drops by one per completed timestep, floored at zero, so
     * the decayed value is a closed form of the step count. The floor
     * matters: ops at zero tie and fall through to the op-index
     * tie-break of the candidate sort.
     */
    uint64_t
    slack(uint32_t op) const
    {
        uint64_t s = staticSlack[op];
        return s > stepsElapsed ? s - stepsElapsed : 0;
    }

    void
    pushReady(uint32_t op)
    {
        ready.push_back(op);
        ++readyCount[static_cast<size_t>(mod.op(op).kind)];
    }

    /** @return true when op has an operand resident in region r. */
    bool
    inPlace(uint32_t op, unsigned r) const
    {
        for (QubitId q : mod.op(op).operands)
            if (qubitRegion[q] == static_cast<int>(r))
                return true;
        return false;
    }
};

} // anonymous namespace

std::string
RcpScheduler::fingerprint() const
{
    return csprintf("rcp(op=%g,dist=%g,slack=%g)", weights.op,
                    weights.dist, weights.slack);
}

LeafSchedule
RcpScheduler::scheduleOnDag(const Module &mod, const DepDag &dag,
                            const MultiSimdArch &arch,
                            ScheduleAttempt &attempt,
                            std::span<const unsigned> home) const
{
    ScheduleBuilder builder(mod, arch.k);
    if (mod.numOps() == 0)
        return builder.finish();

    RcpState st(mod, dag, arch);

    // Hoisted per-step scratch: cleared each iteration, capacity kept.
    std::vector<bool> region_used(arch.k, false);
    std::vector<uint32_t> scheduled_now;
    std::vector<uint32_t> candidates;
    std::vector<uint32_t> released;

    while (!st.ready.empty()) {
        builder.beginStep();
        region_used.assign(arch.k, false);
        unsigned regions_left = arch.k;
        scheduled_now.clear();

        // getMaxWeightSimdOpType + extract loop (Algorithm 1 inner loop).
        while (regions_left > 0 && !st.ready.empty()) {
            // Pick the (op type, region) with the highest weight. For a
            // given op the weight over regions differs only by whether
            // the op has an operand resident in an available region, so
            // scanning each op's operand regions suffices.
            double best_weight = -1e300;
            int best_region = -1;
            GateKind best_kind = GateKind::X;
            attempt.readyScanned += st.ready.size();
            for (uint32_t op_index : st.ready) {
                const Operation &op = st.mod.op(op_index);
                auto kind_index = static_cast<size_t>(op.kind);
                double base =
                    weights.op *
                        static_cast<double>(st.readyCount[kind_index]) -
                    weights.slack * static_cast<double>(st.slack(op_index));
                // Preferred region: one that already holds an operand.
                int preferred = -1;
                for (QubitId q : op.operands) {
                    int r = st.qubitRegion[q];
                    if (r >= 0 && !region_used[r]) {
                        preferred = r;
                        break;
                    }
                }
                double weight = base + (preferred >= 0 ? weights.dist : 0.0);
                // Strict '>' over the index-sorted ready list: weight
                // ties resolve to the lowest op index, never to
                // incidental release order.
                if (weight > best_weight) {
                    best_weight = weight;
                    best_kind = op.kind;
                    if (preferred >= 0) {
                        best_region = preferred;
                    } else {
                        best_region = -1; // any free region
                    }
                }
            }
            if (best_region < 0) {
                for (unsigned r = 0; r < arch.k; ++r) {
                    if (!region_used[r]) {
                        best_region = static_cast<int>(r);
                        break;
                    }
                }
            }

            // extract_optype: gather ready ops of the winning type,
            // in-place ops first, then most critical (lowest slack).
            candidates.clear();
            attempt.readyScanned += st.ready.size();
            for (uint32_t op_index : st.ready)
                if (st.mod.op(op_index).kind == best_kind)
                    candidates.push_back(op_index);
            auto r_unsigned = static_cast<unsigned>(best_region);
            std::sort(
                candidates.begin(), candidates.end(),
                [&](uint32_t a, uint32_t b) {
                    bool a_in = st.inPlace(a, r_unsigned);
                    bool b_in = st.inPlace(b, r_unsigned);
                    if (a_in != b_in)
                        return a_in;
                    uint64_t a_slack = st.slack(a);
                    uint64_t b_slack = st.slack(b);
                    if (a_slack != b_slack)
                        return a_slack < b_slack;
                    return a < b; // explicit op-index tie-break
                });

            ScheduleBuilder::DraftSlot &slot = builder.slot(r_unsigned);
            slot.kind = best_kind;
            uint64_t qubit_budget = st.arch.d;
            for (uint32_t op_index : candidates) {
                uint64_t need = opQubitCount(st.mod.op(op_index));
                if (need > qubit_budget)
                    break;
                qubit_budget -= need;
                slot.ops.push_back(op_index);
                scheduled_now.push_back(op_index);
            }
            if (slot.ops.empty())
                panic("RCP: selected region accepted no operations");

            // Retire the region and drop scheduled ops from the ready
            // list in one order-preserving pass.
            region_used[r_unsigned] = true;
            --regions_left;
            for (uint32_t op_index : slot.ops)
                st.scheduled[op_index] = true;
            st.readyCount[static_cast<size_t>(best_kind)] -=
                static_cast<uint32_t>(slot.ops.size());
            auto taken = [&](uint32_t op_index) {
                return st.scheduled[op_index];
            };
            st.ready.erase(
                std::remove_if(st.ready.begin(), st.ready.end(), taken),
                st.ready.end());
        }

        // updateRcpq: operand qubits now live in their regions; newly
        // dependence-free children become ready next timestep; waiting
        // ops grow more urgent.
        for (unsigned r = 0; r < arch.k; ++r) {
            for (uint32_t op_index : builder.slot(r).ops)
                for (QubitId q : st.mod.op(op_index).operands)
                    st.qubitRegion[q] = static_cast<int>(r);
        }
        ++st.stepsElapsed; // decays every op's slack()
        // Release in canonical op-index order and merge into the sorted
        // ready list (the compaction above preserved its order), not in
        // the incidental region-commit order of this step.
        released.clear();
        for (uint32_t op_index : scheduled_now) {
            for (uint32_t succ : st.dag.succs(op_index)) {
                if (--st.pendingPreds[succ] == 0)
                    released.push_back(succ);
            }
        }
        std::sort(released.begin(), released.end());
        auto mid = static_cast<std::ptrdiff_t>(st.ready.size());
        for (uint32_t succ : released)
            st.pushReady(succ);
        std::inplace_merge(st.ready.begin(), st.ready.begin() + mid,
                           st.ready.end());
        builder.endStep();
    }

    return applyCoreAffinity(builder.finish(), arch, home);
}

} // namespace msq
