#include "sched/opt.hh"

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/bounds.hh"
#include "analysis/schedule_summary.hh"
#include "ir/dag.hh"
#include "sched/comm.hh"
#include "support/logging.hh"
#include "support/saturate.hh"
#include "support/strings.hh"

namespace msq {

namespace {

/**
 * Children enumerated per search node before moving on. The first child
 * is the most parallel feasible packing (the greedy descent), so a deep
 * cap mostly spends budget re-deriving near-identical prefixes; a small
 * cap keeps the search wide instead.
 */
constexpr size_t maxChildrenPerNode = 64;

/** Mixed-radix counter iterations per node (feasible or not). */
constexpr size_t maxComboIterationsPerNode = 4096;

/**
 * One branch-and-bound search for an LB-step, zero-movement-cycle
 * schedule of a leaf module. State along the DFS spine is the set of
 * scheduled ops (a bitset), the canonical ready frontier derived from
 * it, and the per-step op picks needed to rebuild the schedule when a
 * leaf of the search tree completes.
 *
 * Every choice point is canonical — kinds in enum order, ops ordered by
 * (height desc, index asc), children in descending mixed-radix order,
 * regions by residency-then-lowest-index — so for a fixed (module,
 * arch, options) the entire search, including its statistics, is a
 * pure function of the input.
 */
class OptSearch
{
  public:
    OptSearch(const Module &mod, const DepDag &dag,
              const MultiSimdArch &arch, CommMode mode,
              std::span<const unsigned> home, uint64_t lower_bound,
              uint64_t node_budget, ScheduleAttempt &attempt)
        : mod(mod), arch(arch), mode(mode), home(home), lb(lower_bound),
          budget(node_budget), attempt(attempt), dag(dag),
          height(dag.heightToBottom()),
          scheduledWords((mod.numOps() + 63) / 64, 0)
    {
        pendingPreds.resize(dag.numNodes());
        for (uint32_t i = 0; i < dag.numNodes(); ++i)
            pendingPreds[i] = static_cast<uint32_t>(dag.preds(i).size());
        // Same per-step touch capacity the resource bound divides by
        // (analysis/bounds.cc touchCapacity) — scheduler and bound must
        // agree on what one timestep can absorb.
        cap = std::min<uint64_t>(satMul(arch.k, arch.d), mod.numQubits());
        cap = std::max<uint64_t>(cap, 1);
    }

    /** @return true when a certificate schedule was found (in proof). */
    bool
    run()
    {
        std::vector<uint32_t> ready = dag.roots(); // ascending indices
        uint64_t touches = 0;
        for (const auto &op : mod.ops())
            touches = satAdd(touches, op.operands.size());
        return dfs(0, ready, touches);
    }

    std::optional<LeafSchedule> proof;

  private:
    /** Ready ops of one kind at a choice point, plus its d-derived
     * packing limits. */
    struct KindGroup
    {
        GateKind kind = GateKind::X;
        std::vector<uint32_t> ops; ///< (height desc, index asc) order
        uint64_t capPerRegion = 0; ///< same-kind ops one region holds
        uint32_t maxCount = 0;     ///< ops of this kind placeable at once
    };

    bool
    scheduledBit(uint32_t op) const
    {
        return (scheduledWords[op / 64] >> (op % 64)) & 1;
    }

    void
    applyPick(const std::vector<uint32_t> &picked)
    {
        for (uint32_t op : picked) {
            scheduledWords[op / 64] |= uint64_t{1} << (op % 64);
            for (uint32_t succ : dag.succs(op))
                --pendingPreds[succ];
        }
    }

    void
    undoPick(const std::vector<uint32_t> &picked)
    {
        for (uint32_t op : picked) {
            scheduledWords[op / 64] &= ~(uint64_t{1} << (op % 64));
            for (uint32_t succ : dag.succs(op))
                ++pendingPreds[succ];
        }
    }

    /** Group @p ready by kind and derive each kind's packing limits. */
    std::vector<KindGroup>
    groupReady(const std::vector<uint32_t> &ready) const
    {
        std::vector<KindGroup> groups;
        for (size_t kind_index = 0; kind_index < numGateKinds;
             ++kind_index) {
            auto kind = static_cast<GateKind>(kind_index);
            KindGroup group;
            group.kind = kind;
            for (uint32_t op : ready)
                if (mod.op(op).kind == kind)
                    group.ops.push_back(op);
            if (group.ops.empty())
                continue;
            std::sort(group.ops.begin(), group.ops.end(),
                      [&](uint32_t a, uint32_t b) {
                          if (height[a] != height[b])
                              return height[a] > height[b];
                          return a < b;
                      });
            const uint64_t arity =
                mod.op(group.ops.front()).operands.size();
            group.capPerRegion = arch.d == unbounded
                                     ? group.ops.size()
                                     : arch.d / arity; // >= 1, checkInputs
            group.maxCount = static_cast<uint32_t>(std::min<uint64_t>(
                group.ops.size(), satMul(group.capPerRegion, arch.k)));
            groups.push_back(std::move(group));
        }
        return groups;
    }

    /** Regions a pick of @p count ops from @p group occupies. */
    static uint64_t
    regionsNeeded(const KindGroup &group, uint32_t count)
    {
        return satCeilDiv(count, group.capPerRegion);
    }

    /**
     * Expand the node (depth, ready): enumerate per-kind pick counts in
     * descending mixed-radix order (most parallel first), prune with
     * the same bounds the certificate is judged against plus the
     * dominance table, and recurse. @return true once proof is set.
     */
    bool
    dfs(uint64_t depth, const std::vector<uint32_t> &ready,
        uint64_t rem_touches)
    {
        const std::vector<KindGroup> groups = groupReady(ready);
        std::vector<uint32_t> digits(groups.size());
        size_t yielded = 0;

        // Phase 1: kind-pure steps, largest pick first. A zero-movement
        // certificate needs every qubit to stay put, and steps that run
        // a single kind machine-wide never force a qubit to chase its
        // kind into another region — so they are where certificates
        // overwhelmingly live, and the budget goes to them first.
        for (size_t i = 0; i < groups.size(); ++i) {
            for (uint32_t count = groups[i].maxCount; count > 0;
                 --count) {
                if (regionsNeeded(groups[i], count) > arch.k)
                    continue;
                if (aborted || budget == 0) {
                    aborted = true;
                    return false;
                }
                digits.assign(groups.size(), 0);
                digits[i] = count;
                if (tryChild(depth, ready, rem_touches, groups, digits))
                    return true;
                if (aborted)
                    return false;
                if (++yielded == maxChildrenPerNode)
                    return false;
            }
        }

        // Phase 2: mixed-kind steps in descending mixed-radix order
        // (most parallel first), skipping the pure picks phase 1 tried.
        for (size_t i = 0; i < groups.size(); ++i)
            digits[i] = groups[i].maxCount;
        for (size_t iter = 0; iter < maxComboIterationsPerNode; ++iter) {
            size_t nonzero = 0;
            uint64_t regions = 0;
            for (size_t i = 0; i < groups.size(); ++i) {
                if (digits[i] == 0)
                    continue;
                ++nonzero;
                regions = satAdd(regions,
                                 regionsNeeded(groups[i], digits[i]));
            }
            if (nonzero >= 2 && regions <= arch.k) {
                if (aborted || budget == 0) {
                    aborted = true;
                    return false;
                }
                if (tryChild(depth, ready, rem_touches, groups, digits))
                    return true;
                if (aborted)
                    return false;
                if (++yielded == maxChildrenPerNode)
                    break;
            }
            // Next combination: decrement the rightmost nonzero digit
            // and reset everything after it to its maximum.
            size_t i = groups.size();
            while (i > 0 && digits[i - 1] == 0)
                --i;
            if (i == 0)
                break;
            --digits[i - 1];
            for (size_t j = i; j < groups.size(); ++j)
                digits[j] = groups[j].maxCount;
        }
        return false;
    }

    /** Expand one child: pick the digit-prefix ops of each kind as the
     * next timestep, prune or recurse. */
    bool
    tryChild(uint64_t depth, const std::vector<uint32_t> &ready,
             uint64_t rem_touches, const std::vector<KindGroup> &groups,
             const std::vector<uint32_t> &digits)
    {
        --budget;
        ++attempt.nodesExpanded;

        std::vector<uint32_t> picked;
        uint64_t picked_touches = 0;
        for (size_t i = 0; i < groups.size(); ++i) {
            for (uint32_t j = 0; j < digits[i]; ++j) {
                uint32_t op = groups[i].ops[j];
                picked.push_back(op);
                picked_touches += mod.op(op).operands.size();
            }
        }

        applyPick(picked);
        bool found = false;
        do {
            // Ready frontier after this step, ascending op index.
            std::vector<uint32_t> ready_next;
            for (uint32_t op : ready)
                if (!scheduledBit(op))
                    ready_next.push_back(op);
            // An op whose predecessors were all picked this very step
            // is released once per such predecessor — dedupe, or it
            // would be scheduled twice.
            for (uint32_t op : picked)
                for (uint32_t succ : dag.succs(op))
                    if (pendingPreds[succ] == 0)
                        ready_next.push_back(succ);
            std::sort(ready_next.begin(), ready_next.end());
            ready_next.erase(
                std::unique(ready_next.begin(), ready_next.end()),
                ready_next.end());

            const uint64_t rem_next = rem_touches - picked_touches;
            if (ready_next.empty()) {
                // All ops placed in depth + 1 steps; certify or keep
                // searching.
                stepPicks.push_back(picked);
                found = buildAndCheck();
                stepPicks.pop_back();
                break;
            }

            // Critical path: the unscheduled set is successor-closed,
            // so its tallest chain hangs off some ready op.
            uint64_t height_max = 0;
            for (uint32_t op : ready_next)
                height_max = std::max(height_max, height[op]);
            if (satAdd(depth + 1, height_max) > lb) {
                ++attempt.prunedByCriticalPath;
                break;
            }
            if (satAdd(depth + 1, satCeilDiv(rem_next, cap)) > lb) {
                ++attempt.prunedByResource;
                break;
            }
            // Dominance: reaching the same scheduled set in as few or
            // fewer steps subsumes every completion of this prefix
            // (completability depends only on the set).
            std::string key(
                reinterpret_cast<const char *>(scheduledWords.data()),
                scheduledWords.size() * sizeof(uint64_t));
            auto it = dominance.find(key);
            if (it != dominance.end() && it->second <= depth + 1) {
                ++attempt.prunedByDominance;
                break;
            }
            dominance[std::move(key)] = depth + 1;

            stepPicks.push_back(picked);
            found = dfs(depth + 1, ready_next, rem_next);
            stepPicks.pop_back();
        } while (false);
        undoPick(picked);
        return found;
    }

    /** One planned (region, kind, ops) slot of a step under
     * construction. */
    struct SlotPlan
    {
        unsigned region = 0;
        GateKind kind = GateKind::X;
        std::vector<uint32_t> ops;
    };

    /**
     * Residency-aware step placement: within each kind, ops whose
     * operands already live together in some free region stay there, so
     * multi-component zero-movement placements (one qubit cluster per
     * region) survive reconstruction. May need more regions than the
     * per-kind ceil(count / cap) arithmetic the search admitted — fails
     * (nullopt) instead of overflowing, and the caller falls back to
     * plain chunking.
     */
    std::optional<std::vector<SlotPlan>>
    planStepByResidency(const std::vector<uint32_t> &picked,
                        const std::vector<int> &qubit_region) const
    {
        std::vector<SlotPlan> plans;
        std::vector<bool> used(arch.k, false);
        for (size_t kind_index = 0; kind_index < numGateKinds;
             ++kind_index) {
            auto kind = static_cast<GateKind>(kind_index);
            std::vector<uint32_t> ops;
            for (uint32_t op : picked)
                if (mod.op(op).kind == kind)
                    ops.push_back(op);
            if (ops.empty())
                continue;
            const uint64_t arity = mod.op(ops.front()).operands.size();
            const uint64_t chunk_cap =
                arch.d == unbounded ? ops.size() : arch.d / arity;
            // Bucket by the region a resident operand pins the op to
            // (first resident operand wins; -1 = all operands fresh).
            std::vector<std::vector<uint32_t>> home(arch.k);
            std::vector<uint32_t> leftover;
            for (uint32_t op : ops) {
                int r = -1;
                for (QubitId q : mod.op(op).operands) {
                    if (qubit_region[q] >= 0) {
                        r = qubit_region[q];
                        break;
                    }
                }
                if (r >= 0)
                    home[static_cast<unsigned>(r)].push_back(op);
                else
                    leftover.push_back(op);
            }
            std::vector<size_t> kind_plans;
            for (unsigned r = 0; r < arch.k; ++r) {
                if (home[r].empty())
                    continue;
                if (used[r]) {
                    // Another kind claimed the residents' region this
                    // step; movement is unavoidable, park them anywhere.
                    leftover.insert(leftover.end(), home[r].begin(),
                                    home[r].end());
                    continue;
                }
                used[r] = true;
                SlotPlan plan;
                plan.region = r;
                plan.kind = kind;
                const size_t take = std::min<size_t>(
                    home[r].size(), static_cast<size_t>(chunk_cap));
                plan.ops.assign(home[r].begin(),
                                home[r].begin() +
                                    static_cast<std::ptrdiff_t>(take));
                leftover.insert(leftover.end(), home[r].begin() +
                                    static_cast<std::ptrdiff_t>(take),
                                home[r].end());
                kind_plans.push_back(plans.size());
                plans.push_back(std::move(plan));
            }
            // Fill spare capacity of this kind's resident slots before
            // opening fresh regions: an op on only-fresh qubits joins an
            // existing cluster for free (first fetches are masked)
            // instead of founding a region it will have to leave.
            size_t li = 0;
            for (size_t pi : kind_plans) {
                while (li < leftover.size() &&
                       plans[pi].ops.size() < chunk_cap)
                    plans[pi].ops.push_back(leftover[li++]);
            }
            leftover.erase(leftover.begin(),
                           leftover.begin() +
                               static_cast<std::ptrdiff_t>(li));
            for (size_t base = 0; base < leftover.size();
                 base += chunk_cap) {
                const size_t end = std::min<size_t>(
                    leftover.size(), base + chunk_cap);
                int region = -1;
                for (unsigned r = 0; region < 0 && r < arch.k; ++r)
                    if (!used[r])
                        region = static_cast<int>(r);
                if (region < 0)
                    return std::nullopt;
                used[static_cast<unsigned>(region)] = true;
                SlotPlan plan;
                plan.region = static_cast<unsigned>(region);
                plan.kind = kind;
                plan.ops.assign(leftover.begin() +
                                    static_cast<std::ptrdiff_t>(base),
                                leftover.begin() +
                                    static_cast<std::ptrdiff_t>(end));
                plans.push_back(std::move(plan));
            }
        }
        return plans;
    }

    /**
     * Plain per-kind chunking, guaranteed to fit because the search
     * admitted this step with the same ceil(count / cap) arithmetic.
     * Each chunk still prefers a free region holding one of its
     * operands.
     */
    std::vector<SlotPlan>
    planStepByChunks(const std::vector<uint32_t> &picked,
                     const std::vector<int> &qubit_region) const
    {
        std::vector<SlotPlan> plans;
        std::vector<bool> used(arch.k, false);
        for (size_t kind_index = 0; kind_index < numGateKinds;
             ++kind_index) {
            auto kind = static_cast<GateKind>(kind_index);
            std::vector<uint32_t> ops;
            for (uint32_t op : picked)
                if (mod.op(op).kind == kind)
                    ops.push_back(op);
            if (ops.empty())
                continue;
            const uint64_t arity = mod.op(ops.front()).operands.size();
            const uint64_t chunk_cap =
                arch.d == unbounded ? ops.size() : arch.d / arity;
            for (size_t base = 0; base < ops.size(); base += chunk_cap) {
                const size_t end =
                    std::min(ops.size(), base + chunk_cap);
                int region = -1;
                for (size_t i = base; i < end && region < 0; ++i) {
                    for (QubitId q : mod.op(ops[i]).operands) {
                        int r = qubit_region[q];
                        if (r >= 0 && !used[r]) {
                            region = r;
                            break;
                        }
                    }
                }
                for (unsigned r = 0; region < 0 && r < arch.k; ++r)
                    if (!used[r])
                        region = static_cast<int>(r);
                if (region < 0)
                    panic("OptScheduler: step needs more regions "
                          "than the feasibility check admitted");
                used[static_cast<unsigned>(region)] = true;
                SlotPlan plan;
                plan.region = static_cast<unsigned>(region);
                plan.kind = kind;
                plan.ops.assign(ops.begin() +
                                    static_cast<std::ptrdiff_t>(base),
                                ops.begin() +
                                    static_cast<std::ptrdiff_t>(end));
                plans.push_back(std::move(plan));
            }
        }
        return plans;
    }

    /**
     * Materialize the stepPicks stack as a schedule — residency-aware
     * placement first, plain chunking when that needs too many regions
     * — then annotate it under the configured communication mode. A
     * proof is a totalCycles that equals the lower bound exactly: LB
     * bounds compute steps of any valid schedule, so LB steps plus a
     * zero-cost movement phase is unbeatable.
     */
    bool
    buildAndCheck()
    {
        ScheduleBuilder builder(mod, arch.k);
        std::vector<int> qubit_region(mod.numQubits(), -1);
        for (const auto &picked : stepPicks) {
            std::optional<std::vector<SlotPlan>> plans =
                planStepByResidency(picked, qubit_region);
            if (!plans)
                plans = planStepByChunks(picked, qubit_region);
            builder.beginStep();
            for (const SlotPlan &plan : *plans) {
                ScheduleBuilder::DraftSlot &slot =
                    builder.slot(plan.region);
                slot.kind = plan.kind;
                slot.ops = plan.ops;
                // Operand qubits now live where their ops ran (mirrors
                // the RCP/LPFS residency update).
                for (uint32_t op : plan.ops)
                    for (QubitId q : mod.op(op).operands)
                        qubit_region[q] = static_cast<int>(plan.region);
            }
            builder.endStep();
        }

        LeafSchedule candidate = builder.finish();
        CommunicationAnalyzer comm(arch, mode);
        ResourceSummary summary;
        comm.annotate(candidate, summary, home);
        ++attempt.candidatesAnnotated;
        if (summary.serialCycles != lb)
            return false;
        proof.emplace(std::move(candidate));
        return true;
    }

    const Module &mod;
    const MultiSimdArch &arch;
    CommMode mode;
    std::span<const unsigned> home;
    uint64_t lb;
    uint64_t budget;
    ScheduleAttempt &attempt;
    bool aborted = false;

    const DepDag &dag;
    std::vector<uint64_t> height;
    std::vector<uint32_t> pendingPreds;
    std::vector<uint64_t> scheduledWords;
    uint64_t cap = 1;
    /** Op picks of each committed step along the DFS spine. */
    std::vector<std::vector<uint32_t>> stepPicks;
    /** scheduled-set bitset -> fewest steps that reached it. */
    std::unordered_map<std::string, uint64_t> dominance;
};

} // anonymous namespace

const char *
optFallbackName(OptFallback fallback)
{
    switch (fallback) {
      case OptFallback::Rcp:
        return "rcp";
      case OptFallback::Lpfs:
        return "lpfs";
    }
    panic("optFallbackName: invalid fallback");
}

const LeafScheduler &
OptScheduler::fallbackScheduler() const
{
    if (options.fallback == OptFallback::Rcp)
        return rcp;
    return lpfs;
}

unsigned
OptScheduler::saturationWidth(const Module &mod) const
{
    return fallbackScheduler().saturationWidth(mod);
}

std::string
OptScheduler::fingerprint() const
{
    return csprintf("opt(budget=%llu,maxops=%u,mode=%s,fallback=%s)",
                    static_cast<unsigned long long>(options.nodeBudget),
                    options.maxOps, commModeName(commMode),
                    fallbackScheduler().fingerprint().c_str());
}

LeafSchedule
OptScheduler::scheduleOnDag(const Module &mod, const DepDag &dag,
                            const MultiSimdArch &arch,
                            ScheduleAttempt &attempt,
                            std::span<const unsigned> home) const
{
    if (mod.numOps() == 0) {
        // An empty schedule trivially meets its (zero) bound.
        attempt.provenance = ScheduleProvenance::Optimal;
        ScheduleBuilder builder(mod, arch.k);
        return builder.finish();
    }

    // Tier 0: cost the fallback heuristic against the bound. When it
    // already meets the bound the proof is free — the search would only
    // rediscover a schedule of the same certified length.
    ScheduleAttempt fallback_attempt;
    LeafSchedule fallback = fallbackScheduler().scheduleWithAttempt(
        mod, dag, arch, fallback_attempt, home);
    CommunicationAnalyzer comm(arch, commMode);
    ResourceSummary fb_summary;
    comm.annotate(fallback, fb_summary, home);
    const uint64_t lb = LeafBoundProfile(mod, dag).evaluate(arch).composite();
    attempt.candidatesAnnotated = 1;
    attempt.readyScanned = fallback_attempt.readyScanned;
    if (fb_summary.serialCycles == lb) {
        attempt.provenance = ScheduleProvenance::Optimal;
        return fallback;
    }

    if (mod.numOps() > options.maxOps || options.nodeBudget == 0) {
        attempt.provenance = ScheduleProvenance::Fallback;
        return fallback;
    }

    OptSearch search(mod, dag, arch, commMode, home, lb,
                     options.nodeBudget, attempt);
    if (search.run()) {
        attempt.provenance = ScheduleProvenance::Optimal;
        return std::move(*search.proof);
    }
    attempt.provenance = ScheduleProvenance::Fallback;
    return fallback;
}

} // namespace msq
