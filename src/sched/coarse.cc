#include "sched/coarse.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <queue>

#include "analysis/bounds.hh"
#include "analysis/qubit_mapping.hh"
#include "ir/dag.hh"
#include "support/logging.hh"
#include "support/saturate.hh"
#include "support/strings.hh"
#include "support/thread_pool.hh"

namespace msq {

uint64_t
ModuleScheduleInfo::bestLength() const
{
    if (dims.empty())
        panic("ModuleScheduleInfo: no dimensions available");
    uint64_t best = dims.front().length;
    for (const auto &bb : dims)
        best = std::min(best, bb.length);
    return best;
}

const Blackbox &
ModuleScheduleInfo::bestWithin(unsigned max_width) const
{
    const Blackbox *best = nullptr;
    for (const auto &bb : dims) {
        if (bb.width > max_width)
            continue;
        if (!best || bb.length < best->length)
            best = &bb;
    }
    if (!best)
        panic("ModuleScheduleInfo: no dimension fits width budget");
    return *best;
}

const ModuleScheduleInfo &
ProgramSchedule::forModule(ModuleId id) const
{
    if (id >= modules.size() || !modules[id].analyzed)
        panic("ProgramSchedule: module not analyzed");
    return modules[id];
}

CoarseScheduler::CoarseScheduler(const MultiSimdArch &arch,
                                 const LeafScheduler &leaf_scheduler,
                                 CommMode mode, Options options)
    : arch(arch), leafScheduler(&leaf_scheduler), mode(mode),
      widths(std::move(options.widths)), numThreads(options.numThreads),
      cache(std::move(options.leafCache)), metrics(options.metrics)
{
    arch.validate();
    if (widths.empty()) {
        for (unsigned w = 1; w < arch.k; w *= 2)
            widths.push_back(w);
        widths.push_back(arch.k);
    }
    std::sort(widths.begin(), widths.end());
    widths.erase(std::unique(widths.begin(), widths.end()), widths.end());
    // The sweep ends at k so that each leaf's widest slot carries its
    // full-machine bounds (ModuleScheduleInfo::result).
    if (widths.front() < 1 || widths.back() != arch.k)
        fatal("CoarseScheduler: width sweep not in [1, k] ending at k");
    if (numThreads == 0)
        numThreads = ThreadPool::hardwareThreads();
    if (cache) {
        cacheKeySuffix = leafScheduleKeySuffix(
            leafScheduler->fingerprint(), arch, mode);
    }
}

std::shared_ptr<LeafScheduleResult>
scheduleLeafWidth(const LeafScheduler &scheduler, const Module &mod,
                  const DepDag &dag, const LeafBoundProfile &bounds,
                  std::span<const unsigned> home,
                  const MultiSimdArch &arch, CommMode mode, unsigned w)
{
    MultiSimdArch sub = arch;
    sub.k = w;
    auto result = std::make_shared<LeafScheduleResult>();
    LeafSchedule sched =
        scheduler.scheduleWithAttempt(mod, dag, sub, result->attempt, home);
    // One annotate walk counts the moves, without recording them, and
    // folds the leaf's resource summary. It and the static lower bounds
    // are the leaf's blackbox; the schedule itself dies here, since
    // nothing past the width task reads it.
    CommunicationAnalyzer(arch, mode).countMoves(sched, result->summary,
                                                 home);
    result->bounds = bounds.evaluate(sub);
    // Guard fields for cross-process reuse: a warm-started process can
    // only rebind this result to a module with matching counts.
    result->opCount = mod.numOps();
    result->qubitCount = mod.numQubits();
    return result;
}

/**
 * The width-invariant analysis of one leaf for one schedule() call: its
 * memoization key prefix, how many sweep widths it schedules, the check
 * of its ops, its dependence DAG, its bound profile and, on a
 * multi-core topology, its qubit-to-core mapping (DESIGN.md §9). The
 * key prefix and task count are set before the width tasks fan out.
 * The rest is built under call_once by the first width task that
 * misses the cache, whichever thread runs it; the others wait for it
 * and then only read. The last of the leaf's width tasks to finish
 * frees it, so a leaf whose widths all hit builds nothing and only the
 * leaves in flight hold a DAG. A leaf that fails its check throws the
 * same error from every width task that misses.
 */
struct CoarseScheduler::LeafShare
{
    std::string keyPrefix;
    /** Sweep widths scheduled as tasks: the first widthTasks widths.
     * The wider ones take the last task's result (width collapse). */
    size_t widthTasks = 0;
    std::atomic<size_t> tasksLeft{0};
    std::once_flag analyzed;
    /** What the analysis threw. The callable never throws out of
     * call_once: a throwing one leaves the flag to be retried, and
     * under TSan the other width tasks then wait on it for good. */
    std::exception_ptr failure;
    std::optional<DepDag> dag;
    std::optional<LeafBoundProfile> bounds;
    std::vector<unsigned> home;

    /** Check the leaf's ops once for all of its widths, then build. */
    void
    analyze(const Module &mod, const MultiSimdArch &arch)
    {
        std::call_once(analyzed, [&] {
            try {
                LeafScheduler::checkInputs(mod, arch);
                dag.emplace(DepDag::build(mod));
                bounds.emplace(mod, *dag);
                if (arch.topology.multiCore())
                    home = computeQubitMapping(mod, arch.topology);
            } catch (...) {
                failure = std::current_exception();
            }
        });
        if (failure)
            std::rethrow_exception(failure);
    }

    /** Called once per finished width task; the last one frees. */
    void
    finishTask()
    {
        if (tasksLeft.fetch_sub(1) == 1) {
            dag.reset();
            bounds.reset();
            std::vector<unsigned>().swap(home);
        }
    }
};

std::shared_ptr<const LeafScheduleResult>
CoarseScheduler::cachedResult(const Module &mod,
                              const std::string &key) const
{
    auto hit = cache->lookup(key);
    if (!hit || hit->matchesModule(mod.numOps(), mod.numQubits()))
        return hit;
    // Rebind-time collision guard (DiagCode::CacheRebindRejected): a
    // disk-loaded entry whose stored counts disagree with the
    // requesting module — a structural-hash collision or a forged file
    // — must never rebind. Evict it so the recompute's insert() wins,
    // and report a miss.
    cache->remove(key);
    cache->countRejection();
    warn(csprintf(
        "leaf cache: %s: entry for key %s rejected at rebind "
        "(stored %llu ops/%llu qubits, module has %llu/%llu); "
        "recomputing",
        diagCodeName(DiagCode::CacheRebindRejected), key.c_str(),
        static_cast<unsigned long long>(hit->opCount),
        static_cast<unsigned long long>(hit->qubitCount),
        static_cast<unsigned long long>(mod.numOps()),
        static_cast<unsigned long long>(mod.numQubits())));
    return nullptr;
}

std::shared_ptr<const LeafScheduleResult>
CoarseScheduler::leafWidthResult(const Module &mod, unsigned w,
                                 LeafShare &share) const
{
    // Guard the span on enabled() so name/args composition costs
    // nothing on untraced runs; the record path itself is per-thread
    // and safe under ThreadPool fan-out.
    const bool tracing = Telemetry::trace().enabled();
    std::optional<TraceSpan> span;
    if (tracing) {
        span.emplace(Telemetry::trace(), "leaf:" + mod.name());
        span->arg("module", mod.name()).arg("width", w);
        span->arg("gates", mod.numOps());
    }

    std::string key;
    if (cache) {
        key = leafScheduleKey(share.keyPrefix, w, cacheKeySuffix);
        if (auto hit = cachedResult(mod, key)) {
            if (tracing)
                span->arg("cache", "hit");
            return hit;
        }
    }
    share.analyze(mod, arch);
    auto result = scheduleLeafWidth(*leafScheduler, mod, *share.dag,
                                    *share.bounds, share.home, arch, mode,
                                    w);
    if (tracing)
        span->arg("cache", cache ? "miss" : "off");
    if (cache)
        return cache->insert(key, std::move(result));
    return result;
}

std::shared_ptr<const LeafScheduleResult>
CoarseScheduler::derivedWidthResult(
    const Module &mod, unsigned w, const LeafShare &share,
    const std::shared_ptr<const LeafScheduleResult> &base) const
{
    // A result carries no width, so the base is exactly what a width
    // task at w would return.
    if (!cache)
        return base;
    // The slot keeps its own key and passes the same rebind guard as a
    // width task, so hits, misses and the stored entries are exactly
    // what scheduling this width would have produced.
    const std::string key =
        leafScheduleKey(share.keyPrefix, w, cacheKeySuffix);
    if (auto hit = cachedResult(mod, key))
        return hit;
    return cache->insert(key, base);
}

namespace {

/** An entry of the current parallel set during coarse list scheduling. */
struct SetItem
{
    uint32_t opIndex;
    uint64_t start;        ///< absolute start cycle
    uint64_t length;       ///< current chosen length
    unsigned width;        ///< current chosen width
    const std::vector<Blackbox> *dims; ///< null for fixed-shape gates
    uint64_t perInvokeOverhead; ///< call flush overhead (cycles)
    uint64_t repeat;
    bool successorScheduled = false; ///< reshaping would break dependents

    uint64_t finish() const { return start + length; }

    /** Total length for dimension choice @p bb. */
    uint64_t
    lengthFor(const Blackbox &bb) const
    {
        return satMul(repeat, satAdd(bb.length, perInvokeOverhead));
    }
};

} // anonymous namespace

uint64_t
CoarseScheduler::scheduleNonLeaf(const Module &mod, const DepDag &dag,
                                 std::span<const uint64_t> priority,
                                 const ProgramSchedule &partial,
                                 unsigned max_width) const
{
    const uint64_t gate_cost = MultiSimdArch::coarseGateCost(mode);
    const uint64_t call_overhead = MultiSimdArch::callOverhead(mode);

    std::vector<uint32_t> pending_preds(dag.numNodes());
    for (uint32_t i = 0; i < dag.numNodes(); ++i)
        pending_preds[i] = static_cast<uint32_t>(dag.preds(i).size());

    // Max-priority ready queue.
    auto cmp = [&](uint32_t a, uint32_t b) {
        return priority[a] < priority[b];
    };
    std::priority_queue<uint32_t, std::vector<uint32_t>, decltype(cmp)>
        ready(cmp);
    for (uint32_t root : dag.roots())
        ready.push(root);

    std::vector<uint64_t> finish(dag.numNodes(), 0);
    std::vector<SetItem> set;
    uint64_t total_len = 0; ///< cycles completed before the current set
    uint64_t curr_len = 0;  ///< length of the current parallel set
    uint64_t curr_width = 0;

    auto close_set = [&]() {
        total_len = satAdd(total_len, curr_len);
        curr_len = 0;
        curr_width = 0;
        set.clear();
    };

    auto make_item = [&](uint32_t op_index) {
        const Operation &op = mod.op(op_index);
        SetItem item;
        item.opIndex = op_index;
        if (op.isCall()) {
            const auto &callee = partial.forModule(op.callee);
            const Blackbox &bb = callee.bestWithin(max_width);
            item.dims = &callee.dims;
            item.width = bb.width;
            item.perInvokeOverhead = call_overhead;
            item.repeat = op.repeat;
            item.length = item.lengthFor(bb);
        } else {
            item.dims = nullptr;
            item.width = 1;
            item.perInvokeOverhead = 0;
            item.repeat = 1;
            item.length = gate_cost;
        }
        return item;
    };

    // Shrink-then-regrow width-combination search: reshape the reshapable
    // items of {items, item} so total width fits max_width, minimizing
    // the set length. Returns false when infeasible. Operates on copies;
    // the caller compares the reshaped set length against serializing
    // before committing.
    auto try_refit = [&](std::vector<SetItem> &items,
                         SetItem &item) -> bool {
        std::vector<SetItem *> all;
        uint64_t width_sum = 0;
        for (auto &existing : items) {
            all.push_back(&existing);
            width_sum += existing.width;
        }
        all.push_back(&item);
        width_sum += item.width;

        // Shrink: step the widest reshapable item down one dimension at
        // a time, preferring the smallest length penalty.
        while (width_sum > max_width) {
            SetItem *best_item = nullptr;
            const Blackbox *best_choice = nullptr;
            uint64_t best_penalty = 0;
            for (SetItem *cand : all) {
                if (!cand->dims || cand->successorScheduled)
                    continue;
                // Largest width strictly below the current one.
                const Blackbox *next = nullptr;
                for (const auto &bb : *cand->dims) {
                    if (bb.width < cand->width &&
                        (!next || bb.width > next->width))
                        next = &bb;
                }
                if (!next)
                    continue;
                uint64_t penalty = cand->lengthFor(*next) - cand->length;
                if (!best_item || penalty < best_penalty ||
                    (penalty == best_penalty &&
                     cand->width > best_item->width)) {
                    best_item = cand;
                    best_choice = next;
                    best_penalty = penalty;
                }
            }
            if (!best_item)
                return false; // nothing left to shrink
            width_sum -= best_item->width - best_choice->width;
            best_item->width = best_choice->width;
            best_item->length = best_item->lengthFor(*best_choice);
        }

        // Regrow: spend leftover width on whichever item currently ends
        // the set, while that improves the set length.
        bool improved = true;
        while (improved) {
            improved = false;
            SetItem *longest = nullptr;
            for (SetItem *cand : all)
                if (!longest || cand->finish() > longest->finish())
                    longest = cand;
            if (!longest || !longest->dims || longest->successorScheduled)
                break;
            const Blackbox *next = nullptr;
            for (const auto &bb : *longest->dims) {
                if (bb.width > longest->width &&
                    width_sum + (bb.width - longest->width) <= max_width &&
                    (!next || bb.width < next->width))
                    next = &bb;
            }
            if (next && longest->lengthFor(*next) < longest->length) {
                width_sum += next->width - longest->width;
                longest->width = next->width;
                longest->length = longest->lengthFor(*next);
                improved = true;
            }
        }
        return true;
    };

    while (!ready.empty()) {
        uint32_t op_index = ready.top();
        ready.pop();

        uint64_t earliest = 0;
        for (uint32_t p : dag.preds(op_index))
            earliest = std::max(earliest, finish[p]);

        SetItem item = make_item(op_index);

        bool placed = false;
        if (earliest < satAdd(total_len, curr_len) || set.empty()) {
            item.start = std::max(earliest, total_len);
            if (curr_width + item.width <= max_width) {
                set.push_back(item);
                placed = true;
            } else {
                // Width-combination search on a copy, then keep the
                // reshaped set only when it beats plain serialization
                // (shrinking a wide repeated call to slip a 1-cycle
                // gate alongside can be a terrible trade).
                std::vector<SetItem> candidate = set;
                SetItem candidate_item = item;
                if (try_refit(candidate, candidate_item)) {
                    candidate.push_back(candidate_item);
                    uint64_t refit_len = 0;
                    for (const auto &entry : candidate) {
                        refit_len = std::max(refit_len,
                                             entry.finish() - total_len);
                    }
                    uint64_t serial_len =
                        satAdd(curr_len, item.length);
                    if (refit_len < serial_len) {
                        set = std::move(candidate);
                        placed = true;
                    }
                }
            }
            if (placed) {
                curr_width = 0;
                curr_len = 0;
                for (const auto &entry : set) {
                    curr_width += entry.width;
                    curr_len = std::max(curr_len,
                                        entry.finish() - total_len);
                    // Reshaping may have changed earlier finishes.
                    finish[entry.opIndex] = entry.finish();
                }
            }
        }
        if (!placed) {
            // Serialize: close the current set and start a new one.
            close_set();
            item.start = std::max(earliest, total_len);
            set.push_back(item);
            curr_width = item.width;
            curr_len = item.finish() - total_len;
        }

        finish[op_index] = set.back().finish();
        // Mark set members whose dependents are now placed as fixed.
        for (auto &entry : set) {
            for (uint32_t s : dag.succs(entry.opIndex)) {
                if (s == op_index)
                    entry.successorScheduled = true;
            }
        }
        for (uint32_t s : dag.succs(op_index)) {
            if (--pending_preds[s] == 0)
                ready.push(s);
        }
    }
    close_set();
    return total_len;
}

ProgramSchedule
CoarseScheduler::schedule(const Program &prog) const
{
    TraceSpan total_span(Telemetry::trace(), "coarse-schedule");
    std::optional<ScopedTimerMs> total_timer;
    if (metrics != nullptr)
        total_timer.emplace(metrics->distribution("sched.total_ms"));
    const uint64_t cache_hits_before = cache ? cache->hits() : 0;
    const uint64_t cache_misses_before = cache ? cache->misses() : 0;

    ProgramSchedule result;
    result.modules.resize(prog.numModules());

    const std::vector<ModuleId> order = prog.bottomUpOrder();
    std::vector<ModuleId> leaves;
    for (ModuleId id : order)
        if (prog.module(id).isLeaf())
            leaves.push_back(id);

    std::unique_ptr<ThreadPool> pool;
    if (numThreads > 1)
        pool = std::make_unique<ThreadPool>(numThreads);
    auto run_tasks = [&](uint64_t count,
                         const std::function<void(uint64_t)> &body) {
        if (pool && count > 1) {
            pool->parallelFor(count, body);
        } else {
            for (uint64_t i = 0; i < count; ++i)
                body(i);
        }
    };

    // Phase 1 — leaves. Every leaf is independent of every other
    // module, and each sweep width is independent too, so fine-grained
    // scheduling fans out across (module x width) tasks. Each task
    // writes only its own slot; which thread computes a slot is
    // irrelevant to the value stored in it. A leaf's width tasks share
    // its width-invariant analysis (LeafShare), hashed for the cache key
    // first, once per leaf.
    //
    // Width collapse: on one core a leaf schedules identically at every
    // width from its saturation width on (LeafScheduler::
    // saturationWidth), so only the widths up to the first sweep width
    // at or past it run as tasks and every wider slot takes that
    // result under its own key. Multi-core rebinds depend on the width's
    // region-to-core split, so there every width is a task.
    const size_t nw = widths.size();
    const bool collapse = !arch.topology.multiCore();
    std::vector<LeafShare> shares(leaves.size());
    run_tasks(leaves.size(), [&](uint64_t m) {
        const Module &mod = prog.module(leaves[m]);
        LeafShare &share = shares[m];
        share.widthTasks = nw;
        if (collapse) {
            const auto saturated =
                std::lower_bound(widths.begin(), widths.end(),
                                 leafScheduler->saturationWidth(mod));
            if (saturated != widths.end())
                share.widthTasks =
                    static_cast<size_t>(saturated - widths.begin()) + 1;
        }
        share.tasksLeft = share.widthTasks;
        if (cache)
            share.keyPrefix = leafScheduleKeyPrefix(mod);
    });
    std::vector<uint64_t> tasks; ///< slot index of each width task
    uint64_t derived_widths = 0;
    for (size_t m = 0; m < leaves.size(); ++m) {
        for (size_t wi = 0; wi < shares[m].widthTasks; ++wi)
            tasks.push_back(m * nw + wi);
        derived_widths += nw - shares[m].widthTasks;
    }
    std::vector<std::shared_ptr<const LeafScheduleResult>> slots(
        leaves.size() * nw);
    run_tasks(tasks.size(), [&](uint64_t t) {
        const uint64_t slot = tasks[t];
        const Module &mod = prog.module(leaves[slot / nw]);
        LeafShare &share = shares[slot / nw];
        slots[slot] = leafWidthResult(mod, widths[slot % nw], share);
        share.finishTask();
    });
    if (derived_widths > 0) {
        run_tasks(leaves.size(), [&](uint64_t m) {
            const LeafShare &share = shares[m];
            const auto &base = slots[m * nw + share.widthTasks - 1];
            for (size_t wi = share.widthTasks; wi < nw; ++wi)
                slots[m * nw + wi] = derivedWidthResult(
                    prog.module(leaves[m]), widths[wi], share, base);
        });
    }

    // Merge in bottom-up (module-id stream) order — single-threaded, so
    // the monotone clamp below sees widths in exactly the sequence the
    // sequential path did and the result is bit-identical to it. All
    // telemetry is recorded here rather than inside the fan-out: the
    // merged slot values are pure functions of the inputs, so the
    // recorded counters are identical for every thread count even when
    // a cache race double-computes a slot.
    uint64_t ready_scanned = 0;
    uint64_t ops_hashed = 0;
    for (size_t m = 0; m < leaves.size(); ++m) {
        const Module &mod = prog.module(leaves[m]);
        if (cache)
            ops_hashed += mod.numOps();
        ModuleScheduleInfo info;
        info.analyzed = true;
        info.leaf = true;
        uint64_t best_so_far = ~uint64_t{0};
        for (size_t wi = 0; wi < nw; ++wi) {
            // Schedulers are heuristic; clamp so the width/length
            // trade-off curve is monotone (a wider machine can always
            // emulate a narrower schedule).
            uint64_t length = std::min(
                slots[m * nw + wi]->summary.serialCycles.clampU64(),
                best_so_far);
            best_so_far = length;
            info.dims.push_back({widths[wi], length});
        }
        info.result = slots[(m + 1) * nw - 1];
        if (metrics != nullptr) {
            // Optimal-tier telemetry, summed across the width sweep.
            // Recorded here in the single-threaded merge from memoized
            // attempt stats, so the counters are invariant to thread
            // count and cache state like everything else in this loop.
            for (size_t wi = 0; wi < nw; ++wi) {
                const ScheduleAttempt &attempt =
                    slots[m * nw + wi]->attempt;
                if (attempt.provenance == ScheduleProvenance::Heuristic &&
                    attempt.nodesExpanded == 0)
                    continue;
                metrics->counter("sched.opt.nodes_expanded")
                    .add(attempt.nodesExpanded);
                metrics->counter("sched.opt.pruned_critical_path")
                    .add(attempt.prunedByCriticalPath);
                metrics->counter("sched.opt.pruned_resource")
                    .add(attempt.prunedByResource);
                metrics->counter("sched.opt.pruned_dominance")
                    .add(attempt.prunedByDominance);
                metrics->counter("sched.opt.candidates_annotated")
                    .add(attempt.candidatesAnnotated);
                if (attempt.provenance == ScheduleProvenance::Optimal)
                    metrics->counter("sched.opt.proofs").add(1);
                else if (attempt.provenance ==
                         ScheduleProvenance::Fallback)
                    metrics->counter("sched.opt.fallbacks").add(1);
            }
            // Work of the width tasks; a derived width schedules
            // nothing.
            for (size_t wi = 0; wi < shares[m].widthTasks; ++wi)
                ready_scanned += slots[m * nw + wi]->attempt.readyScanned;
            metrics->counter("sched.leaf.instances").add(1);
            metrics->distribution("sched.leaf.gates")
                .record(static_cast<double>(mod.numOps()));
            const ResourceSummary &sum = info.result->summary;
            const uint64_t cycles = sum.serialCycles.clampU64();
            metrics->distribution("sched.leaf.cycles")
                .record(static_cast<double>(cycles));
            // Schedule quality vs. the static lower bound at the widest
            // sweep point (>= 1.0 for any correct scheduler output).
            metrics->distribution("sched.leaf.optimality_gap")
                .record(optimalityGap(cycles,
                                      info.result->bounds.composite()));
            const uint64_t teleports = sum.teleportMoves.clampU64();
            metrics->counter("comm.teleport_moves").add(teleports);
            metrics->counter("comm.blocking_teleports")
                .add(sum.blockingTeleports.clampU64());
            // Teleporting one qubit consumes one pre-distributed EPR
            // pair (paper §2.3), so EPR consumption == teleport count.
            metrics->counter("comm.epr_pairs_consumed").add(teleports);
            metrics->counter("comm.local_moves")
                .add(sum.localMoves.clampU64());
            metrics->counter("comm.steps_with_blocking_move")
                .add(sum.stepsWithBlockingMove.clampU64());
            metrics->counter("comm.steps_with_only_local_moves")
                .add(sum.stepsWithOnlyLocalMoves.clampU64());
            // The occupancy profile is movement telemetry: recorded as
            // 0 when no movement is modelled.
            const bool moves = mode != CommMode::None;
            metrics->counter("comm.active_region_steps")
                .add(moves ? sum.activeRegionSteps.clampU64() : 0);
            metrics->counter("comm.operand_slots")
                .add(moves ? sum.operandTouches.clampU64() : 0);
            metrics->gauge("comm.region_occupancy_peak")
                .setMax(moves ? static_cast<int64_t>(
                                    sum.peakRegionOccupancy)
                              : 0);
        }
        result.modules[leaves[m]] = std::move(info);
    }
    slots.clear();

    // Phase 2 — non-leaves, bottom-up so callee dimensions are always
    // available. The width sweep of one module fans out (each width
    // only reads the callees' completed entries in `result`, and the
    // module's DAG and priorities, which are width-invariant because
    // callee best lengths are); the clamp-merge again runs in width
    // order on one thread.
    const uint64_t gate_cost = MultiSimdArch::coarseGateCost(mode);
    const uint64_t call_overhead = MultiSimdArch::callOverhead(mode);
    for (ModuleId id : order) {
        const Module &mod = prog.module(id);
        if (mod.isLeaf())
            continue;
        const bool tracing = Telemetry::trace().enabled();
        std::optional<TraceSpan> sweep_span;
        if (tracing) {
            sweep_span.emplace(Telemetry::trace(), "sweep:" + mod.name());
            sweep_span->arg("module", mod.name()).arg("widths", nw);
            sweep_span->arg("ops", mod.numOps());
        }
        // Priorities: height in the module DAG with hierarchical
        // weights.
        std::vector<uint64_t> weights(mod.numOps(), gate_cost);
        for (uint32_t i : mod.callOps()) {
            const Operation &op = mod.ops()[i];
            uint64_t len = result.forModule(op.callee).bestLength();
            weights[i] = satMul(op.repeat, satAdd(len, call_overhead));
        }
        const DepDag dag = DepDag::build(mod);
        const std::vector<uint64_t> priority = dag.heightToBottom(weights);
        std::vector<uint64_t> lengths(nw);
        run_tasks(nw, [&](uint64_t wi) {
            lengths[wi] =
                scheduleNonLeaf(mod, dag, priority, result, widths[wi]);
        });
        ModuleScheduleInfo info;
        info.analyzed = true;
        info.leaf = false;
        uint64_t best_so_far = ~uint64_t{0};
        for (size_t wi = 0; wi < nw; ++wi) {
            uint64_t length = std::min(lengths[wi], best_so_far);
            best_so_far = length;
            info.dims.push_back({widths[wi], length});
        }
        if (metrics != nullptr) {
            metrics->counter("sched.nonleaf.instances").add(1);
            metrics->distribution("sched.nonleaf.cycles")
                .record(static_cast<double>(info.bestLength()));
        }
        result.modules[id] = std::move(info);
    }

    if (metrics != nullptr) {
        metrics->counter("sched.width_sweep_points").add(nw);
        // (leaf x width) slots the width collapse covered, hit or miss:
        // a pure function of program, arch and sweep (DESIGN.md §10).
        metrics->counter("sched.leaf.derived_widths").add(derived_widths);
        // Ready entries the leaf schedulers examined, cache hits
        // replaying the stored count: a pure function of program, arch
        // and sweep too.
        metrics->counter("sched.leaf.ready_scanned").add(ready_scanned);
        // Ops folded into leaf-cache keys: each leaf's key prefix hashes
        // it once per compile, and nothing with the cache off.
        metrics->counter("sched.leaf.ops_hashed").add(ops_hashed);
        if (cache) {
            metrics->counter("sched.leaf_cache.hits")
                .add(cache->hits() - cache_hits_before);
            metrics->counter("sched.leaf_cache.misses")
                .add(cache->misses() - cache_misses_before);
        }
    }

    result.totalCycles =
        result.forModule(prog.entry()).bestLength();
    return result;
}

} // namespace msq
