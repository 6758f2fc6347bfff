#include "sched/core_affinity.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/qubit_mapping.hh"
#include "support/logging.hh"

namespace msq {

namespace {

/** One candidate region assignment: the ops of one original slot whose
 * operands prefer one core. Groups of a slot may be merged back
 * together when a step has more groups than regions. */
struct Group
{
    uint32_t slot;    ///< global index into buf.slots
    unsigned pref;    ///< the member ops' preferred core
    uint64_t weight;  ///< total operand count
    uint32_t parent;  ///< union-find: self when live
};

uint32_t
rootOf(std::vector<Group> &groups, uint32_t g)
{
    while (groups[g].parent != g)
        g = groups[g].parent;
    return g;
}

} // anonymous namespace

LeafSchedule
applyCoreAffinity(LeafSchedule sched, const MultiSimdArch &arch)
{
    if (!arch.topology.multiCore())
        return sched;
    const std::vector<unsigned> home =
        computeQubitMapping(sched.module(), arch.topology);
    return applyCoreAffinity(std::move(sched), arch, home);
}

LeafSchedule
applyCoreAffinity(LeafSchedule sched, const MultiSimdArch &arch,
                  std::span<const unsigned> home)
{
    const Topology &topo = arch.topology;
    if (!topo.multiCore())
        return sched;

    const ScheduleBuffer &buf = sched.buffer();
    if (!buf.moves.empty())
        panic("applyCoreAffinity: schedule already carries movement "
              "annotation");
    if (buf.slots.empty())
        return sched;

    const Module &mod = sched.module();
    if (home.size() != mod.numQubits())
        panic("applyCoreAffinity: qubit mapping does not match module " +
              mod.name());
    const unsigned cores = topo.cores;

    // Regions each core owns, ascending (the clamp in coreOfRegion
    // gives any remainder regions to the last core).
    std::vector<std::vector<unsigned>> core_regions(cores);
    for (unsigned r = 0; r < buf.k; ++r)
        core_regions[arch.coreOfRegion(r)].push_back(r);

    auto out = std::make_shared<ScheduleBuffer>();
    out->k = buf.k;
    out->slots.reserve(buf.slots.size());
    out->slotEnd.reserve(buf.slotEnd.size());
    out->ops.reserve(buf.ops.size());
    out->moveEnd.reserve(buf.moveEnd.size());

    std::vector<Group> groups;
    // Operand homes per (group, core): row g holds group g's votes.
    // Like every scratch vector here it is reused across steps, so a
    // step allocates nothing once the capacities have warmed up.
    std::vector<uint64_t> votes;
    std::vector<uint32_t> op_group;  ///< per op in step: its group
    std::vector<uint64_t> op_votes(cores);
    std::vector<uint32_t> order;     ///< live groups, assignment order
    std::vector<uint8_t> region_taken(buf.k);
    std::vector<uint64_t> free_in(cores);
    struct Placement
    {
        uint32_t group;
        unsigned newRegion;
    };
    std::vector<Placement> placed;

    for (uint64_t step = 0; step < buf.numSteps(); ++step) {
        const uint32_t slot_begin = buf.slotBegin(step);
        const uint32_t slot_end = buf.slotEnd[step];
        if (slot_begin == slot_end) { // empty timestep
            out->slotEnd.push_back(
                static_cast<uint32_t>(out->slots.size()));
            out->moveEnd.push_back(0);
            continue;
        }
        const uint32_t ops_base = buf.opBegin(slot_begin);

        // 1. Partition each slot's ops by their majority home core
        //    (ties take the lowest core). Ops of one (slot, core) pair
        //    form a group — a candidate region of their own, since two
        //    regions may run the same gate kind in one timestep.
        groups.clear();
        votes.clear();
        op_group.assign(buf.slots[slot_end - 1].opEnd - ops_base, 0);
        for (uint32_t s = slot_begin; s < slot_end; ++s) {
            const uint32_t first_group =
                static_cast<uint32_t>(groups.size());
            for (uint32_t i = buf.opBegin(s); i < buf.slots[s].opEnd;
                 ++i) {
                const Operation &op = mod.op(buf.ops[i]);
                std::fill(op_votes.begin(), op_votes.end(), 0);
                unsigned pref = 0;
                for (QubitId q : op.operands)
                    if (++op_votes[home[q]] > op_votes[pref] ||
                        (op_votes[home[q]] == op_votes[pref] &&
                         home[q] < pref))
                        pref = home[q];
                uint32_t g = static_cast<uint32_t>(groups.size());
                for (uint32_t j = first_group; j < groups.size(); ++j)
                    if (groups[j].pref == pref) {
                        g = j;
                        break;
                    }
                if (g == groups.size()) {
                    groups.push_back({s, pref, 0, g});
                    votes.insert(votes.end(), cores, 0);
                }
                groups[g].weight += op.operands.size();
                uint64_t *group_votes = &votes[size_t{g} * cores];
                for (QubitId q : op.operands)
                    ++group_votes[home[q]];
                op_group[i - ops_base] = g;
            }
        }

        // 2. A step may not activate more regions than exist: while the
        //    split overshoots k, merge the lightest group of any
        //    multi-group slot back into that slot's heaviest group.
        //    Terminates because the original step had <= k slots.
        uint32_t live = static_cast<uint32_t>(groups.size());
        while (live > buf.k) {
            uint32_t victim = UINT32_MAX;
            for (uint32_t g = 0; g < groups.size(); ++g) {
                if (groups[g].parent != g)
                    continue;
                bool alone = true;
                for (uint32_t h = 0; h < groups.size(); ++h)
                    if (h != g && groups[h].parent == h &&
                        groups[h].slot == groups[g].slot)
                        alone = false;
                if (alone)
                    continue;
                if (victim == UINT32_MAX ||
                    groups[g].weight < groups[victim].weight)
                    victim = g;
            }
            uint32_t target = UINT32_MAX;
            for (uint32_t h = 0; h < groups.size(); ++h)
                if (h != victim && groups[h].parent == h &&
                    groups[h].slot == groups[victim].slot &&
                    (target == UINT32_MAX ||
                     groups[h].weight > groups[target].weight))
                    target = h;
            groups[victim].parent = target;
            groups[target].weight += groups[victim].weight;
            for (unsigned c = 0; c < cores; ++c)
                votes[size_t{target} * cores + c] +=
                    votes[size_t{victim} * cores + c];
            --live;
        }

        // 3. Heaviest groups claim their cores first; each takes its
        //    highest-vote core with a free region (ties prefer the
        //    original slot's core, then the lowest core index), keeping
        //    the original region within that core when free (preserves
        //    LPFS path pinning). Equal weights keep group order: a stable
        //    insertion sort over the at most k live groups.
        order.clear();
        for (uint32_t g = 0; g < groups.size(); ++g) {
            if (groups[g].parent != g)
                continue;
            size_t i = order.size();
            order.push_back(g);
            for (; i > 0 && groups[order[i - 1]].weight < groups[g].weight;
                 --i)
                order[i] = order[i - 1];
            order[i] = g;
        }
        free_in.assign(cores, 0);
        for (unsigned c = 0; c < cores; ++c)
            free_in[c] = core_regions[c].size();
        std::fill(region_taken.begin(), region_taken.end(), 0);

        placed.clear();
        for (uint32_t g : order) {
            const Group &group = groups[g];
            const uint64_t *group_votes = &votes[size_t{g} * cores];
            const unsigned orig = buf.slots[group.slot].region;
            const unsigned orig_core = arch.coreOfRegion(orig);
            unsigned best = cores;
            for (unsigned c = 0; c < cores; ++c) {
                if (free_in[c] == 0)
                    continue;
                if (best == cores || group_votes[c] > group_votes[best] ||
                    (group_votes[c] == group_votes[best] &&
                     c == orig_core))
                    best = c;
            }
            if (best == cores)
                panic("applyCoreAffinity: more groups than regions in "
                      "one timestep");
            unsigned new_region = buf.k;
            if (best == orig_core && !region_taken[orig]) {
                new_region = orig;
            } else {
                for (unsigned r : core_regions[best]) {
                    if (!region_taken[r]) {
                        new_region = r;
                        break;
                    }
                }
            }
            region_taken[new_region] = 1;
            --free_in[best];
            placed.push_back({g, new_region});
        }

        // 4. Emit the step region-ascending; each group's ops keep the
        //    original slot's op order.
        std::sort(placed.begin(), placed.end(),
                  [](const Placement &a, const Placement &b) {
                      return a.newRegion < b.newRegion;
                  });
        for (const Placement &p : placed) {
            const ScheduleBuffer::Slot &slot = buf.slots[groups[p.group].slot];
            for (uint32_t i = buf.opBegin(groups[p.group].slot);
                 i < slot.opEnd; ++i)
                if (rootOf(groups, op_group[i - ops_base]) == p.group)
                    out->ops.push_back(buf.ops[i]);
            out->slots.push_back({static_cast<uint32_t>(out->ops.size()),
                                  p.newRegion, slot.kind});
        }
        out->slotEnd.push_back(static_cast<uint32_t>(out->slots.size()));
        out->moveEnd.push_back(0);
    }

    return LeafSchedule(mod, std::move(out));
}

} // namespace msq
