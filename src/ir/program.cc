#include "ir/program.hh"

#include "support/logging.hh"
#include "support/strings.hh"

namespace msq {

ModuleId
Program::addModule(const std::string &name)
{
    if (byName.count(name))
        fatal("duplicate module name: " + name);
    auto id = static_cast<ModuleId>(modules.size());
    modules.push_back(std::make_unique<Module>(name));
    byName.emplace(name, id);
    return id;
}

Module &
Program::module(ModuleId id)
{
    if (id >= modules.size())
        panic(csprintf("module id %u out of range (%zu modules)", id,
                       modules.size()));
    return *modules[id];
}

const Module &
Program::module(ModuleId id) const
{
    if (id >= modules.size())
        panic(csprintf("module id %u out of range (%zu modules)", id,
                       modules.size()));
    return *modules[id];
}

ModuleId
Program::findModule(const std::string &name) const
{
    auto it = byName.find(name);
    return it == byName.end() ? invalidModule : it->second;
}

void
Program::setEntry(ModuleId id)
{
    if (id >= modules.size())
        panic("setEntry: module id out of range");
    entry_ = id;
}

void
Program::validate() const
{
    if (entry_ == invalidModule)
        fatal("program has no entry module");
    for (const auto &mod : modules) {
        for (uint32_t index : mod->callOps()) {
            const Operation &op = mod->ops()[index];
            if (op.callee >= modules.size()) {
                fatal(csprintf("module %s calls invalid module id %u",
                               mod->name().c_str(), op.callee));
            }
            const Module &callee = *modules[op.callee];
            if (op.operands.size() != callee.numParams()) {
                fatal(csprintf(
                    "module %s calls %s with %zu args, expected %zu",
                    mod->name().c_str(), callee.name().c_str(),
                    op.operands.size(), callee.numParams()));
            }
        }
    }
    // Acyclicity is established as a side effect of ordering.
    bottomUpOrder();
}

std::vector<ModuleId>
Program::bottomUpOrder(bool *cyclic) const
{
    const bool tolerant = cyclic != nullptr;
    if (tolerant)
        *cyclic = false;
    std::vector<ModuleId> order;
    if (entry_ == invalidModule || entry_ >= modules.size()) {
        if (tolerant)
            return order;
        fatal("bottomUpOrder: program has no entry module");
    }

    // Iterative depth-first post-order over the call ops: each frame is
    // a module and the position of its next call to follow. A Grey
    // module is on the stack, so reaching it again closes a cycle. In
    // tolerant mode a cycle poisons the frame that closes it, poison
    // flows to every caller as frames finish, and poisoned modules are
    // left out: what remains is exactly the modules that drain under
    // Kahn's algorithm.
    enum class Mark : uint8_t { White, Grey, Black };
    std::vector<Mark> marks(modules.size(), Mark::White);
    std::vector<bool> poisoned(tolerant ? modules.size() : 0, false);
    order.reserve(modules.size());
    std::vector<std::pair<ModuleId, size_t>> stack;

    auto enter = [&](ModuleId caller, ModuleId id) {
        if (id >= modules.size()) {
            if (tolerant)
                return;
            fatal(csprintf("bottomUpOrder: call to invalid module id %u",
                           id));
        }
        if (marks[id] == Mark::Grey) {
            if (!tolerant)
                fatal("recursive call cycle through module " +
                      modules[id]->name());
            *cyclic = true;
            poisoned[caller] = true;
        } else if (marks[id] == Mark::White) {
            marks[id] = Mark::Grey;
            stack.emplace_back(id, 0);
        } else if (tolerant && poisoned[id]) {
            poisoned[caller] = true;
        }
    };

    marks[entry_] = Mark::Grey;
    stack.emplace_back(entry_, 0);
    while (!stack.empty()) {
        auto &[id, next] = stack.back();
        const ModuleId current = id;
        const Module &mod = *modules[current];
        if (next < mod.callOps().size()) {
            // enter() may grow the stack, so advance the frame first.
            enter(current, mod.ops()[mod.callOps()[next++]].callee);
            continue;
        }
        marks[current] = Mark::Black;
        stack.pop_back();
        if (!tolerant || !poisoned[current])
            order.push_back(current);
        else if (!stack.empty())
            poisoned[stack.back().first] = true;
    }
    return order;
}

std::vector<ModuleId>
Program::reachableModules() const
{
    return bottomUpOrder();
}

std::vector<bool>
Program::reachableMask() const
{
    std::vector<bool> reachable(modules.size(), false);
    if (entry_ >= modules.size())
        return reachable;
    std::vector<ModuleId> work{entry_};
    reachable[entry_] = true;
    while (!work.empty()) {
        const Module &mod = *modules[work.back()];
        work.pop_back();
        for (uint32_t index : mod.callOps()) {
            const ModuleId callee = mod.ops()[index].callee;
            if (callee < modules.size() && !reachable[callee]) {
                reachable[callee] = true;
                work.push_back(callee);
            }
        }
    }
    return reachable;
}

} // namespace msq
