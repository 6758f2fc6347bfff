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
Program::bottomUpOrder() const
{
    if (entry_ == invalidModule)
        fatal("bottomUpOrder: program has no entry module");

    // Iterative depth-first post-order over the call ops: each frame is
    // a module and the position of its next call to follow. A Grey
    // module is on the stack, so reaching it again closes a cycle.
    enum class Mark : uint8_t { White, Grey, Black };
    std::vector<Mark> marks(modules.size(), Mark::White);
    std::vector<ModuleId> order;
    order.reserve(modules.size());
    std::vector<std::pair<ModuleId, size_t>> stack;

    auto enter = [&](ModuleId id) {
        if (id >= modules.size())
            fatal(csprintf("bottomUpOrder: call to invalid module id %u",
                           id));
        if (marks[id] == Mark::Grey)
            fatal("recursive call cycle through module " +
                  modules[id]->name());
        if (marks[id] == Mark::White) {
            marks[id] = Mark::Grey;
            stack.emplace_back(id, 0);
        }
    };

    enter(entry_);
    while (!stack.empty()) {
        auto &[id, next] = stack.back();
        const Module &mod = *modules[id];
        if (next < mod.callOps().size()) {
            // enter() may grow the stack, so advance the frame first.
            enter(mod.ops()[mod.callOps()[next++]].callee);
            continue;
        }
        marks[id] = Mark::Black;
        order.push_back(id);
        stack.pop_back();
    }
    return order;
}

std::vector<ModuleId>
Program::reachableModules() const
{
    return bottomUpOrder();
}

} // namespace msq
