/**
 * @file
 * A whole quantum program: a set of named modules plus a designated entry
 * module. The call graph must be acyclic (quantum programs in the Scaffold
 * model have classically-resolvable control flow; recursion is rejected,
 * paper §3.1).
 */

#ifndef MSQ_IR_PROGRAM_HH
#define MSQ_IR_PROGRAM_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/module.hh"

namespace msq {

/** A complete modular quantum program. */
class Program
{
  public:
    Program() = default;

    // Modules hold stable ids; Program is move-only.
    Program(const Program &) = delete;
    Program &operator=(const Program &) = delete;
    Program(Program &&) = default;
    Program &operator=(Program &&) = default;

    /**
     * Create a new empty module. Names must be unique.
     * @return the new module's id.
     */
    ModuleId addModule(const std::string &name);

    /** @return the module with id @p id (panics when out of range). */
    Module &module(ModuleId id);
    const Module &module(ModuleId id) const;

    /** @return the id of the module named @p name, or invalidModule. */
    ModuleId findModule(const std::string &name) const;

    size_t numModules() const { return modules.size(); }

    /** Designate the entry (top-level) module. */
    void setEntry(ModuleId id);
    ModuleId entry() const { return entry_; }

    /**
     * Verify structural well-formedness: entry set, call targets valid,
     * call arity matches callee parameter count, and the call graph is
     * acyclic. Calls fatal() on the first violation.
     */
    void validate() const;

    /**
     * @return module ids in reverse-topological (callees-first) order over
     * the modules reachable from the entry, entry last.
     *
     * Without @p cyclic, a missing entry, an invalid callee or a call
     * cycle is fatal. With it, malformed input the IR verifier reports
     * (V005, V007) is tolerated: invalid callees are skipped, modules on
     * a cycle or calling into one are left out and set *@p cyclic, and
     * a missing entry yields an empty order.
     */
    std::vector<ModuleId> bottomUpOrder(bool *cyclic = nullptr) const;

    /** @return ids of modules reachable from the entry (entry included). */
    std::vector<ModuleId> reachableModules() const;

    /**
     * @return per module id, whether the entry reaches it through calls
     * to valid module ids. Never fatal: a missing entry reaches nothing,
     * and invalid callees and call cycles (V005, V007) are tolerated.
     */
    std::vector<bool> reachableMask() const;

  private:
    std::vector<std::unique_ptr<Module>> modules;
    std::unordered_map<std::string, ModuleId> byName;
    ModuleId entry_ = invalidModule;
};

} // namespace msq

#endif // MSQ_IR_PROGRAM_HH
