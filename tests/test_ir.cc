/**
 * @file
 * Unit tests for the IR: gate metadata, modules, programs, dependence DAGs
 * and the textual printer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ir/dag.hh"
#include "ir/program.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strings.hh"

namespace {

using namespace msq;

TEST(Gate, NamesRoundTrip)
{
    for (size_t i = 0; i < numGateKinds; ++i) {
        auto kind = static_cast<GateKind>(i);
        GateKind parsed;
        ASSERT_TRUE(parseGateName(gateName(kind), parsed)) << gateName(kind);
        EXPECT_EQ(parsed, kind);
    }
}

TEST(Gate, UnknownNameRejected)
{
    GateKind kind;
    EXPECT_FALSE(parseGateName("NOPE", kind));
}

TEST(Gate, Arity)
{
    EXPECT_EQ(gateArity(GateKind::H), 1);
    EXPECT_EQ(gateArity(GateKind::CNOT), 2);
    EXPECT_EQ(gateArity(GateKind::Toffoli), 3);
    EXPECT_EQ(gateArity(GateKind::Call), -1);
}

TEST(Gate, Classification)
{
    EXPECT_TRUE(isRotationGate(GateKind::Rz));
    EXPECT_FALSE(isRotationGate(GateKind::T));
    EXPECT_TRUE(isPrimitiveGate(GateKind::CNOT));
    EXPECT_FALSE(isPrimitiveGate(GateKind::Toffoli));
    EXPECT_TRUE(isMeasureGate(GateKind::MeasZ));
    EXPECT_FALSE(isMeasureGate(GateKind::PrepZ));
}

TEST(Gate, Dagger)
{
    EXPECT_EQ(daggerOf(GateKind::T), GateKind::Tdag);
    EXPECT_EQ(daggerOf(GateKind::Sdag), GateKind::S);
    EXPECT_EQ(daggerOf(GateKind::H), GateKind::H);
    EXPECT_EQ(daggerOf(GateKind::CNOT), GateKind::CNOT);
    EXPECT_THROW(daggerOf(GateKind::MeasZ), PanicError);
}

TEST(Gate, WidestGateFitsInline)
{
    int widest = 0;
    for (size_t i = 0; i < numGateKinds; ++i)
        widest = std::max(widest, gateArity(static_cast<GateKind>(i)));
    EXPECT_EQ(maxGateArity, static_cast<size_t>(widest));
    EXPECT_EQ(QubitList::inlineCapacity, maxGateArity);
}

/** @p n distinct qubits first, first + 1, ... */
std::vector<QubitId>
qubitRange(size_t n, QubitId first = 100)
{
    std::vector<QubitId> out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<QubitId>(first + i);
    return out;
}

TEST(QubitList, InlineUpToWidestGateThenHeap)
{
    for (size_t n : {0u, 3u, 4u, 64u}) {
        const std::vector<QubitId> expect = qubitRange(n);
        QubitList pushed;
        for (QubitId q : expect)
            pushed.push_back(q);
        const QubitList converted(expect);
        for (const QubitList *list :
             std::initializer_list<const QubitList *>{&pushed, &converted}) {
            EXPECT_EQ(*list, expect) << n;
            EXPECT_EQ(list->size(), n);
            EXPECT_EQ(list->empty(), n == 0);
            EXPECT_EQ(list->onHeap(), n > QubitList::inlineCapacity) << n;
            if (n > 0) {
                EXPECT_EQ(list->front(), expect.front());
                EXPECT_EQ((*list)[n - 1], expect.back());
                EXPECT_EQ(list->back(), expect.back());
            }
        }
        EXPECT_EQ(pushed, converted);
    }
    EXPECT_EQ(QubitList({7, 8, 9}), (std::vector<QubitId>{7, 8, 9}));
    EXPECT_NE(QubitList({7, 8, 9}), (std::vector<QubitId>{7, 8}));
    EXPECT_NE(QubitList({7, 8, 9}), QubitList({7, 9, 8}));
    EXPECT_NE((std::vector<QubitId>{7, 8, 9, 10}), QubitList({7, 8, 9}));
}

TEST(QubitList, CopyMoveAndSelfAssignment)
{
    for (size_t n : {0u, 3u, 4u, 64u}) {
        const std::vector<QubitId> expect = qubitRange(n);
        QubitList original(expect);

        QubitList copy(original);
        EXPECT_EQ(copy, expect) << n;
        EXPECT_EQ(original, expect) << n;
        if (n > 0) {
            copy[0] = 1; // a deep copy: the original is unchanged
            EXPECT_EQ(original[0], expect[0]) << n;
        }

        QubitList moved(std::move(copy));
        EXPECT_EQ(moved.size(), n);
        EXPECT_TRUE(copy.empty()); // NOLINT(bugprone-use-after-move)
        EXPECT_FALSE(copy.onHeap());

        QubitList assigned{1, 2};
        assigned = original;
        EXPECT_EQ(assigned, expect) << n;
        QubitList move_assigned{1, 2, 3};
        move_assigned = std::move(assigned);
        EXPECT_EQ(move_assigned, expect) << n;
        EXPECT_TRUE(assigned.empty()); // NOLINT(bugprone-use-after-move)

        // Self-assignment keeps the contents.
        QubitList &alias = original;
        original = alias;
        EXPECT_EQ(original, expect) << n;
        original = std::move(alias);
        EXPECT_EQ(original, expect) << n;

        // A moved-from list is reusable, and a heap list shrinks back
        // into any existing block on assignment.
        copy.push_back(5);
        EXPECT_EQ(copy, (std::vector<QubitId>{5}));
        move_assigned = QubitList{4, 5};
        EXPECT_EQ(move_assigned, (std::vector<QubitId>{4, 5}));
    }
}

/** @p expect with @p q appended. */
std::vector<QubitId>
appended(std::vector<QubitId> expect, QubitId q)
{
    expect.push_back(q);
    return expect;
}

/**
 * Copy, move and assignment between every pair of inline (0-3 qubits)
 * and heap (4, 64) lists: the result holds the source's qubits, owns
 * them (a write does not reach the source), and still grows correctly,
 * whichever storage each side used before.
 */
TEST(QubitList, CopyMoveAndAssignBetweenEverySizePair)
{
    const size_t sizes[] = {0, 1, 2, 3, 4, 64};
    for (size_t from : sizes) {
        const std::vector<QubitId> expect = qubitRange(from);
        const QubitList source(expect);

        QubitList copy(source);
        EXPECT_EQ(copy, expect) << from;
        EXPECT_EQ(copy.onHeap(), from > QubitList::inlineCapacity) << from;
        copy.push_back(7);
        EXPECT_EQ(copy, appended(expect, 7)) << from;
        EXPECT_EQ(source, expect) << from;

        QubitList moved(std::move(copy));
        EXPECT_EQ(moved, appended(expect, 7)) << from;
        EXPECT_TRUE(copy.empty()); // NOLINT(bugprone-use-after-move)

        for (size_t to : sizes) {
            QubitList assigned(qubitRange(to, 500));
            assigned = source;
            EXPECT_EQ(assigned, expect) << from << " -> " << to;
            if (from > 0) {
                assigned[0] = 1;
                EXPECT_EQ(source[0], expect[0]) << from << " -> " << to;
                assigned[0] = expect[0];
            }
            assigned.push_back(8);
            EXPECT_EQ(assigned, appended(expect, 8))
                << from << " -> " << to;

            QubitList move_assigned(qubitRange(to, 500));
            QubitList donor(source);
            move_assigned = std::move(donor);
            EXPECT_EQ(move_assigned, expect) << from << " -> " << to;
            EXPECT_TRUE(donor.empty()); // NOLINT(bugprone-use-after-move)
            EXPECT_FALSE(donor.onHeap());
            donor.push_back(9);
            EXPECT_EQ(donor, (std::vector<QubitId>{9}));

            // Self-assignment, copy and move, keeps the contents.
            QubitList &alias = move_assigned;
            move_assigned = alias;
            EXPECT_EQ(move_assigned, expect) << from << " -> " << to;
            move_assigned = std::move(alias);
            EXPECT_EQ(move_assigned, expect) << from << " -> " << to;
            move_assigned.push_back(10);
            EXPECT_EQ(move_assigned, appended(expect, 10))
                << from << " -> " << to;
        }
    }
}

TEST(Module, QubitTables)
{
    Module mod("m");
    QubitId a = mod.addParam("a");
    QubitId b = mod.addParam("b");
    QubitId anc = mod.addLocal("anc");
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(anc, 2u);
    EXPECT_EQ(mod.numParams(), 2u);
    EXPECT_EQ(mod.numQubits(), 3u);
    EXPECT_EQ(mod.qubitName(anc), "anc");
}

TEST(Module, ParamAfterLocalPanics)
{
    Module mod("m");
    mod.addLocal("x");
    EXPECT_THROW(mod.addParam("p"), PanicError);
}

TEST(Module, RegisterNaming)
{
    Module mod("m");
    auto reg = mod.addRegister("r", 3);
    ASSERT_EQ(reg.size(), 3u);
    EXPECT_EQ(mod.qubitName(reg[1]), "r[1]");
}

TEST(Module, GateArityChecked)
{
    Module mod("m");
    auto reg = mod.addRegister("r", 3);
    EXPECT_THROW(mod.addGate(GateKind::CNOT, {reg[0]}), PanicError);
    EXPECT_THROW(mod.addGate(GateKind::H, {reg[0], reg[1]}), PanicError);
}

TEST(Module, DuplicateOperandPanics)
{
    Module mod("m");
    auto reg = mod.addRegister("r", 2);
    EXPECT_THROW(mod.addGate(GateKind::CNOT, {reg[0], reg[0]}), PanicError);
}

TEST(Module, OutOfRangeOperandPanics)
{
    Module mod("m");
    mod.addLocal("x");
    EXPECT_THROW(mod.addGate(GateKind::H, {5}), PanicError);
}

TEST(Module, LeafDetection)
{
    Program prog;
    ModuleId callee_id = prog.addModule("leaf");
    prog.module(callee_id).addParam("q");
    prog.module(callee_id).addGate(GateKind::H, {0});

    ModuleId caller_id = prog.addModule("caller");
    prog.module(caller_id).addLocal("x");
    prog.module(caller_id).addCall(callee_id, {0});

    EXPECT_TRUE(prog.module(callee_id).isLeaf());
    EXPECT_FALSE(prog.module(caller_id).isLeaf());
    EXPECT_EQ(prog.module(caller_id).localGateCount(), 0u);
    EXPECT_EQ(prog.module(callee_id).localGateCount(), 1u);
}

/** Expect @p mod's call index to be exactly its Call ops, by a scan. */
void
expectCallIndexInSync(const Module &mod)
{
    std::vector<uint32_t> calls;
    for (uint32_t i = 0; i < mod.numOps(); ++i)
        if (mod.op(i).isCall())
            calls.push_back(i);
    EXPECT_EQ(mod.callOps(), calls) << mod.name();
    EXPECT_EQ(mod.isLeaf(), calls.empty()) << mod.name();
    EXPECT_EQ(mod.localGateCount(), mod.numOps() - calls.size())
        << mod.name();
}

TEST(Module, CallIndexTracksEveryMutator)
{
    Module mod("m");
    mod.addLocal("a");
    mod.addLocal("b");
    expectCallIndexInSync(mod);
    mod.addGate(GateKind::H, {0});
    mod.addCall(3, {0, 1}, 2);
    expectCallIndexInSync(mod);
    EXPECT_EQ(mod.callOps(), (std::vector<uint32_t>{1}));

    mod.addRawOperation(Operation(GateKind::CNOT, {0, 0}));
    mod.addRawOperation(Operation::makeCall(7, {1}));
    mod.addOperation(Operation(GateKind::T, {1}));
    mod.addOperation(Operation::makeCall(2, {0}, 5));
    expectCallIndexInSync(mod);
    EXPECT_EQ(mod.callOps(), (std::vector<uint32_t>{1, 3, 5}));

    // setOps rebuilds the index from the new list; a copy keeps it.
    std::vector<Operation> ops = mod.ops();
    std::swap(ops[0], ops[1]);
    ops.push_back(Operation::makeCall(4, {}));
    mod.setOps(ops);
    expectCallIndexInSync(mod);
    EXPECT_EQ(mod.callOps(), (std::vector<uint32_t>{0, 3, 5, 6}));
    Module copy = mod;
    expectCallIndexInSync(copy);

    mod.setOps({Operation(GateKind::X, {0})});
    expectCallIndexInSync(mod);
    EXPECT_TRUE(mod.isLeaf());
    mod.setOps({});
    expectCallIndexInSync(mod);
}

TEST(Program, DuplicateModuleNameFatal)
{
    Program prog;
    prog.addModule("m");
    EXPECT_THROW(prog.addModule("m"), FatalError);
}

TEST(Program, FindModule)
{
    Program prog;
    ModuleId id = prog.addModule("m");
    EXPECT_EQ(prog.findModule("m"), id);
    EXPECT_EQ(prog.findModule("nope"), invalidModule);
}

TEST(Program, ValidateRequiresEntry)
{
    Program prog;
    prog.addModule("m");
    EXPECT_THROW(prog.validate(), FatalError);
}

TEST(Program, ValidateChecksCallArity)
{
    Program prog;
    ModuleId leaf = prog.addModule("leaf");
    prog.module(leaf).addParam("a");
    prog.module(leaf).addParam("b");
    ModuleId top = prog.addModule("top");
    prog.module(top).addLocal("x");
    prog.module(top).addCall(leaf, {0}); // wrong arity
    prog.setEntry(top);
    EXPECT_THROW(prog.validate(), FatalError);
}

TEST(Program, RecursionRejected)
{
    Program prog;
    ModuleId a = prog.addModule("a");
    ModuleId b = prog.addModule("b");
    prog.module(a).addLocal("q");
    prog.module(b).addParam("q");
    prog.module(a).addCall(b, {0});
    prog.module(b).addCall(a, {});
    prog.setEntry(a);
    EXPECT_THROW(prog.validate(), FatalError);
}

TEST(Program, BottomUpOrderPutsCalleesFirst)
{
    Program prog;
    ModuleId leaf = prog.addModule("leaf");
    prog.module(leaf).addParam("q");
    prog.module(leaf).addGate(GateKind::T, {0});
    ModuleId mid = prog.addModule("mid");
    prog.module(mid).addParam("q");
    prog.module(mid).addCall(leaf, {0});
    ModuleId top = prog.addModule("top");
    prog.module(top).addLocal("q");
    prog.module(top).addCall(mid, {0});
    prog.setEntry(top);

    auto order = prog.bottomUpOrder();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], leaf);
    EXPECT_EQ(order[1], mid);
    EXPECT_EQ(order[2], top);
}

TEST(Program, UnreachableModulesExcluded)
{
    Program prog;
    ModuleId top = prog.addModule("top");
    prog.module(top).addLocal("q");
    prog.module(top).addGate(GateKind::H, {0});
    prog.addModule("orphan");
    prog.setEntry(top);
    EXPECT_EQ(prog.reachableModules().size(), 1u);
}

/**
 * Test-local bottomUpOrder() reference: a recursive depth-first
 * post-order scanning every op. @return the order, or nullopt after
 * storing in @p cycle_at the module where a call cycle closed.
 */
std::optional<std::vector<ModuleId>>
recursiveBottomUpOrder(const Program &prog, std::string &cycle_at)
{
    std::vector<int> marks(prog.numModules(), 0); // 1 grey, 2 black
    std::vector<ModuleId> order;
    struct Visit
    {
        const Program &prog;
        std::vector<int> &marks;
        std::vector<ModuleId> &order;
        std::string &cycle_at;

        bool
        operator()(ModuleId id)
        {
            if (marks[id] == 2)
                return true;
            if (marks[id] == 1) {
                cycle_at = prog.module(id).name();
                return false;
            }
            marks[id] = 1;
            for (const Operation &op : prog.module(id).ops())
                if (op.isCall() && !(*this)(op.callee))
                    return false;
            marks[id] = 2;
            order.push_back(id);
            return true;
        }
    } visit{prog, marks, order, cycle_at};
    if (!visit(prog.entry()))
        return std::nullopt;
    return order;
}

/**
 * Random call graph over @p n modules: module i may call only modules
 * placed later in a random permutation (so the graph is acyclic), with
 * repeated callees, gates between calls and some modules unreachable.
 */
Program
randomCallGraph(uint64_t seed, unsigned n)
{
    SplitMix64 rng(seed);
    std::vector<ModuleId> rank(n);
    for (unsigned i = 0; i < n; ++i)
        rank[i] = i;
    for (unsigned i = n; i > 1; --i)
        std::swap(rank[i - 1], rank[rng.nextBelow(i)]);

    Program prog;
    for (unsigned i = 0; i < n; ++i) {
        Module &mod = prog.module(prog.addModule(csprintf("m%u", i)));
        mod.addParam("q");
    }
    // Module rank[r] calls only rank[r + 1 ...]; a few ranks call
    // nothing, which strands some modules.
    for (unsigned r = 0; r < n; ++r) {
        Module &mod = prog.module(rank[r]);
        const unsigned later = n - 1 - r;
        const unsigned ops = later == 0 ? 2 : rng.nextBelow(6);
        for (unsigned j = 0; j < ops; ++j) {
            if (later == 0 || rng.nextBelow(3) == 0) {
                mod.addGate(GateKind::H, {0});
                continue;
            }
            // Bias towards the next few ranks so callees repeat.
            const unsigned hop = 1 + rng.nextBelow(std::min(later, 3u));
            mod.addCall(rank[r + hop], {0}, 1 + rng.nextBelow(4));
        }
    }
    prog.setEntry(rank[0]);
    return prog;
}

TEST(Program, BottomUpOrderMatchesRecursiveReference)
{
    size_t unreachable_seen = 0;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        Program prog = randomCallGraph(seed, 2 + seed % 23);
        SCOPED_TRACE(seed);
        std::string cycle_at;
        auto reference = recursiveBottomUpOrder(prog, cycle_at);
        ASSERT_TRUE(reference.has_value());
        EXPECT_EQ(prog.bottomUpOrder(), *reference);
        EXPECT_EQ(prog.reachableModules(), *reference);
        EXPECT_NO_THROW(prog.validate());
        unreachable_seen += prog.numModules() - reference->size();

        // Close a cycle: the last module of the post-order that has a
        // call gets a call back to the entry. Both walks must reject it
        // at the same module.
        for (size_t i = reference->size(); i-- > 0;) {
            Module &mod = prog.module((*reference)[i]);
            if ((*reference)[i] == prog.entry())
                continue;
            mod.addCall(prog.entry(), {0});
            ASSERT_FALSE(recursiveBottomUpOrder(prog, cycle_at));
            try {
                prog.bottomUpOrder();
                ADD_FAILURE() << "cycle not rejected";
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "recursive call cycle through module " +
                              cycle_at),
                          std::string::npos)
                    << e.what();
            }
            EXPECT_THROW(prog.validate(), FatalError);
            break;
        }
    }
    EXPECT_GT(unreachable_seen, 0u);
}

// --- Dependence DAG ---

// Build a small diamond: H(a); H(b); CNOT(a,b); T(b).
Module
diamondModule()
{
    Module mod("diamond");
    mod.addLocal("a");
    mod.addLocal("b");
    mod.addGate(GateKind::H, {0});
    mod.addGate(GateKind::H, {1});
    mod.addGate(GateKind::CNOT, {0, 1});
    mod.addGate(GateKind::T, {1});
    return mod;
}

TEST(DepDag, StructureOfDiamond)
{
    Module mod = diamondModule();
    DepDag dag = DepDag::build(mod);
    ASSERT_EQ(dag.numNodes(), 4u);
    EXPECT_EQ(dag.roots(), (std::vector<uint32_t>{0, 1}));
    auto list = [](std::span<const uint32_t> s) {
        return std::vector<uint32_t>(s.begin(), s.end());
    };
    EXPECT_EQ(list(dag.succs(0)), std::vector<uint32_t>{2});
    EXPECT_EQ(list(dag.succs(1)), std::vector<uint32_t>{2});
    EXPECT_EQ(list(dag.succs(2)), std::vector<uint32_t>{3});
    EXPECT_TRUE(dag.succs(3).empty());
    EXPECT_EQ(list(dag.preds(2)), (std::vector<uint32_t>{0, 1}));
    EXPECT_EQ(list(dag.preds(3)), std::vector<uint32_t>{2});
    EXPECT_TRUE(dag.preds(0).empty());
}

TEST(DepDag, NoDuplicateEdgeForSharedPair)
{
    // Two consecutive CNOTs on the same pair must yield a single edge.
    Module mod("m");
    mod.addLocal("a");
    mod.addLocal("b");
    mod.addGate(GateKind::CNOT, {0, 1});
    mod.addGate(GateKind::CNOT, {0, 1});
    DepDag dag = DepDag::build(mod);
    EXPECT_EQ(dag.succs(0).size(), 1u);
    EXPECT_EQ(dag.preds(1).size(), 1u);
}

TEST(DepDag, CriticalPath)
{
    Module mod = diamondModule();
    DepDag dag = DepDag::build(mod);
    EXPECT_EQ(dag.criticalPathLength(), 3u); // H -> CNOT -> T
}

TEST(DepDag, DepthAndHeight)
{
    Module mod = diamondModule();
    DepDag dag = DepDag::build(mod);
    auto depth = dag.depthFromTop();
    auto height = dag.heightToBottom();
    EXPECT_EQ(depth[0], 1u);
    EXPECT_EQ(depth[2], 2u);
    EXPECT_EQ(depth[3], 3u);
    EXPECT_EQ(height[0], 3u);
    EXPECT_EQ(height[3], 1u);
}

TEST(DepDag, SlackZeroOnCriticalPath)
{
    Module mod = diamondModule();
    DepDag dag = DepDag::build(mod);
    auto slack = dag.slack();
    // All four nodes lie on some longest path in the diamond.
    for (uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(slack[i], 0u) << "node " << i;
}

TEST(DepDag, SlackPositiveOffCriticalPath)
{
    Module mod("m");
    mod.addLocal("a");
    mod.addLocal("b");
    // Chain of 3 on a; single op on b.
    mod.addGate(GateKind::T, {0});
    mod.addGate(GateKind::T, {0});
    mod.addGate(GateKind::T, {0});
    mod.addGate(GateKind::H, {1});
    DepDag dag = DepDag::build(mod);
    auto slack = dag.slack();
    EXPECT_EQ(slack[0], 0u);
    EXPECT_EQ(slack[3], 2u);
}

TEST(DepDag, WeightVectorRespected)
{
    Module mod = diamondModule();
    DepDag dag = DepDag::build(mod);
    const std::vector<uint64_t> weights{1, 5, 2, 3};
    EXPECT_EQ(dag.depthFromTop(weights),
              (std::vector<uint64_t>{1, 5, 7, 10}));
    EXPECT_EQ(dag.heightToBottom(weights),
              (std::vector<uint64_t>{6, 10, 5, 3}));
    EXPECT_EQ(dag.criticalPathLength(weights), 10u); // H(b) -> CNOT -> T
    // The weights are a query argument: the unit-weight answers stand.
    EXPECT_EQ(dag.criticalPathLength(), 3u);
}

TEST(DepDag, MismatchedWeightLengthPanics)
{
    Module mod = diamondModule();
    DepDag dag = DepDag::build(mod);
    const std::vector<uint64_t> short_weights{1, 1, 1};
    EXPECT_THROW(dag.depthFromTop(short_weights), PanicError);
    EXPECT_THROW(dag.heightToBottom(short_weights), PanicError);
    EXPECT_THROW(dag.criticalPathLength(short_weights), PanicError);
}

TEST(DepDag, EmptyModule)
{
    Module mod("empty");
    DepDag dag = DepDag::build(mod);
    EXPECT_EQ(dag.numNodes(), 0u);
    EXPECT_EQ(dag.criticalPathLength(), 0u);
}

} // namespace
