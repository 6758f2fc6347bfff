/**
 * @file
 * Generic dataflow framework over the per-module gate DAG.
 *
 * Quantum dataflow domains are sets of qubits (live qubits, possibly
 * measured qubits, untouched parameters, ...), so the framework fixes the
 * lattice to a bitset over a module's qubit table and parameterizes the
 * rest: direction (forward along dependence edges, or backward), meet
 * (union for may-analyses, intersection for must-analyses), boundary
 * state, and the per-operation transfer function.
 *
 * Because the dependence DAG is acyclic (no-cloning forbids fan-out and
 * Scaffold control flow is classically resolved, paper §3.1), a single
 * topological sweep reaches the fixpoint — there is no iteration. Any
 * two operations touching the same qubit are chained in the DAG, so a
 * qubit's state always flows through a direct edge; the meet only
 * reconciles states of *different* qubits arriving from parallel
 * branches.
 *
 * Interprocedural analyses (analysis/qubit_analyses.hh) run module-local
 * problems bottom-up over the call graph, summarizing each callee's
 * effect on its parameters. Program::bottomUpOrder(&cyclic) provides the
 * callees-first order and detects recursion without panicking — the same
 * acyclicity property the IR verifier checks as V007 — so analysis code
 * can degrade gracefully on malformed input the verifier already
 * reported.
 */

#ifndef MSQ_ANALYSIS_DATAFLOW_HH
#define MSQ_ANALYSIS_DATAFLOW_HH

#include <cstdint>
#include <vector>

#include "ir/dag.hh"
#include "ir/program.hh"

namespace msq {

/** A set of qubits of one module, as a dense bitset. */
class QubitSet
{
  public:
    QubitSet() = default;

    /** The empty set over a universe of @p num_qubits qubits. */
    explicit QubitSet(size_t num_qubits)
        : size_(num_qubits), words((num_qubits + 63) / 64, 0)
    {}

    /** Universe size (number of qubits, set or not). */
    size_t size() const { return size_; }

    void
    set(QubitId q)
    {
        if (q < size_)
            words[q >> 6] |= uint64_t{1} << (q & 63);
    }

    void
    reset(QubitId q)
    {
        if (q < size_)
            words[q >> 6] &= ~(uint64_t{1} << (q & 63));
    }

    bool
    test(QubitId q) const
    {
        if (q >= size_)
            return false;
        return (words[q >> 6] >> (q & 63)) & 1;
    }

    /** Number of qubits in the set. */
    size_t count() const;

    bool
    empty() const
    {
        for (uint64_t w : words)
            if (w != 0)
                return false;
        return true;
    }

    /** this |= other. @return true when this changed. */
    bool uniteWith(const QubitSet &other);

    /** this &= other. @return true when this changed. */
    bool intersectWith(const QubitSet &other);

    bool
    operator==(const QubitSet &other) const
    {
        return size_ == other.size_ && words == other.words;
    }

    bool operator!=(const QubitSet &other) const { return !(*this == other); }

  private:
    size_t size_ = 0;
    std::vector<uint64_t> words;
};

/** Which way state propagates along dependence edges. */
enum class DataflowDirection : uint8_t {
    Forward,  ///< roots to sinks (program order)
    Backward, ///< sinks to roots (reverse program order)
};

/** How states merging at a node are combined. */
enum class DataflowMeet : uint8_t {
    Union,        ///< may-analysis: a qubit is in the set on *some* path
    Intersection, ///< must-analysis: in the set on *every* path
};

/**
 * One dataflow problem: direction, meet, boundary and transfer.
 * Implementations must keep the state's universe size equal to the
 * module's qubit count and must tolerate malformed operations
 * (out-of-range operands) — the verifier owns reporting those.
 */
class DataflowProblem
{
  public:
    virtual ~DataflowProblem() = default;

    virtual DataflowDirection direction() const = 0;

    virtual DataflowMeet meet() const { return DataflowMeet::Union; }

    /** State at boundary nodes (roots when forward, sinks backward). */
    virtual QubitSet
    boundary(const Module &mod) const
    {
        return QubitSet(mod.numQubits());
    }

    /** Apply operation @p op_index's effect to @p state in place. */
    virtual void transfer(const Module &mod, uint32_t op_index,
                          QubitSet &state) const = 0;
};

/**
 * Per-node solution. "before"/"after" are relative to the transfer
 * function: for a forward problem, before[n] is the state on entry to
 * node n (in program order); for a backward problem, before[n] is the
 * state *after* n in program order (the meet over its successors) and
 * after[n] the state before it — e.g. liveness reads live-in from
 * after[n] and live-out from before[n].
 */
struct DataflowResult
{
    std::vector<QubitSet> before;
    std::vector<QubitSet> after;
};

/**
 * Solve @p problem over @p mod's dependence DAG @p dag (which must have
 * been built from @p mod). One topological sweep; exact on DAGs.
 */
DataflowResult solveDataflow(const Module &mod, const DepDag &dag,
                             const DataflowProblem &problem);

} // namespace msq

#endif // MSQ_ANALYSIS_DATAFLOW_HH
