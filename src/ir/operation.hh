/**
 * @file
 * A single IR operation: a primitive or composite gate applied to qubit
 * operands, or a (possibly repeat-counted) call to another module.
 */

#ifndef MSQ_IR_OPERATION_HH
#define MSQ_IR_OPERATION_HH

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <vector>

#include "ir/gate.hh"
#include "support/logging.hh"

namespace msq {

/** Index of a qubit within its enclosing module's qubit table. */
using QubitId = uint32_t;

/** Index of a module within its enclosing program. */
using ModuleId = uint32_t;

/** Sentinel for "no module". */
constexpr ModuleId invalidModule = std::numeric_limits<ModuleId>::max();

/**
 * The qubit operands of one operation.
 *
 * Up to @ref inlineCapacity qubits -- every gate's operands -- live inside
 * the list itself; only a call with more arguments than the widest gate
 * spills them to one heap block. Building, copying and freeing a gate
 * therefore never touches the allocator.
 *
 * The interface is the part of std::vector that operations use. There is
 * deliberately no conversion to std::vector: it would allocate silently
 * wherever a caller binds one.
 */
class QubitList
{
  public:
    using value_type = QubitId;
    using size_type = size_t;
    using iterator = QubitId *;
    using const_iterator = const QubitId *;

    static constexpr size_t inlineCapacity = maxGateArity;

    QubitList() = default;
    QubitList(std::initializer_list<QubitId> qubits)
    {
        assign(qubits.begin(), qubits.size());
    }
    QubitList(const std::vector<QubitId> &qubits)
    {
        assign(qubits.data(), qubits.size());
    }
    QubitList(const QubitList &other)
    {
        if (other.onHeap())
            assign(other.storage_.heap, other.size_);
        else
            copyInline(other);
    }
    QubitList(QubitList &&other) noexcept { take(other); }

    ~QubitList()
    {
        if (onHeap())
            delete[] storage_.heap;
    }

    QubitList &
    operator=(const QubitList &other)
    {
        if (this == &other)
            return *this;
        if (other.onHeap() || onHeap())
            assign(other.data(), other.size_);
        else
            copyInline(other);
        return *this;
    }

    QubitList &
    operator=(QubitList &&other) noexcept
    {
        if (this != &other) {
            if (onHeap())
                delete[] storage_.heap;
            take(other);
        }
        return *this;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** @return true when the qubits live in a heap block, not inline. */
    bool onHeap() const { return capacity_ > inlineCapacity; }

    QubitId *data() { return onHeap() ? storage_.heap : storage_.qubits; }
    const QubitId *
    data() const
    {
        return onHeap() ? storage_.heap : storage_.qubits;
    }

    iterator begin() { return data(); }
    iterator end() { return data() + size_; }
    const_iterator begin() const { return data(); }
    const_iterator end() const { return data() + size_; }

    QubitId &operator[](size_t i) { return data()[i]; }
    QubitId operator[](size_t i) const { return data()[i]; }
    QubitId &front() { return data()[0]; }
    QubitId front() const { return data()[0]; }
    QubitId &back() { return data()[size_ - 1]; }
    QubitId back() const { return data()[size_ - 1]; }

    void
    push_back(QubitId q)
    {
        if (size_ == capacity_)
            grow(2 * static_cast<size_t>(capacity_));
        data()[size_++] = q;
    }

    friend bool
    operator==(const QubitList &a, const QubitList &b)
    {
        return std::ranges::equal(a, b);
    }

    friend bool
    operator==(const QubitList &a, const std::vector<QubitId> &b)
    {
        return std::ranges::equal(a, b);
    }

  private:
    /** Replace the contents with @p n qubits copied from @p src. */
    void
    assign(const QubitId *src, size_t n)
    {
        size_ = 0; // nothing to keep if the block must grow
        if (n > capacity_)
            grow(n);
        std::copy_n(src, n, data());
        size_ = static_cast<uint32_t>(n);
    }

    /** Copy inline @p other whole, without a length-dependent copy;
     * this list must own no heap block. */
    void
    copyInline(const QubitList &other)
    {
        size_ = other.size_;
        storage_ = other.storage_;
    }

    /** Move the qubits to a new heap block of @p capacity. */
    void
    grow(size_t capacity)
    {
        if (capacity > std::numeric_limits<uint32_t>::max())
            panic("QubitList: more than 2^32 - 1 qubits");
        auto *block = new QubitId[capacity];
        std::copy_n(data(), size_, block);
        if (onHeap())
            delete[] storage_.heap;
        storage_.heap = block;
        capacity_ = static_cast<uint32_t>(capacity);
    }

    /** Take @p other's contents, leaving it empty; this list must own
     * no heap block. */
    void
    take(QubitList &other) noexcept
    {
        size_ = other.size_;
        capacity_ = other.capacity_;
        storage_ = other.storage_; // the inline qubits or the block
        other.size_ = 0;
        other.capacity_ = inlineCapacity;
    }

    /** The inline qubits, or the heap block once capacity_ exceeds
     * them. Trivially copyable, so a move copies it without a branch. */
    union Storage
    {
        QubitId qubits[inlineCapacity];
        QubitId *heap;
    };

    uint32_t size_ = 0;
    uint32_t capacity_ = inlineCapacity; ///< > inlineCapacity iff on heap
    Storage storage_ = {};
};

/**
 * One IR operation.
 *
 * For gate kinds other than Call, @ref operands holds gateArity(kind)
 * qubits, @ref angle is meaningful only for rotation gates, and @ref callee
 * / @ref repeat are unused. For Call, @ref operands holds the actual
 * arguments bound to the callee's parameters (in parameter order), and
 * @ref repeat is the classically known trip count of the enclosing loop
 * (1 when not in a loop): the call executes repeat times back-to-back.
 * Repeat counts let the toolflow represent the paper's 10^7-10^12-gate
 * benchmarks without unrolling (paper §3.1).
 */
struct Operation
{
    GateKind kind = GateKind::X;
    QubitList operands;
    double angle = 0.0;
    ModuleId callee = invalidModule;
    uint64_t repeat = 1;

    /**
     * 1-based source line this operation came from; 0 when unknown
     * (operations built programmatically or synthesized by passes).
     * Carried into diagnostics; excluded from operator== so rewritten
     * operations still compare equal to hand-built expectations.
     */
    unsigned line = 0;

    Operation() = default;

    /** Construct a plain gate. */
    Operation(GateKind kind, QubitList operands, double angle = 0.0)
        : kind(kind), operands(std::move(operands)), angle(angle)
    {}

    /** Construct a call. */
    static Operation
    makeCall(ModuleId callee, QubitList args, uint64_t repeat = 1)
    {
        Operation op;
        op.kind = GateKind::Call;
        op.operands = std::move(args);
        op.callee = callee;
        op.repeat = repeat;
        return op;
    }

    bool isCall() const { return kind == GateKind::Call; }

    bool
    operator==(const Operation &other) const
    {
        return kind == other.kind && operands == other.operands &&
               angle == other.angle && callee == other.callee &&
               repeat == other.repeat;
    }
};

static_assert(sizeof(Operation) <= 64,
              "an Operation stays 64 bytes with its operands inline");

} // namespace msq

#endif // MSQ_IR_OPERATION_HH
