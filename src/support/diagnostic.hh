/**
 * @file
 * Structured diagnostics for the static-analysis subsystem.
 *
 * Every check in the IR verifier, the circuit linter, and the schedule
 * validators reports through a DiagnosticEngine instead of panicking on
 * the first violation. A diagnostic carries a stable machine-readable
 * code (printed as e.g. "V003"), a severity, the enclosing module /
 * operation / source line when known, and a human-readable message.
 *
 * The engine runs in one of three failure modes:
 *  - Collect: record everything and keep going (the msq-verify tool and
 *    the collect-all validator paths);
 *  - Panic: throw PanicError on the first error (compatibility mode for
 *    the schedule validators, whose violations are scheduler bugs);
 *  - Fatal: throw FatalError on the first error (compatibility mode for
 *    frontend callers, whose violations are user-input errors).
 */

#ifndef MSQ_SUPPORT_DIAGNOSTIC_HH
#define MSQ_SUPPORT_DIAGNOSTIC_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace msq {

/** Stable identifiers for every diagnostic the toolflow can emit. */
enum class DiagCode : uint16_t {
    // V***: IR verifier (ir well-formedness; errors).
    GateArity,          ///< V001 operand count != gateArity(kind)
    OperandOutOfRange,  ///< V002 qubit operand >= module qubit count
    DuplicateOperand,   ///< V003 one gate touches a qubit twice
    NoEntryModule,      ///< V004 program has no entry module
    BadCallee,          ///< V005 call targets an invalid module id
    CallArity,          ///< V006 call arg count != callee param count
    RecursiveCall,      ///< V007 cycle in the module call graph
    BadRepeat,          ///< V008 repeat count of 0 (or !=1 on a gate)
    UseAfterMeasure,    ///< V009 gate on a measured, un-reprepared qubit
    MalformedOperation, ///< V010 non-call op with a callee attached
    AngleOnNonRotation, ///< V011 non-rotation gate with an angle (warning)
    DuplicateCallArg,   ///< V012 same qubit bound to two callee params

    // L***: circuit linter (suspicious-but-legal circuits; warnings).
    UnusedQubit,            ///< L001 declared qubit never referenced
    DeadGate,               ///< L002 gate after a qubit's last measurement
    UncancelledInverses,    ///< L003 uncancelled inverse pair (possibly
                            ///<      separated by commuting gates)
    RotationBelowPrecision, ///< L004 |angle| below the decomposer floor
    NonCoalescableGate,     ///< L005 gate kind occurs once; never SIMDable
    UnreachableModule,      ///< L006 module unreachable from the entry
    InterprocUnusedQubit,   ///< L007 qubit only passed to calls that
                            ///<      never use it (interproc liveness)
    InterprocUseAfterMeasure, ///< L008 use of a measured qubit across a
                              ///<      call boundary (interproc dominance)

    // S***: leaf-schedule validator (scheduler invariants 1-5; errors).
    SchedKMismatch,          ///< S001 schedule k != architecture k
    SchedOpOutOfRange,       ///< S003 scheduled op index out of range
    SchedOpTwice,            ///< S004 op scheduled in two slots
    SchedMixedKinds,         ///< S005 region mixes gate types in one step
    SchedWidthBudget,        ///< S006 region touches more than d qubits
    SchedQubitConflict,      ///< S007 qubit touched twice in one timestep
    SchedOpMissing,          ///< S008 module op never scheduled
    SchedDependence,         ///< S009 op not strictly after a predecessor

    // C***: coarse-schedule validator (errors).
    CoarseNotAnalyzed,   ///< C001 reachable module never scheduled
    CoarseLeafMismatch,  ///< C002 leaf flag disagrees with the module
    CoarseNoDims,        ///< C003 analyzed module offers no dimensions
    CoarseDimsNotMonotone, ///< C004 width/length curve not monotone
    CoarseWidthExceedsK, ///< C005 blackbox wider than the machine
    CoarseTotalMismatch, ///< C006 totalCycles != entry best length

    // M***: communication-schedule race detector (verify/comm_checker).
    CommMoveDuringGate,     ///< M001 qubit moved away while a gate uses it
    CommConflictingMoves,   ///< M002 two moves of one qubit in one step
    CommRegionOvercap,      ///< M003 region occupancy exceeds d
    CommLocalOvercap,       ///< M004 scratchpad occupancy exceeds capacity
    CommDeadTeleport,       ///< M005 wasted move of a dead qubit (warning)
    CommMoveSourceMismatch, ///< M006 move source != replayed location
    CommOperandNotResident, ///< M007 operand absent from its gate's region
    CommRedundantMove,      ///< M008 move to the current location (warning)
    CommEndpointOutOfRange, ///< M009 move endpoint the machine lacks
    CommLinkOvercap,        ///< M010 masked inter-core teleports on one
                            ///<      link in one step exceed link bandwidth

    // B***: makespan lower-bound checker (verify/bound_checker). A
    // schedule shorter than a sound lower bound is an internal
    // inconsistency: scheduler or cache corruption, never valid output.
    // B001-B003 (per-bound leaf checks) are retired: B004 holds every
    // leaf dimension against the composite of the same bounds.
    BoundDimBelowBound,     ///< B004 blackbox dim below its width's bound
    BoundProgramBelow,      ///< B005 program below the hierarchical bound
    BoundRepeatOverflow,    ///< B006 repeat algebra saturated (warning)
    BoundOptimalGapNotOne,  ///< B007 proven-optimal leaf with gap != 1.0

    // E***: schedule-summary estimate checker (verify/estimate_checker).
    // The composed resource estimate is exact by construction; any
    // divergence from an independently computed ground truth is an
    // internal inconsistency (summary fold, repeat algebra, or
    // scheduler bug), never an approximation error.
    EstimateLeafFoldMismatch, ///< E001 leaf fold != annotator statistics
    EstimateMakespanMismatch, ///< E002 estimate != fresh recomputation
    EstimateGateAlgebra,      ///< E003 composed gates != ResourceEstimator
    EstimateUnrolledMismatch, ///< E004 composed != materialized unrolled walk
    EstimateWeightMismatch,   ///< E005 composed != invocation-weighted sum
    EstimateSaturated,        ///< E006 repeat algebra saturated (warning)

    // P***: persistent leaf-cache deserialization (sched/cache_io).
    // A rejected file or entry is never fatal — the loader skips it and
    // the scheduler recomputes — so every P code is a warning; what is
    // NEVER allowed is silently rebinding a wrong or corrupt schedule.
    CacheFileBadMagic,    ///< P001 file does not start with the magic
    CacheFileBadVersion,  ///< P002 unsupported format version
    CacheFileTruncated,   ///< P003 file ends inside a header or entry
    CacheEntryCorrupt,    ///< P004 checksum/invariant failure in an entry
    CacheEntryKeyMismatch, ///< P005 stored counts/fingerprint disagree
                           ///<      with the entry's own key
    CacheRebindRejected,  ///< P006 cached result refused at rebind time
                          ///<      (module op/qubit counts disagree)
    CacheTopologyMismatch, ///< P007 entry's stored architecture
                           ///<      fingerprint disagrees with its key
                           ///<      (schedule compiled for another machine)

    // A***: architecture/topology construction validation
    // (arch/topology.cc). A rejected topology is user input, not an
    // internal bug: construction-time callers run in Fatal mode, the
    // CLI turns them into exit code 2.
    ArchNoCores,             ///< A001 topology with zero cores
    ArchZeroLinkBandwidth,   ///< A002 inter-core link bandwidth of 0
    ArchDisconnectedTopology, ///< A003 link graph does not reach all cores
    ArchSelfLoopLink,        ///< A004 link from a core to itself
    ArchNoRegionSplit,       ///< A005 multi-core without regionsPerCore

    NumCodes,
};

/** @return the stable printable code, e.g. "V003". */
const char *diagCodeName(DiagCode code);

/** Diagnostic severity levels. */
enum class Severity : uint8_t {
    Note,
    Warning,
    Error,
};

/** @return "note" / "warning" / "error". */
const char *severityName(Severity severity);

/** Default severity of @p code (AngleOnNonRotation and all linter codes
 * are warnings; everything else is an error). */
Severity diagDefaultSeverity(DiagCode code);

/** Sentinel: diagnostic not attached to a specific operation. */
constexpr uint32_t diagNoOp = std::numeric_limits<uint32_t>::max();

/** Optional location context attached to a diagnostic. */
struct DiagContext
{
    std::string module;         ///< enclosing module name ("" = program)
    uint32_t opIndex = diagNoOp; ///< op index within the module
    unsigned line = 0;           ///< 1-based source line (0 = unknown)
};

/** One reported diagnostic. */
struct Diagnostic
{
    DiagCode code = DiagCode::NumCodes;
    Severity severity = Severity::Error;
    DiagContext where;
    std::string message;

    /** Render as "error V003 [module main, op 2, line 7]: ...". */
    std::string format() const;
};

/** Collects diagnostics; optionally unwinds on the first error. */
class DiagnosticEngine
{
  public:
    /** What to do when an Error-severity diagnostic is reported. */
    enum class FailMode : uint8_t {
        Collect, ///< record and continue
        Panic,   ///< throw PanicError immediately (internal invariants)
        Fatal,   ///< throw FatalError immediately (user input)
    };

    explicit DiagnosticEngine(FailMode mode = FailMode::Collect)
        : mode_(mode)
    {}

    /** Report with an explicit severity. */
    void report(Severity severity, DiagCode code, const std::string &msg,
                DiagContext where = {});

    /** Report with the code's default severity. */
    void report(DiagCode code, const std::string &msg,
                DiagContext where = {});

    /** Report an Error-severity diagnostic. */
    void error(DiagCode code, const std::string &msg,
               DiagContext where = {});

    /** Report a Warning-severity diagnostic. */
    void warning(DiagCode code, const std::string &msg,
                 DiagContext where = {});

    const std::vector<Diagnostic> &diagnostics() const { return diags_; }

    size_t numErrors() const { return numErrors_; }
    size_t numWarnings() const { return numWarnings_; }
    bool hasErrors() const { return numErrors_ > 0; }

    /** @return true when a diagnostic with @p code was reported. */
    bool has(DiagCode code) const;

    FailMode mode() const { return mode_; }

    /** Drop all recorded diagnostics and reset the counters. */
    void clear();

    /** One formatted diagnostic per line (trailing newline included). */
    std::string formatAll() const;

  private:
    FailMode mode_;
    std::vector<Diagnostic> diags_;
    size_t numErrors_ = 0;
    size_t numWarnings_ = 0;
};

} // namespace msq

#endif // MSQ_SUPPORT_DIAGNOSTIC_HH
