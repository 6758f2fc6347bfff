#include "support/diagnostic.hh"

#include "support/logging.hh"
#include "support/strings.hh"

namespace msq {

namespace {

struct CodeInfo
{
    const char *name;
    Severity severity;
};

constexpr CodeInfo codeTable[] = {
    // Verifier.
    {"V001", Severity::Error},   // GateArity
    {"V002", Severity::Error},   // OperandOutOfRange
    {"V003", Severity::Error},   // DuplicateOperand
    {"V004", Severity::Error},   // NoEntryModule
    {"V005", Severity::Error},   // BadCallee
    {"V006", Severity::Error},   // CallArity
    {"V007", Severity::Error},   // RecursiveCall
    {"V008", Severity::Error},   // BadRepeat
    {"V009", Severity::Error},   // UseAfterMeasure
    {"V010", Severity::Error},   // MalformedOperation
    {"V011", Severity::Warning}, // AngleOnNonRotation
    {"V012", Severity::Error},   // DuplicateCallArg
    // Linter.
    {"L001", Severity::Warning}, // UnusedQubit
    {"L002", Severity::Warning}, // DeadGate
    {"L003", Severity::Warning}, // UncancelledInverses
    {"L004", Severity::Warning}, // RotationBelowPrecision
    {"L005", Severity::Warning}, // NonCoalescableGate
    {"L006", Severity::Warning}, // UnreachableModule
    {"L007", Severity::Warning}, // InterprocUnusedQubit
    {"L008", Severity::Warning}, // InterprocUseAfterMeasure
    // Leaf-schedule validator.
    {"S001", Severity::Error},   // SchedKMismatch
    {"S003", Severity::Error},   // SchedOpOutOfRange
    {"S004", Severity::Error},   // SchedOpTwice
    {"S005", Severity::Error},   // SchedMixedKinds
    {"S006", Severity::Error},   // SchedWidthBudget
    {"S007", Severity::Error},   // SchedQubitConflict
    {"S008", Severity::Error},   // SchedOpMissing
    {"S009", Severity::Error},   // SchedDependence
    // Coarse-schedule validator.
    {"C001", Severity::Error},   // CoarseNotAnalyzed
    {"C002", Severity::Error},   // CoarseLeafMismatch
    {"C003", Severity::Error},   // CoarseNoDims
    {"C004", Severity::Error},   // CoarseDimsNotMonotone
    {"C005", Severity::Error},   // CoarseWidthExceedsK
    {"C006", Severity::Error},   // CoarseTotalMismatch
    // Communication-schedule race detector.
    {"M001", Severity::Error},   // CommMoveDuringGate
    {"M002", Severity::Error},   // CommConflictingMoves
    {"M003", Severity::Error},   // CommRegionOvercap
    {"M004", Severity::Error},   // CommLocalOvercap
    {"M005", Severity::Warning}, // CommDeadTeleport
    {"M006", Severity::Error},   // CommMoveSourceMismatch
    {"M007", Severity::Error},   // CommOperandNotResident
    {"M008", Severity::Warning}, // CommRedundantMove
    {"M009", Severity::Error},   // CommEndpointOutOfRange
    {"M010", Severity::Error},   // CommLinkOvercap
    // Makespan lower-bound checker.
    {"B004", Severity::Error},   // BoundDimBelowBound
    {"B005", Severity::Error},   // BoundProgramBelow
    {"B006", Severity::Warning}, // BoundRepeatOverflow
    {"B007", Severity::Error},   // BoundOptimalGapNotOne
    // Schedule-summary estimate checker.
    {"E001", Severity::Error},   // EstimateLeafFoldMismatch
    {"E002", Severity::Error},   // EstimateMakespanMismatch
    {"E003", Severity::Error},   // EstimateGateAlgebra
    {"E004", Severity::Error},   // EstimateUnrolledMismatch
    {"E005", Severity::Error},   // EstimateWeightMismatch
    {"E006", Severity::Warning}, // EstimateSaturated
    // Persistent leaf-cache loader.
    {"P001", Severity::Warning}, // CacheFileBadMagic
    {"P002", Severity::Warning}, // CacheFileBadVersion
    {"P003", Severity::Warning}, // CacheFileTruncated
    {"P004", Severity::Warning}, // CacheEntryCorrupt
    {"P005", Severity::Warning}, // CacheEntryKeyMismatch
    {"P006", Severity::Warning}, // CacheRebindRejected
    {"P007", Severity::Warning}, // CacheTopologyMismatch
    // Architecture/topology construction validation.
    {"A001", Severity::Error},   // ArchNoCores
    {"A002", Severity::Error},   // ArchZeroLinkBandwidth
    {"A003", Severity::Error},   // ArchDisconnectedTopology
    {"A004", Severity::Error},   // ArchSelfLoopLink
    {"A005", Severity::Error},   // ArchNoRegionSplit
};

static_assert(sizeof(codeTable) / sizeof(codeTable[0]) ==
                  static_cast<size_t>(DiagCode::NumCodes),
              "codeTable must cover every DiagCode");

const CodeInfo &
info(DiagCode code)
{
    auto index = static_cast<size_t>(code);
    if (index >= static_cast<size_t>(DiagCode::NumCodes))
        panic("diagCodeName: invalid DiagCode");
    return codeTable[index];
}

} // anonymous namespace

const char *
diagCodeName(DiagCode code)
{
    return info(code).name;
}

Severity
diagDefaultSeverity(DiagCode code)
{
    return info(code).severity;
}

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note:
        return "note";
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    return "unknown";
}

std::string
Diagnostic::format() const
{
    std::string loc;
    if (!where.module.empty())
        loc += "module " + where.module;
    if (where.opIndex != diagNoOp) {
        if (!loc.empty())
            loc += ", ";
        loc += csprintf("op %u", where.opIndex);
    }
    if (where.line != 0) {
        if (!loc.empty())
            loc += ", ";
        loc += csprintf("line %u", where.line);
    }
    std::string out = severityName(severity);
    out += " ";
    out += diagCodeName(code);
    if (!loc.empty())
        out += " [" + loc + "]";
    out += ": " + message;
    return out;
}

void
DiagnosticEngine::report(Severity severity, DiagCode code,
                         const std::string &msg, DiagContext where)
{
    Diagnostic diag{code, severity, std::move(where), msg};
    if (severity == Severity::Error)
        ++numErrors_;
    else if (severity == Severity::Warning)
        ++numWarnings_;
    std::string formatted = diag.format();
    diags_.push_back(std::move(diag));
    if (severity == Severity::Error) {
        if (mode_ == FailMode::Panic)
            panic(formatted);
        if (mode_ == FailMode::Fatal)
            fatal(formatted);
    }
}

void
DiagnosticEngine::report(DiagCode code, const std::string &msg,
                         DiagContext where)
{
    report(diagDefaultSeverity(code), code, msg, std::move(where));
}

void
DiagnosticEngine::error(DiagCode code, const std::string &msg,
                        DiagContext where)
{
    report(Severity::Error, code, msg, std::move(where));
}

void
DiagnosticEngine::warning(DiagCode code, const std::string &msg,
                          DiagContext where)
{
    report(Severity::Warning, code, msg, std::move(where));
}

bool
DiagnosticEngine::has(DiagCode code) const
{
    for (const auto &diag : diags_)
        if (diag.code == code)
            return true;
    return false;
}

void
DiagnosticEngine::clear()
{
    diags_.clear();
    numErrors_ = 0;
    numWarnings_ = 0;
}

std::string
DiagnosticEngine::formatAll() const
{
    std::string out;
    for (const auto &diag : diags_)
        out += diag.format() + "\n";
    return out;
}

} // namespace msq
