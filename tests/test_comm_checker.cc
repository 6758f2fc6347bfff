/**
 * @file
 * Tests for the communication-schedule race detector (M001-M010): every
 * code is exercised with a hand-seeded broken movement plan, and real
 * CommunicationAnalyzer outputs are confirmed to replay cleanly.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "arch/multi_simd.hh"
#include "sched/comm.hh"
#include "sched/lpfs.hh"
#include "sched/rcp.hh"
#include "support/diagnostic.hh"
#include "verify/comm_checker.hh"

#include "test_schedule_builder.hh"

namespace {

using namespace msq;

using test::TestScheduleBuilder;

bool
hasCode(const DiagnosticEngine &diags, DiagCode code)
{
    for (const Diagnostic &d : diags.diagnostics())
        if (d.code == code)
            return true;
    return false;
}

/** Two-op module: H(q) then T(q), both placed in region 0. */
Module
chainModule()
{
    Module mod("m");
    QubitId q = mod.addLocal("q");
    mod.addGate(GateKind::H, {q});
    mod.addGate(GateKind::T, {q});
    return mod;
}

Move
makeMove(uint32_t q, Location from, Location to, bool blocking = true)
{
    Move m;
    m.qubit = q;
    m.from = from;
    m.to = to;
    m.blocking = blocking;
    return m;
}

TEST(CommChecker, AnalyzerOutputRepaysClean)
{
    Module mod("m");
    QubitId a = mod.addLocal("a");
    QubitId b = mod.addLocal("b");
    mod.addGate(GateKind::H, {a});
    mod.addGate(GateKind::CNOT, {a, b});
    mod.addGate(GateKind::T, {b});
    LeafSchedule sched = TestScheduleBuilder(mod, 2)
                             .step({{0, 0}})
                             .step({{1, 1}})
                             .step({{1, 2}})
                             .take();
    CommunicationAnalyzer comm(MultiSimdArch(2), CommMode::Global);
    comm.annotate(sched);

    DiagnosticEngine diags;
    CommCheckStats stats;
    EXPECT_TRUE(checkCommSchedule(sched, MultiSimdArch(2), diags, &stats));
    EXPECT_EQ(diags.numErrors(), 0u);
    EXPECT_EQ(diags.numWarnings(), 0u);
    EXPECT_EQ(stats.steps, 3u);
    EXPECT_GT(stats.movesChecked, 0u);
    EXPECT_EQ(stats.movesChecked, stats.teleports + stats.localMoves);
}

TEST(CommChecker, NonBlockingDeadEvictionToGlobalIsExempt)
{
    // Parking a dead qubit back in global memory during a masked window
    // is mandatory hygiene, not waste: no M005.
    Module mod = chainModule();
    LeafSchedule sched =
        TestScheduleBuilder(mod, 2).step({{0, 0}}).step({{0, 1}}).take();
    sched.appendMove(
        0, makeMove(0, Location::global(), Location::inRegion(0), false));
    // One extra step after q's last use, evicting it masked.
    sched.appendEmptyStep();
    sched.appendMove(
        2, makeMove(0, Location::inRegion(0), Location::global(), false));

    DiagnosticEngine diags;
    CommCheckStats stats;
    EXPECT_TRUE(checkCommSchedule(sched, MultiSimdArch(2), diags, &stats));
    EXPECT_EQ(diags.numWarnings(), 0u);
    EXPECT_EQ(stats.deadMoves, 1u);
}

TEST(CommChecker, M001MoveDuringGate)
{
    // q computes in region 0 at step 1 but the move slot sends it to
    // global memory in the same timestep.
    Module mod = chainModule();
    LeafSchedule sched =
        TestScheduleBuilder(mod, 2).step({{0, 0}}).step({{0, 1}}).take();
    sched.appendMove(
        0, makeMove(0, Location::global(), Location::inRegion(0), false));
    sched.appendMove(
        1, makeMove(0, Location::inRegion(0), Location::global()));

    DiagnosticEngine diags;
    EXPECT_FALSE(checkCommSchedule(sched, MultiSimdArch(2), diags));
    EXPECT_TRUE(hasCode(diags, DiagCode::CommMoveDuringGate));
}

TEST(CommChecker, M002ConflictingMoves)
{
    Module mod = chainModule();
    LeafSchedule sched =
        TestScheduleBuilder(mod, 2).step({{0, 0}}).step({{0, 1}}).take();
    // q moved twice within step 0's movement phase.
    sched.appendMove(
        0, makeMove(0, Location::global(), Location::inRegion(1), false));
    sched.appendMove(
        0, makeMove(0, Location::inRegion(1), Location::inRegion(0), false));

    DiagnosticEngine diags;
    EXPECT_FALSE(checkCommSchedule(sched, MultiSimdArch(2), diags));
    EXPECT_TRUE(hasCode(diags, DiagCode::CommConflictingMoves));
}

TEST(CommChecker, M003RegionOversubscribed)
{
    // Three qubits fetched into region 0 under d = 2. All three compute
    // there, so the occupancy (not the gate width) trips the check.
    Module mod("m");
    auto reg = mod.addRegister("q", 3);
    for (QubitId q : reg)
        mod.addGate(GateKind::H, {q});
    LeafSchedule sched =
        TestScheduleBuilder(mod, 1).step({{0, 0}, {0, 1}, {0, 2}}).take();
    for (QubitId q : reg)
        sched.appendMove(
            0, makeMove(q, Location::global(), Location::inRegion(0), false));

    MultiSimdArch arch(1, 2);
    DiagnosticEngine diags;
    EXPECT_FALSE(checkCommSchedule(sched, arch, diags));
    EXPECT_TRUE(hasCode(diags, DiagCode::CommRegionOvercap));

    // The same schedule is fine with unbounded d.
    DiagnosticEngine clean;
    EXPECT_TRUE(checkCommSchedule(sched, MultiSimdArch(1), clean));
}

TEST(CommChecker, M004LocalMemoryOverCapacity)
{
    Module mod("m");
    QubitId a = mod.addLocal("a");
    QubitId b = mod.addLocal("b");
    mod.addGate(GateKind::H, {a});
    mod.addGate(GateKind::CNOT, {a, b});
    TestScheduleBuilder builder(mod, 1);
    builder.step({{0, 0}}).step({{0, 1}});
    LeafSchedule sched = builder.take();
    sched.appendMove(
        0, makeMove(a, Location::global(), Location::inRegion(0), false));
    sched.appendMove(
        0, makeMove(b, Location::global(), Location::inRegion(0), false));
    // Park both qubits in region 0's scratchpad; capacity is 1.
    sched.appendEmptyStep();
    sched.appendMove(
        2, makeMove(a, Location::inRegion(0), Location::inLocalMem(0), false));
    sched.appendMove(
        2, makeMove(b, Location::inRegion(0), Location::inLocalMem(0), false));

    MultiSimdArch arch(1);
    arch.localMemCapacity = 1;
    DiagnosticEngine diags;
    EXPECT_FALSE(checkCommSchedule(sched, arch, diags));
    EXPECT_TRUE(hasCode(diags, DiagCode::CommLocalOvercap));
}

TEST(CommChecker, M005DeadQubitTeleportIsWarningOnly)
{
    Module mod = chainModule();
    LeafSchedule sched =
        TestScheduleBuilder(mod, 2).step({{0, 0}}).step({{0, 1}}).take();
    sched.appendMove(
        0, makeMove(0, Location::global(), Location::inRegion(0), false));
    // After its last use, q is teleported into region 1: pure waste.
    sched.appendEmptyStep();
    sched.appendMove(
        2, makeMove(0, Location::inRegion(0), Location::inRegion(1)));

    DiagnosticEngine diags;
    // Warnings do not fail the check.
    EXPECT_TRUE(checkCommSchedule(sched, MultiSimdArch(2), diags));
    EXPECT_EQ(diags.numErrors(), 0u);
    EXPECT_TRUE(hasCode(diags, DiagCode::CommDeadTeleport));
}

TEST(CommChecker, M006MoveSourceMismatch)
{
    Module mod = chainModule();
    LeafSchedule sched =
        TestScheduleBuilder(mod, 2).step({{0, 0}}).step({{0, 1}}).take();
    // q actually starts in global memory; the move claims region 1.
    sched.appendMove(
        0, makeMove(0, Location::inRegion(1), Location::inRegion(0), false));

    DiagnosticEngine diags;
    EXPECT_FALSE(checkCommSchedule(sched, MultiSimdArch(2), diags));
    EXPECT_TRUE(hasCode(diags, DiagCode::CommMoveSourceMismatch));
}

TEST(CommChecker, M007OperandNotResident)
{
    // No movement plan at all: the operand never reaches its region.
    Module mod = chainModule();
    LeafSchedule sched =
        TestScheduleBuilder(mod, 2).step({{0, 0}}).step({{0, 1}}).take();

    DiagnosticEngine diags;
    EXPECT_FALSE(checkCommSchedule(sched, MultiSimdArch(2), diags));
    EXPECT_TRUE(hasCode(diags, DiagCode::CommOperandNotResident));
}

TEST(CommChecker, M008RedundantMoveIsWarningOnly)
{
    Module mod = chainModule();
    LeafSchedule sched =
        TestScheduleBuilder(mod, 2).step({{0, 0}}).step({{0, 1}}).take();
    sched.appendMove(
        0, makeMove(0, Location::global(), Location::inRegion(0), false));
    // "Move" q to the region it already occupies.
    sched.appendMove(
        1, makeMove(0, Location::inRegion(0), Location::inRegion(0), false));

    DiagnosticEngine diags;
    EXPECT_TRUE(checkCommSchedule(sched, MultiSimdArch(2), diags));
    EXPECT_EQ(diags.numErrors(), 0u);
    EXPECT_TRUE(hasCode(diags, DiagCode::CommRedundantMove));
}

TEST(CommChecker, M009MemoryBankCoreOutOfRange)
{
    MultiSimdArch arch;
    std::string error;
    ASSERT_TRUE(parseTopologySpec("cores=2,k=1", arch, error)) << error;

    Module mod = chainModule();
    LeafSchedule sched =
        TestScheduleBuilder(mod, 2).step({{0, 0}}).step({{0, 1}}).take();
    sched.appendMove(
        0, makeMove(0, Location::global(), Location::inRegion(0), false));
    // Evict q to the memory bank of core 5; the machine has 2 cores.
    sched.appendEmptyStep();
    sched.appendMove(
        2, makeMove(0, Location::inRegion(0), Location::inMemory(5)));

    DiagnosticEngine diags;
    EXPECT_FALSE(checkCommSchedule(sched, arch, diags));
    EXPECT_TRUE(hasCode(diags, DiagCode::CommEndpointOutOfRange));

    // A live qubit parked for one step in a region or scratchpad the
    // machine does not have, then brought back: only M009 may fire.
    const std::pair<const char *, Location> parks[] = {
        {"k=2,local-mem=1", Location::inLocalMem(9)},
        {"k=2,local-mem=1", Location::inRegion(7)},
        {"cores=2,k=2,map=roundrobin", Location::inRegion(9)},
    };
    for (const auto &[spec, parking] : parks) {
        MultiSimdArch machine;
        ASSERT_TRUE(parseTopologySpec(spec, machine, error)) << error;
        Module parked("m");
        QubitId a = parked.addLocal("a");
        QubitId b = parked.addLocal("b");
        parked.addGate(GateKind::H, {a});
        parked.addGate(GateKind::H, {b});
        parked.addGate(GateKind::T, {a});
        LeafSchedule plan = TestScheduleBuilder(parked, machine.k)
                                .step({{0, 0}})
                                .step({{0, 1}})
                                .step({{0, 2}})
                                .take();
        // Round-robin homes qubit q on core q % cores.
        const unsigned cores = machine.topology.cores;
        plan.appendMove(0, makeMove(a, Location::inMemory(a % cores),
                                    Location::inRegion(0), false));
        plan.appendMove(
            1, makeMove(a, Location::inRegion(0), parking, false));
        plan.appendMove(1, makeMove(b, Location::inMemory(b % cores),
                                    Location::inRegion(0), false));
        plan.appendMove(
            2, makeMove(a, parking, Location::inRegion(0), false));

        DiagnosticEngine found;
        EXPECT_FALSE(checkCommSchedule(plan, machine, found))
            << parking.describe();
        EXPECT_TRUE(hasCode(found, DiagCode::CommEndpointOutOfRange))
            << parking.describe();
        for (const Diagnostic &diag : found.diagnostics())
            EXPECT_EQ(diag.code, DiagCode::CommEndpointOutOfRange)
                << diag.format();
    }
}

TEST(CommChecker, M010LinkOversubscribedByMaskedTeleports)
{
    // Two masked teleports cross the single 0-1 link in one step under
    // link-bw=1: the analyzer would have demoted one to blocking, so a
    // plan that keeps both masked is cheating the cost model.
    MultiSimdArch arch;
    std::string error;
    ASSERT_TRUE(parseTopologySpec("cores=2,k=1,link-bw=1,map=roundrobin",
                                  arch, error))
        << error;

    Module mod("m");
    QubitId a = mod.addLocal("a");
    QubitId b = mod.addLocal("b");
    mod.addGate(GateKind::H, {a});
    mod.addGate(GateKind::H, {b});
    // a homes on core 0 and computes on core 1; b the reverse.
    LeafSchedule sched =
        TestScheduleBuilder(mod, 2).step({{0, 1}, {1, 0}}).take();
    sched.appendMove(
        0, makeMove(a, Location::inMemory(0), Location::inRegion(1), false));
    sched.appendMove(
        0, makeMove(b, Location::inMemory(1), Location::inRegion(0), false));

    DiagnosticEngine diags;
    CommCheckStats stats;
    EXPECT_FALSE(checkCommSchedule(sched, arch, diags, &stats));
    EXPECT_TRUE(hasCode(diags, DiagCode::CommLinkOvercap));
    EXPECT_EQ(stats.interCoreTeleports, 2u);

    // The identical plan is legal once the link is wide enough.
    MultiSimdArch wide;
    ASSERT_TRUE(parseTopologySpec("cores=2,k=1,link-bw=2,map=roundrobin",
                                  wide, error))
        << error;
    DiagnosticEngine clean;
    EXPECT_TRUE(checkCommSchedule(sched, wide, clean));
}

/** A denser module exercising cross-region reuse and parking. */
Module
reuseModule()
{
    Module mod("reuse");
    auto reg = mod.addRegister("q", 6);
    for (QubitId q : reg)
        mod.addGate(GateKind::PrepZ, {q});
    for (size_t i = 0; i + 1 < reg.size(); ++i)
        mod.addGate(GateKind::CNOT, {reg[i], reg[i + 1]});
    for (QubitId q : reg)
        mod.addGate(GateKind::T, {q});
    mod.addGate(GateKind::CNOT, {reg[0], reg[5]});
    for (QubitId q : reg)
        mod.addGate(GateKind::MeasZ, {q});
    return mod;
}

TEST(CommChecker, RealSchedulersPassUnderAllModes)
{
    Module mod = reuseModule();
    MultiSimdArch arch(2, 4);
    arch.localMemCapacity = 2;
    for (CommMode mode : {CommMode::Global, CommMode::GlobalWithLocalMem}) {
        {
            RcpScheduler rcp;
            LeafSchedule sched = rcp.schedule(mod, arch);
            CommunicationAnalyzer(arch, mode).annotate(sched);
            DiagnosticEngine diags;
            EXPECT_TRUE(checkCommSchedule(sched, arch, diags))
                << "RCP mode " << static_cast<int>(mode);
            EXPECT_EQ(diags.numErrors(), 0u);
        }
        {
            LpfsScheduler lpfs;
            LeafSchedule sched = lpfs.schedule(mod, arch);
            CommunicationAnalyzer(arch, mode).annotate(sched);
            DiagnosticEngine diags;
            EXPECT_TRUE(checkCommSchedule(sched, arch, diags))
                << "LPFS mode " << static_cast<int>(mode);
            EXPECT_EQ(diags.numErrors(), 0u);
        }
    }
}

TEST(CommChecker, MultiCoreAnalyzerOutputReplaysClean)
{
    Module mod = reuseModule();
    MultiSimdArch arch;
    std::string error;
    ASSERT_TRUE(parseTopologySpec(
        "cores=2,k=2,d=4,local-mem=2,link-bw=2,link-lat=3", arch,
        error))
        << error;
    for (CommMode mode : {CommMode::Global, CommMode::GlobalWithLocalMem}) {
        {
            RcpScheduler rcp;
            LeafSchedule sched = rcp.schedule(mod, arch);
            CommunicationAnalyzer(arch, mode).annotate(sched);
            DiagnosticEngine diags;
            CommCheckStats stats;
            EXPECT_TRUE(checkCommSchedule(sched, arch, diags, &stats))
                << "RCP mode " << static_cast<int>(mode);
            EXPECT_EQ(diags.numErrors(), 0u);
        }
        {
            LpfsScheduler lpfs;
            LeafSchedule sched = lpfs.schedule(mod, arch);
            CommunicationAnalyzer(arch, mode).annotate(sched);
            DiagnosticEngine diags;
            EXPECT_TRUE(checkCommSchedule(sched, arch, diags))
                << "LPFS mode " << static_cast<int>(mode);
            EXPECT_EQ(diags.numErrors(), 0u);
        }
    }
}

} // namespace
