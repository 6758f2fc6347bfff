/**
 * @file
 * The paper's evaluation (§3.1.1, §5), its ablations and extensions in
 * one binary. Each table is followed by the shape claims the repo makes
 * about it, evaluated on the measured integers; both go to a JSON file
 * (msq-paper-figures-v1) that tools/bench_gate.py gates: every integer
 * exact, every claim true.
 *
 * Usage: bench_paper_figures [output.json]   (default
 * BENCH_paper_figures.json in the working directory)
 */

#include "common.hh"

#include <algorithm>
#include <map>
#include <functional>
#include <set>
#include <tuple>
#include <stdexcept>
#include <vector>

#include "analysis/resource_estimator.hh"
#include "passes/decompose_toffoli.hh"
#include "passes/rotation_decomposer.hh"
#include "sched/lpfs.hh"
#include "sched/validator.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "verify/estimate_checker.hh"

using namespace msq;

namespace {

/** What "near", "barely" or "marginal" allows, the same in every claim. */
constexpr double kNear = 0.05;

using Fields = std::vector<std::pair<std::string, Count>>;

/** The raw integers of one figure x workload x configuration. */
struct Row
{
    Fields fields;

    Count
    operator[](const std::string &name) const
    {
        for (const auto &[field, value] : fields)
            if (field == name)
                return value;
        throw std::logic_error("row has no field " + name);
    }
};

double
ratio(Count num, Count den)
{
    return num.toDouble() / den.toDouble();
}

/** Speedup over sequential execution, or over naive movement (5x). */
double
speedup(const Row &row, bool vs_naive = true)
{
    return ratio(vs_naive ? MultiSimdArch::naiveCyclesPerGate * row["gates"]
                          : row["gates"],
                 row["cycles"]);
}

/** A table, then the blank line before its claims. */
void
print(const ResultTable &table)
{
    table.printAscii(std::cout);
    std::cout << "\n";
}

using Names = std::set<std::string>;

/** Short names of the scaled workloads for which @p pred holds. */
Names
where(const std::function<bool(const std::string &)> &pred)
{
    Names out;
    for (const auto &spec : workloads::scaledParams())
        if (pred(spec.shortName))
            out.insert(spec.shortName);
    return out;
}

Names
allBut(const Names &skip)
{
    return where([&](const std::string &w) { return !skip.count(w); });
}

/** Applies one configuration; @p q is the workload's Table 1 Q. */
using Edit = std::function<void(ToolflowConfig &, uint64_t q)>;

Edit
on(SchedulerKind kind, CommMode mode, MultiSimdArch arch)
{
    return [=](ToolflowConfig &config, uint64_t) {
        config.scheduler = kind;
        config.commMode = mode;
        config.arch = arch;
    };
}

/** A column label and the configuration it runs. */
using Column = std::pair<std::string, Edit>;

/** A row per scaled workload, a speedup cell per column. */
struct Grid
{
    std::string title;
    /** Applied, when set, before each column's edit. */
    Edit base = {};
    std::vector<Column> columns;
    /** Prepended to a column label to form the row's config key. */
    std::string configPrefix = {};
    bool qColumn = false;
    /** Fig. 6: speedup over sequential, then the critical-path bound. */
    bool vsSequential = false;
};

/** Every row and claim; rows and claims go to the current figure. */
class Figures
{
  public:
    void
    section(const std::string &id, const std::string &what)
    {
        figure = id;
        std::cout << "\n[" << id << "] " << what << "\n\n";
    }

    const Row &
    add(const std::string &workload, const std::string &config,
        Fields fields)
    {
        auto [it, fresh] = rows.try_emplace({figure, workload, config},
                                            Row{std::move(fields)});
        if (!fresh)
            throw std::logic_error("duplicate row " + workload + "/" + config);
        return it->second;
    }

    const Row &
    at(const std::string &workload, const std::string &config) const
    {
        return rows.at({figure, workload, config});
    }

    /** Scaled workloads whose @p a cycles exceed @p factor x @p b's. */
    Names
    above(const std::string &a, const std::string &b,
          double factor = 1.0) const
    {
        return where([&](const std::string &w) {
            return ratio(at(w, a)["cycles"], at(w, b)["cycles"]) > factor;
        });
    }

    /** Scaled workloads whose @p a and @p b cycles differ by > factor. */
    Names
    apart(const std::string &a, const std::string &b,
          double factor = 1.0) const
    {
        Names out = above(a, b, factor);
        out.merge(above(b, a, factor));
        return out;
    }

    /** Do cycles never rise along @p configs, on any scaled workload? */
    bool
    nonIncreasing(const std::vector<std::string> &configs) const
    {
        for (size_t i = 1; i < configs.size(); ++i)
            if (!above(configs[i], configs[i - 1]).empty())
                return false;
        return true;
    }

    void
    claim(const std::string &name, const std::string &text, bool holds)
    {
        claims.emplace_back(figure + "_" + name, text, holds);
        std::cout << "claim " << figure << "_" << name << " ["
                  << (holds ? "holds" : "FAILS") << "]: " << text << "\n";
    }

    /** Run one toolflow and record its integers. */
    const Row &
    run(const workloads::WorkloadSpec &spec, uint64_t q,
        const std::string &config, const Edit &edit)
    {
        Program prog = spec.build();
        ToolflowConfig tc;
        tc.rotations = Toolflow::rotationPresetFor(spec.shortName);
        edit(tc, q);
        ToolflowResult result = Toolflow(tc).run(prog);
        return add(spec.shortName, config,
                   {{"cycles", result.scheduledCycles},
                    {"gates", result.totalGates},
                    {"critical_path", result.criticalPath},
                    {"qubits", q}});
    }

    /** Run and print @p grid. @return its config keys, in column order. */
    std::vector<std::string>
    grid(const Grid &grid)
    {
        ResultTable table(grid.title);
        std::vector<std::string> header{"benchmark"}, configs;
        if (grid.qColumn)
            header.push_back("Q");
        for (const auto &[label, edit] : grid.columns) {
            header.push_back(label);
            configs.push_back(grid.configPrefix + label);
        }
        if (grid.vsSequential)
            header.push_back("critical-path bound");
        table.setHeader(header);

        for (const auto &spec : workloads::scaledParams()) {
            uint64_t q = ResourceEstimator(spec.build()).programQubits();
            table.beginRow();
            table.addCell(spec.name);
            if (grid.qColumn)
                table.addCell(std::to_string(q));
            const Row *row = nullptr;
            for (size_t c = 0; c < configs.size(); ++c) {
                row = &run(spec, q, configs[c],
                           [&](ToolflowConfig &config, uint64_t qubits) {
                               if (grid.base)
                                   grid.base(config, qubits);
                               grid.columns[c].second(config, qubits);
                           });
                table.addCell(speedup(*row, !grid.vsSequential), 2);
            }
            if (grid.vsSequential)
                table.addCell(ratio((*row)["gates"], (*row)["critical_path"]),
                              2);
        }
        print(table);
        return configs;
    }

    void
    writeJson(JsonWriter &json) const
    {
        json.beginObject().member("schema", "msq-paper-figures-v1");
        json.key("rows").beginArray();
        for (const auto &[key, row] : rows) {
            const auto &[fig, workload, config] = key;
            json.beginObject().member("figure", fig, "workload", workload,
                                      "config", config);
            for (const auto &[field, value] : row.fields)
                json.member(field, value);
            json.endObject();
        }
        json.endArray().key("claims").beginArray();
        for (const auto &[name, text, holds] : claims) {
            json.beginObject().member("name", name, "text", text,
                                      "holds", holds);
            json.endObject();
        }
        json.endArray().endObject();
    }

  private:
    std::string figure;
    /** By (figure, workload, config). */
    std::map<std::tuple<std::string, std::string, std::string>, Row> rows;
    /** (name, text, holds) in run order. */
    std::vector<std::tuple<std::string, std::string, bool>> claims;
};

/** Toffoli(a,b,c); Toffoli(a,d,e) as a modular program. */
Program
toffoliPair()
{
    Program prog;
    ModuleId toffoli = prog.addModule("toffoli");
    Module &gate = prog.module(toffoli);
    QubitId x = gate.addParam("x");
    QubitId y = gate.addParam("y");
    QubitId z = gate.addParam("z");
    std::vector<Operation> ops;
    DecomposeToffoliPass::expandToffoli(x, y, z, ops);
    for (auto &op : ops)
        gate.addOperation(std::move(op));
    ModuleId main_id = prog.addModule("main");
    Module &top = prog.module(main_id);
    auto reg = top.addRegister("q", 5); // a b c d e
    top.addCall(toffoli, {reg[0], reg[1], reg[2]});
    top.addCall(toffoli, {reg[0], reg[3], reg[4]});
    prog.setEntry(main_id);
    prog.validate();
    return prog;
}

void
fig4(Figures &f)
{
    f.section("fig4", "Fig. 4 - modular vs flattened scheduling, k=2");
    MultiSimdArch arch(2);
    ResultTable table("two dependent Toffolis on Multi-SIMD(2,inf), "
                      "communication-free timesteps");
    table.setHeader({"scheduler", "modular-cycles", "flattened-cycles",
                     "improvement"});
    bool exact = true;
    for (SchedulerKind kind : {SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
        auto scheduler = Toolflow::makeScheduler(kind);

        // Modular: each Toffoli is a blackbox; the shared operand `a`
        // serializes them.
        Program modular = toffoliPair();
        LeafSchedule single = scheduler->schedule(
            modular.module(modular.findModule("toffoli")), arch);
        validateLeafSchedule(single, arch);

        // Flattened: both expansions in one leaf module.
        Program flat = toffoliPair();
        FlattenPass(1'000).run(flat);
        LeafSchedule fused =
            scheduler->schedule(flat.module(flat.entry()), arch);
        validateLeafSchedule(fused, arch);

        uint64_t modular_cycles = 2 * single.computeTimesteps();
        uint64_t flattened_cycles = fused.computeTimesteps();
        f.add("toffoli-pair", schedulerKindName(kind),
              {{"modular_cycles", modular_cycles},
               {"flattened_cycles", flattened_cycles}});
        table.beginRow();
        table.addCell(std::string(schedulerKindName(kind)));
        table.addCell(std::to_string(modular_cycles));
        table.addCell(std::to_string(flattened_cycles));
        table.addCell(ratio(modular_cycles, flattened_cycles), 3);
        exact = exact && modular_cycles == 24 && flattened_cycles == 21;
    }
    print(table);
    f.claim("cycle_exact",
            "modular 24 cycles (2 x 12), flattened 21, both schedulers",
            exact);
}

void
fig5(Figures &f)
{
    f.section("fig5", "Fig. 5 - module sizes; FTh = 2M (3M for SHA-1)");
    ResultTable table("percentage of modules per gate-count range "
                      "(paper-scale benchmarks, pre-decomposition "
                      "modularity)");
    std::vector<std::string> header{"benchmark"};
    const size_t buckets = ModuleHistogram::bucketBounds().size() + 1;
    for (size_t b = 0; b < buckets; ++b)
        header.push_back(ModuleHistogram::bucketLabel(b));
    header.push_back("flattened@FTh");
    table.setHeader(header);

    Names below_80;
    for (const auto &spec : workloads::paperParams()) {
        Program prog = spec.build();
        ResourceEstimator resources(prog);
        ModuleHistogram hist(resources);
        uint64_t fth = spec.shortName == "sha1" ? 3'000'000 : 2'000'000;
        uint64_t flattened = 0;
        for (ModuleId id : resources.analyzedModules())
            flattened += resources.totalGates(id) <= fth;
        auto percent = [&](uint64_t part) {
            return 100.0 * ratio(part, hist.totalModules());
        };

        Fields fields;
        table.beginRow();
        table.addCell(spec.name);
        for (size_t b = 0; b < buckets; ++b) {
            fields.push_back({"bucket" + std::to_string(b), hist.count(b)});
            table.addCell(percent(hist.count(b)), 1);
        }
        table.addCell(percent(flattened), 1);
        fields.push_back({"modules", hist.totalModules()});
        fields.push_back({"flattened", flattened});
        f.add(spec.shortName, "paper-scale", std::move(fields));
        if (5 * flattened < 4 * hist.totalModules())
            below_80.insert(spec.shortName);
    }
    print(table);
    f.claim("fth_flattens_80",
            "FTh flattens >= 80% of modules except on GSE and Grovers",
            below_80 == Names{"gse", "grovers"});
}

void
table1(Figures &f)
{
    f.section("table1", "Table 1 - minimum qubits Q per benchmark");
    const std::map<std::string, uint64_t> paper_q{
        {"bf", 1895},     {"bwt", 2719}, {"cn", 60126}, {"grovers", 120},
        {"gse", 13},      {"sha1", 472746}, {"shors", 5634}, {"tfp", 176}};
    ResultTable table("minimum qubits Q (paper-scale benchmarks)");
    table.setHeader({"benchmark", "Q", "total-gates", "paper-Q"});

    for (const auto &spec : workloads::paperParams()) {
        Program prog = spec.build();
        ResourceEstimator resources(prog);
        uint64_t q = resources.programQubits();
        uint64_t paper = paper_q.at(spec.shortName);
        f.add(spec.shortName, "paper-scale",
              {{"qubits", q},
               {"gates", resources.programGates()},
               {"paper_qubits", paper}});
        table.beginRow();
        table.addCell(spec.name);
        table.addCell(std::to_string(q));
        table.addCell(withCommas(resources.programGates()));
        table.addCell(std::to_string(paper));
    }
    print(table);
    f.claim("gse_exact", "GSE reproduces the paper's Q exactly (13)",
            f.at("gse", "paper-scale")["qubits"] == 13);
}

/** One column per scheduler x k, for Figs. 6 and 7. */
std::vector<Column>
schedulersByK(CommMode mode)
{
    std::vector<Column> columns;
    for (SchedulerKind kind : {SchedulerKind::Rcp, SchedulerKind::Lpfs})
        for (unsigned k : {2u, 4u})
            columns.push_back({std::string(schedulerKindName(kind)) +
                                   " k=" + std::to_string(k),
                               on(kind, mode, MultiSimdArch(k))});
    return columns;
}

void
fig6(Figures &f)
{
    f.section("fig6", "Fig. 6 - parallelism, zero-cost communication");
    f.grid({.title = "speedup over sequential execution "
                     "(CommMode = none, d = inf)",
            .columns = schedulersByK(CommMode::None),
            .vsSequential = true});
    auto short_of_bound = [&](const std::string &config) {
        return where([&](const std::string &w) {
            const Row &row = f.at(w, config);
            return ratio(row["critical_path"], row["cycles"]) < 1 - kNear;
        });
    };
    f.claim("near_bound",
            "at k=4 within 5% of the critical-path bound except Shor's "
            "(RCP), and Shor's and GSE (LPFS)",
            short_of_bound("rcp k=4") == Names{"shors"} &&
                short_of_bound("lpfs k=4") == Names{"shors", "gse"});
    f.claim("tfp_rcp_wins_k2",
            "at k=2 RCP beats LPFS on TFP (the paper's Sec. 5.1 anomaly)",
            f.above("lpfs k=2", "rcp k=2").count("tfp"));
}

void
fig7(Figures &f)
{
    f.section("fig7", "Fig. 7 - communication-aware scheduling");
    auto configs = f.grid({.title = "speedup over naive movement "
                                    "(CommMode = global, d = inf)",
                           .columns = schedulersByK(CommMode::Global)});
    f.claim("lpfs_ge_rcp_k2", "at k=2 LPFS >= RCP except on CN and TFP",
            f.above("lpfs k=2", "rcp k=2") == Names{"cn", "tfp"});
    f.claim("lpfs_ge_rcp_k4", "at k=4 LPFS >= RCP on every benchmark",
            f.above("lpfs k=4", "rcp k=4").empty());
    f.claim("gse_largest", "GSE has the largest LPFS k=4 speedup",
            where([&](const std::string &w) {
                return speedup(f.at(w, "lpfs k=4")) >
                       speedup(f.at("gse", "lpfs k=4"));
            }).empty());
    Names low = where([&](const std::string &w) {
        return std::all_of(configs.begin(), configs.end(), [&](auto &c) {
            double s = speedup(f.at(w, c));
            return s >= 1.95 && s < 2.35;
        });
    });
    f.claim("ctqg_low",
            "CTQG-heavy BF, CN and SHA-1 stay in [1.95, 2.35) (~2.0-2.3)",
            low.count("bf") && low.count("cn") && low.count("sha1"));
}

void
fig8(Figures &f)
{
    f.section("fig8", "Fig. 8 - local memories: none / Q/4 / Q/2 / inf");
    // Capacity q * num / den; den = 0 is unbounded.
    std::vector<Column> columns;
    for (auto [label, num, den] :
         {std::tuple{"no-local", 0, 1}, {"Q/4-local", 1, 4},
          {"Q/2-local", 1, 2}, {"inf-local", 1, 0}})
        columns.push_back({label, [=](ToolflowConfig &config, uint64_t q) {
                               uint64_t local =
                                   den == 0 ? unbounded : q * num / den;
                               config.arch = MultiSimdArch(4, unbounded,
                                                           local);
                               if (local != 0)
                                   config.commMode =
                                       CommMode::GlobalWithLocalMem;
                           }});
    std::map<std::string, std::vector<std::string>> configs;
    for (SchedulerKind kind : {SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
        const std::string name = schedulerKindName(kind);
        configs[name] = f.grid(
            {.title = "speedup over naive movement, scheduler = " + name,
             .base = on(kind, CommMode::Global, MultiSimdArch(4)),
             .columns = columns,
             .configPrefix = name + " ",
             .qColumn = true});
    }
    auto gains = [&](const std::string &s, double factor) {
        return f.above(s + " no-local", s + " inf-local", factor);
    };
    f.claim("grows_with_capacity",
            "speedup never falls as capacity grows, either scheduler",
            f.nonIncreasing(configs["rcp"]) &&
                f.nonIncreasing(configs["lpfs"]));
    f.claim("local_helps",
            "inf-local speeds up all but Shor's, either scheduler",
            gains("rcp", 1) == allBut({"shors"}) &&
                gains("lpfs", 1) == allBut({"shors"}));
    f.claim("gse_shors_barely",
            "only GSE and Shor's gain <= 5% from inf-local, either "
            "scheduler",
            gains("rcp", 1 + kNear) == allBut({"gse", "shors"}) &&
                gains("lpfs", 1 + kNear) == allBut({"gse", "shors"}));
    f.claim("gse_largest", "GSE has the largest LPFS inf-local speedup",
            where([&](const std::string &w) {
                return speedup(f.at(w, "lpfs inf-local")) >
                       speedup(f.at("gse", "lpfs inf-local"));
            }).empty());
}

void
table2(Figures &f)
{
    f.section("table2", "Table 2 - rotation serialization");
    constexpr unsigned num_rotations = 8;
    constexpr unsigned sequence_length = 200;

    // The Table 2 illustration: each rotation's approximation prefix.
    std::cout << "rotation -> primitive approximation sequence (first 8 of "
              << sequence_length << " gates):\n";
    for (unsigned i = 0; i < 4; ++i) {
        double angle = 0.1 + 0.2 * i;
        auto seq = RotationDecomposerPass::sequenceForAngle(
            GateKind::Rz, angle, sequence_length);
        std::vector<std::string> names;
        for (unsigned g = 0; g < 8; ++g)
            names.push_back(gateName(seq[g]));
        std::cout << "  " << csprintf("Rz(q%u, %.2f)", i, angle) << " : "
                  << join(names, " - ") << " - ...\n";
    }
    std::cout << "\n";

    ResultTable table(csprintf("%u parallel rotations, %u primitives "
                               "each, LPFS schedule length by k",
                               num_rotations, sequence_length));
    table.setHeader({"k", "timesteps", "ideal ceil(n/k)*len",
                     "utilization"});
    Program prog;
    ModuleId id = prog.addModule("rotations");
    auto reg = prog.module(id).addRegister("q", num_rotations);
    for (unsigned i = 0; i < num_rotations; ++i)
        prog.module(id).addGate(GateKind::Rz, {reg[i]}, 0.1 + 0.05 * i);
    prog.setEntry(id);
    RotationDecomposerPass::Config rot_config;
    rot_config.sequenceLength = sequence_length;
    RotationDecomposerPass(rot_config).run(prog);

    bool ideal_everywhere = true;
    for (unsigned k : {1u, 2u, 4u, 8u, 16u}) {
        MultiSimdArch arch(k);
        LeafSchedule sched = LpfsScheduler().schedule(prog.module(id), arch);
        validateLeafSchedule(sched, arch);
        uint64_t cycles = sched.computeTimesteps();
        uint64_t ideal =
            uint64_t{(num_rotations + k - 1) / k} * sequence_length;
        f.add("rotations", "k=" + std::to_string(k),
              {{"cycles", cycles}, {"ideal", ideal}});
        table.beginRow();
        for (uint64_t v : {uint64_t{k}, cycles, ideal})
            table.addCell(std::to_string(v));
        table.addCell(ratio(ideal, cycles), 2);
        ideal_everywhere = ideal_everywhere && cycles == ideal;
    }
    print(table);
    f.claim("one_region_each",
            "exactly ceil(n/k) x 200 timesteps at every k",
            ideal_everywhere);
}

void
fig9(Figures &f)
{
    f.section("fig9", "Fig. 9 - Shor's sensitivity to k");
    // A larger Shor's instance than the Fig. 6-8 runs: the k sweep needs
    // enough concurrent rotation blackboxes to keep 128 regions busy.
    workloads::WorkloadSpec spec{"Shors n=16", "shors",
                                 [] { return workloads::buildShors(16); }};
    uint64_t q = ResourceEstimator(spec.build()).programQubits();

    ResultTable table("Shor's speedup over naive movement "
                      "(local memories = inf, rotations outlined)");
    table.setHeader({"k", "rcp", "lpfs"});
    std::vector<Count> rcp, lpfs;
    for (unsigned k : {8u, 16u, 32u, 128u}) {
        table.beginRow();
        table.addCell(std::to_string(k));
        for (SchedulerKind kind : {SchedulerKind::Rcp,
                                   SchedulerKind::Lpfs}) {
            const Row &row =
                f.run(spec, q,
                      std::string(schedulerKindName(kind)) + " k=" +
                          std::to_string(k),
                      on(kind, CommMode::GlobalWithLocalMem,
                         MultiSimdArch(k, unbounded, unbounded)));
            table.addCell(speedup(row), 2);
            (kind == SchedulerKind::Rcp ? rcp : lpfs).push_back(row["cycles"]);
        }
    }
    print(table);
    f.claim("rises_with_k",
            "speedup rises strictly with k; RCP and LPFS are identical "
            "at every k",
            rcp == lpfs && std::adjacent_find(rcp.begin(), rcp.end(),
                                              std::less_equal<>()) ==
                               rcp.end());
}

void
ablationLpfs(Figures &f)
{
    f.section("ablation_lpfs", "LPFS options l / SIMD / Refill (§4.2)");
    f.grid({.title = "speedup over naive movement, Multi-SIMD(4,inf), "
                     "CommMode = global",
            .base = on(SchedulerKind::Lpfs, CommMode::Global,
                       MultiSimdArch(4)),
            .columns = {
                {"paper-cfg", [](auto &, auto) {}},
                {"no-SIMD", [](auto &c, auto) { c.lpfsOptions.simd = false; }},
                {"no-Refill",
                 [](auto &c, auto) { c.lpfsOptions.refill = false; }},
                {"l=2", [](auto &c, auto) { c.lpfsOptions.l = 2; }}}});
    f.claim("simd",
            "no-SIMD slows BF, BWT, CN, SHA-1, TFP; speeds up Grovers, GSE",
            f.above("no-SIMD", "paper-cfg") ==
                    Names{"bf", "bwt", "cn", "sha1", "tfp"} &&
                f.above("paper-cfg", "no-SIMD") == Names{"grovers", "gse"});
    f.claim("refill", "no-Refill changes no benchmark's cycles",
            f.apart("no-Refill", "paper-cfg").empty());
}

void
ablationRcp(Figures &f)
{
    f.section("ablation_rcp", "RCP weights w_op / w_dist / w_slack (§4.1)");
    f.grid({.title = "speedup over naive movement, Multi-SIMD(4,inf), "
                     "CommMode = global",
            .base = on(SchedulerKind::Rcp, CommMode::Global,
                       MultiSimdArch(4)),
            .columns = {
                {"1/1/1 (paper)", [](auto &, auto) {}},
                {"w_op=0", [](auto &c, auto) { c.rcpWeights.op = 0.0; }},
                {"w_dist=0", [](auto &c, auto) { c.rcpWeights.dist = 0.0; }},
                {"w_slack=0",
                 [](auto &c, auto) { c.rcpWeights.slack = 0.0; }},
                {"w_dist=4",
                 [](auto &c, auto) { c.rcpWeights.dist = 4.0; }}}});
    f.claim("w_dist", "w_dist=0 and w_dist=4 move no benchmark > 5%",
            f.apart("w_dist=0", "1/1/1 (paper)", 1 + kNear).empty() &&
                f.apart("w_dist=4", "1/1/1 (paper)", 1 + kNear).empty());
}

/** One column per value of @p values, applying @p arch to it. */
std::vector<Column>
sweep(const std::string &name, std::vector<uint64_t> values,
      std::function<MultiSimdArch(uint64_t)> arch)
{
    std::vector<Column> columns;
    for (uint64_t v : values)
        columns.push_back(
            {name + "=" + (v == unbounded ? "inf" : std::to_string(v)),
             [=](ToolflowConfig &config, uint64_t) {
                 config.arch = arch(v);
             }});
    return columns;
}

void
dSensitivity(Figures &f)
{
    f.section("d_sensitivity", "region data width d (§5.4), LPFS");
    f.grid({.title = "speedup over naive movement by d",
            .base = on(SchedulerKind::Lpfs, CommMode::Global, {}),
            .columns = sweep("d", {4, 8, 16, 32, unbounded},
                             [](uint64_t d) { return MultiSimdArch(4, d); })});
    f.claim("32_equals_inf", "d=32 has exactly the d=inf cycles",
            f.apart("d=32", "d=inf").empty());
    f.claim("below_32_marginal", "d=4, 8 and 16 stay within 5% of d=inf",
            f.apart("d=4", "d=inf", 1 + kNear).empty() &&
                f.apart("d=8", "d=inf", 1 + kNear).empty() &&
                f.apart("d=16", "d=inf", 1 + kNear).empty());
}

void
bandwidth(Figures &f)
{
    f.section("bandwidth", "EPR channel bandwidth (§2.3 future work)");
    auto configs = f.grid(
        {.title = "speedup over naive movement by EPR bandwidth "
                  "(blocking teleports per movement phase)",
         .base = on(SchedulerKind::Lpfs, CommMode::Global, {}),
         .columns = sweep("bw", {1, 2, 4, unbounded}, [](uint64_t bw) {
             return MultiSimdArch(4).withEprBandwidth(bw);
         })});
    f.claim("masked_barely", "only GSE and Shor's lose <= 5% at bw=1",
            f.above("bw=1", "bw=inf", 1 + kNear) == allBut({"gse", "shors"}));
    f.claim("monotone", "speedup never falls as bandwidth grows",
            f.nonIncreasing(configs));
}

void
breakdown(Figures &f)
{
    f.section("breakdown", "movement traffic + gate mix, LPFS k=4");
    ResultTable table("hierarchically weighted totals (one program run)");
    table.setHeader({"benchmark", "gates", "T-count", "2q-gates",
                     "teleports", "blocking", "local-moves", "peak-EPR"});
    for (const auto &spec : workloads::scaledParams()) {
        Program prog = spec.build();
        ToolflowConfig config;
        config.rotations = Toolflow::rotationPresetFor(spec.shortName);
        on(SchedulerKind::Lpfs, CommMode::GlobalWithLocalMem,
           MultiSimdArch(4, unbounded, unbounded))(config, 0);
        ToolflowResult result = Toolflow(config).run(prog);
        ResourceEstimator estimator(prog);

        // Leaf movement composed through the repeat algebra: each
        // leaf's counts times its invocations (E005), the peak a max.
        const ResourceSummary moves =
            computeProgramEstimate(prog, result.schedule, config.commMode)
                .program;
        const Row &row =
            f.add(spec.shortName, "lpfs k=4 local=inf",
                  {{"gates", result.totalGates},
                   {"t_count", estimator.programMix().tCount()},
                   {"two_qubit", estimator.programMix().twoQubitCount()},
                   {"teleports", moves.teleportMoves},
                   {"blocking", moves.blockingTeleports},
                   {"local_moves", moves.localMoves},
                   {"peak_epr", moves.peakBlockingMovesPerStep}});
        table.beginRow();
        table.addCell(spec.name);
        for (const auto &field : row.fields)
            table.addCell(withCommas(field.second));
    }
    print(table);
    f.claim("gse_moves_little",
            "only GSE and Shor's teleport less than 5% of their gates",
            where([&](const std::string &w) {
                const Row &row = f.at(w, "lpfs k=4 local=inf");
                return ratio(row["teleports"], row["gates"]) < kNear;
            }) == Names{"gse", "shors"});
}

void
multicore(Figures &f)
{
    f.section("multicore", "multi-core rings (DESIGN.md §16), greedy vs "
                           "round-robin qubit mapping, CommMode = global");
    // The 2- and 4-core rings keep the flat machine's 4 regions; the
    // 8-core ring doubles them: more compute behind slower links, the
    // regime the multi-core literature targets.
    const std::vector<std::pair<std::string, std::string>> topologies{
        {"flat", ""},
        {"2-core", "cores=2,k=2,shape=ring,link-bw=2"},
        {"4-core", "cores=4,k=1,shape=ring,link-bw=2"},
        {"8-core", "cores=8,k=1,shape=ring,link-bw=2"}};
    ResultTable table("makespan in cycles, greedy / round-robin mapping; "
                      "inter-core teleports of one program run on the "
                      "4-core ring");
    table.setHeader({"benchmark", "scheduler", "flat", "2-core", "4-core",
                     "8-core", "4-core teleports"});
    for (const auto &spec : workloads::scaledParams()) {
        for (SchedulerKind kind : {SchedulerKind::Rcp, SchedulerKind::Lpfs}) {
            const std::string scheduler = schedulerKindName(kind);
            table.beginRow();
            table.addCell(spec.name);
            table.addCell(scheduler);
            std::string teleports;
            for (const auto &[name, topology] : topologies) {
                std::string cycles;
                for (MappingStrategy mapping :
                     {MappingStrategy::Greedy, MappingStrategy::RoundRobin}) {
                    std::string config = scheduler + " " + name;
                    MultiSimdArch arch(4);
                    if (!topology.empty()) {
                        std::string error;
                        if (!parseTopologySpec(topology, arch, error))
                            throw std::logic_error(error);
                        arch.topology.mapping = mapping;
                        config += std::string(" ") +
                                  mappingStrategyName(mapping);
                    } else if (mapping != MappingStrategy::Greedy) {
                        continue; // one core: no mapping to compare
                    }
                    Program prog = spec.build();
                    ToolflowConfig tc;
                    tc.rotations = Toolflow::rotationPresetFor(spec.shortName);
                    on(kind, CommMode::Global, arch)(tc, 0);
                    ToolflowResult result = Toolflow(tc).run(prog);
                    const Row &row = f.add(
                        spec.shortName, config,
                        {{"cycles", result.scheduledCycles},
                         {"inter_core_teleports",
                          computeProgramEstimate(prog, result.schedule,
                                                 tc.commMode)
                              .program.interCoreTeleports}});
                    const std::string sep = cycles.empty() ? "" : " / ";
                    cycles += sep + row["cycles"].str();
                    if (name == "4-core")
                        teleports += sep + row["inter_core_teleports"].str();
                }
                table.addCell(cycles);
            }
            table.addCell(teleports);
        }
    }
    print(table);
    f.claim("links",
            "on the 4-core ring under LPFS, greedy mapping sends fewer "
            "teleports over links than round-robin except on GSE and "
            "Shor's",
            where([&](const std::string &w) {
                return f.at(w, "lpfs 4-core greedy")["inter_core_teleports"] <
                       f.at(w, "lpfs 4-core roundrobin")
                           ["inter_core_teleports"];
            }) == allBut({"gse", "shors"}));
    Names slower;
    for (const char *scheduler : {"rcp", "lpfs"})
        for (const char *ring : {"2-core", "4-core", "8-core"}) {
            const std::string config = std::string(scheduler) + " " + ring;
            slower.merge(f.above(config + " greedy", config + " roundrobin",
                                 1 + kNear));
        }
    f.claim("makespan",
            "greedy mapping's makespan stays within 5% of round-robin's "
            "on every ring and scheduler except on GSE",
            slower == Names{"gse"});
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("bench_paper_figures",
                  "§3.1.1 and §5: Figs. 4-9, Tables 1-2 and extensions");
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_paper_figures.json";
    Figures f;
    for (auto figure : {fig4, fig5, table1, fig6, fig7, fig8, table2, fig9,
                        ablationLpfs, ablationRcp, dSensitivity, bandwidth,
                        breakdown, multicore})
        figure(f);
    return bench::writeReport(out_path, [&](JsonWriter &json) {
        f.writeJson(json);
    }) ? 0 : 1;
}
