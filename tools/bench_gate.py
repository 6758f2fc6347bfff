#!/usr/bin/env python3
"""Gate a freshly generated BENCH_*.json against its committed baseline.

Usage: tools/bench_gate.py NAME BASELINE FRESH

NAME picks the file's rules in GATES. Every gate keys the file's rows
and fails when a row, or a gated field of a row or of the file, is
present on only one side, so a renamed or dropped one can never pass
without being compared. Each gated field carries one rule: schedules
are deterministic, so cycles, hashes, makespans and work counters match
exactly, while sizes, gaps and estimates may drift 10%. Wall-clock fields are too noisy to gate on CI runners; they are
informational (printed, never gated). Exit 0 when the fresh file
passes, 1 on any regression, 2 on usage errors.
"""

import json
import sys


def exact(base, now):
    return now == base


def grow10(base, now):
    return now <= base * 1.10


def near10(base, now):
    return base * 0.90 <= now <= base * 1.10


def true(base, now):
    return now is True


def keeps_optimal(base, now):
    # A proof is deterministic: losing one is a regression even if the
    # makespan barely moves.
    return base != "optimal" or now == "optimal"


INFO = None


def gap(row):
    # Recomputed from the raw integers, immune to float formatting.
    return row["makespan"] / row["lower_bound"]


def every_field(row):
    return row


def speedup(row):
    # Fig. 6 is over sequential execution, the rest over naive movement.
    if "cycles" in row and "gates" in row:
        cycles_per_gate = 1 if row["figure"] == "fig6" else 5
        return round(cycles_per_gate * row["gates"] / row["cycles"], 2)


def gap_leaves(doc):
    return [dict(leaf, input=inp["input"], scheduler=inp["scheduler"])
            for inp in doc["inputs"] for leaf in inp["leaves"]]


# Both gap files are `msq-verify --bounds-json` reports: the default
# schedulers' gaps, and the opt tier's proofs at tiny parameters. A leaf
# proven in the baseline stays proven and no leaf row may vanish, so
# every workload fully proven in the committed BENCH_opt_gap.json (6 of
# 8, pinned by tests/bench_gate_test.py) stays fully proven.
GAP_LEAVES = ("msq-optimality-gap-v1", {}, [
    (gap_leaves, ("input", "scheduler", "module", "width"),
     {"provenance": keeps_optimal, gap: grow10})])


# NAME -> (schema or None, {top-level field: rule},
#          [(row list, key fields, {field: rule})]).
# A field is a key of the row or a function of it.
GATES = {
    # The nested-vector layout the SoA schedule buffer replaced cost at
    # least 48 + 32k >= 1072 B/step at k >= 32; the committed maximum
    # soa_bytes_per_step is 178.2, so under grow10 every row stays more
    # than 5.4x smaller.
    "compile_time": (None, {}, [
        ("rows", ("workload", "scheduler", "config"),
         {"total_cycles": exact, "ready_scanned": exact,
          "wall_ms": INFO}),
        ("schedule_bytes", ("workload", "scheduler", "k"),
         {"soa_bytes_per_step": grow10})]),
    "optimality_gap": GAP_LEAVES,
    "opt_gap": GAP_LEAVES,
    "paper_scale": ("msq-paper-scale-v1", {}, [
        ("rows", ("workload", "scheduler"),
         {"exact": true, "gates": near10, "makespan_cycles": near10,
          "epr_pairs": near10, "distinct_leaves": near10})]),
    "paper_figures": ("msq-paper-figures-v1", {}, [
        ("rows", ("figure", "workload", "config"),
         {every_field: exact, speedup: INFO}),
        ("claims", ("name",), {"holds": true})]),
}


class Missing:
    """A field absent from one side's row or file."""

    def __repr__(self):
        return "missing"


MISSING = Missing()


def value(row, field):
    try:
        return field(row) if callable(field) else row[field]
    except KeyError:
        return MISSING


def label(field):
    return field.__name__ if callable(field) else field


def rows_of(doc, rows):
    return rows(doc) if callable(rows) else doc[rows]


def check(name, base, fresh):
    """@return (regressions, informational lines, rows compared) of
    @p fresh against @p base."""
    schema, top, tables = GATES[name]
    bad, info = [], []
    for doc, side in ((base, "baseline"), (fresh, "fresh file")):
        if schema is not None and doc.get("schema") != schema:
            bad.append(f"{side}: schema {doc.get('schema')!r}, "
                       f"expected {schema!r}")
    for field, rule in top.items():
        was, now = value(base, field), value(fresh, field)
        if MISSING in (was, now):
            bad.append(f"{field}: missing")
        elif not rule(was, now):
            bad.append(f"{field}: {was} -> {now}")
    compared = 0
    for rows, key_fields, fields in tables:
        def keyed(doc):
            return {tuple(r[f] for f in key_fields): r
                    for r in rows_of(doc, rows)}
        b, n = keyed(base), keyed(fresh)
        bad += [f"{key}: row missing from fresh file"
                for key in b if key not in n]
        bad += [f"{key}: row missing from baseline"
                for key in n if key not in b]
        for key in [key for key in b if key in n]:
            compared += 1
            for field, rule in fields.items():
                was, now = value(b[key], field), value(n[key], field)
                if rule is INFO:
                    if now not in (None, MISSING):
                        info.append(f"{key} {label(field)}: {now} "
                                    f"(baseline {was})")
                elif MISSING in (was, now):
                    bad.append(f"{key} {label(field)}: missing")
                elif not rule(was, now):
                    bad.append(f"{key} {label(field)}: {was} -> {now}")
    return bad, info, compared


def main(argv):
    if len(argv) != 4 or argv[1] not in GATES:
        print(f"usage: {argv[0]} {{{','.join(GATES)}}} BASELINE FRESH",
              file=sys.stderr)
        return 2
    docs = []
    for path in argv[2:]:
        with open(path) as f:
            docs.append(json.load(f))
    bad, info, compared = check(argv[1], *docs)
    for line in info + [f"REGRESSION {what}" for what in bad]:
        print(line)
    if bad:
        return 1
    print(f"{argv[1]}: {compared} rows match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
