#!/usr/bin/env python3
"""Self-test of tools/bench_gate.py against the committed BENCH files.

Usage: tests/bench_gate_test.py SOURCE_DIR

For every gate: the committed file against itself passes; a copy with
one row deleted fails in both directions; a copy missing one gated
field, of the file or of a row, fails in both directions; a copy with
one gated field regressed fails; the committed file re-serialized in
another layout passes. The command line's exit codes and its
report of a missing field are checked once, and
the committed BENCH_opt_gap.json must keep at least 6 of 8 workloads
with every leaf proven optimal: the gate holds each proof, so this is
the floor a fresh run is held to.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile


def bump(row, field, how):
    row[field] = how(row[field])


# NAME -> a regression of one gated field.
REGRESSIONS = {
    "compile_time": (
        lambda d: bump(d["rows"][0], "total_cycles", lambda v: v + 1),
        # The work counter is gated exactly, like the schedule.
        lambda d: bump(d["rows"][0], "ready_scanned", lambda v: v + 1),
        lambda d: bump(d["schedule_bytes"][0], "soa_bytes_per_step",
                       lambda v: v * 1.2)),
    "optimality_gap": lambda d: bump(d["inputs"][0]["leaves"][0],
                                     "makespan", lambda v: v * 2),
    "opt_gap": lambda d: bump(next(leaf for inp in d["inputs"]
                                   for leaf in inp["leaves"]
                                   if leaf["provenance"] == "optimal"),
                              "provenance", lambda v: "fallback"),
    "paper_scale": lambda d: bump(d["rows"][0], "exact", lambda v: False),
    "paper_figures": (
        lambda d: bump(d["claims"][0], "holds", lambda v: False),
        lambda d: bump(next(r for r in d["rows"] if "cycles" in r),
                       "cycles", lambda v: v + 1),
        # SHA-1's Table 1 total is past 2^53, so only an integer
        # comparison sees one more gate.
        lambda d: bump(next(r for r in d["rows"]
                            if r["figure"] == "table1"
                            and r["workload"] == "sha1"),
                       "gates", lambda v: v + 1),
        # The multi-core study's rows are gated like every figure's.
        lambda d: bump(next(r for r in d["rows"]
                            if r["figure"] == "multicore"),
                       "cycles", lambda v: v + 1)),
}


def main(source_dir):
    gate_path = os.path.join(source_dir, "tools", "bench_gate.py")
    sys.path.insert(0, os.path.dirname(gate_path))
    import bench_gate

    failures = []
    assert set(REGRESSIONS) == set(bench_gate.GATES)
    for name, (_, top, tables) in bench_gate.GATES.items():
        committed = os.path.join(source_dir, f"BENCH_{name}.json")
        with open(committed) as f:
            doc = json.load(f)

        def fails(base, fresh):
            return bool(bench_gate.check(name, base, fresh)[0])

        if fails(doc, doc):
            failures.append(f"{name}: fails against itself")
        for rows, _, _ in tables:
            deleted = copy.deepcopy(doc)
            # The derived row lists are the gap reports' leaves.
            del (deleted["inputs"][0]["leaves"] if callable(rows)
                 else deleted[rows])[0]
            if not (fails(doc, deleted) and fails(deleted, doc)):
                failures.append(f"{name}: passes a deleted row")
        # Drop each gated field by name, from the file and from the
        # first row of each table.
        drops = [(None, field) for field in top]
        drops += [(rows, field) for rows, _, fields in tables
                  for field, rule in fields.items()
                  if isinstance(field, str) and rule is not bench_gate.INFO]
        for rows, field in drops:
            dropped = copy.deepcopy(doc)
            holder = (dropped if rows is None else
                      dropped["inputs"][0]["leaves"][0] if callable(rows)
                      else dropped[rows][0])
            del holder[field]
            if not (fails(doc, dropped) and fails(dropped, doc)):
                failures.append(f"{name}: passes a missing {field}")
        regressions = REGRESSIONS[name]
        for regress in (regressions if isinstance(regressions, tuple)
                        else (regressions,)):
            regressed = copy.deepcopy(doc)
            regress(regressed)
            if not fails(doc, regressed):
                failures.append(f"{name}: passes a regressed field")

    with open(os.path.join(source_dir, "BENCH_opt_gap.json")) as f:
        inputs = json.load(f)["inputs"]
    proven = [i["input"] for i in inputs
              if i["leaves"] and all(leaf["provenance"] == "optimal"
                                     for leaf in i["leaves"])]
    if len(proven) < 6:
        failures.append(f"opt_gap: {len(proven)} of {len(inputs)} "
                        "workloads fully proven, floor 6")

    # The gates read values, not layout: each committed file,
    # re-serialized one member per line, passes its own gate, so a
    # report's layout may change while its baseline keeps the old one.
    for name in bench_gate.GATES:
        committed = os.path.join(source_dir, f"BENCH_{name}.json")
        with open(committed) as f:
            relaid = json.dumps(json.load(f), indent=2)
        with tempfile.NamedTemporaryFile("w", suffix=".json") as fresh:
            fresh.write(relaid)
            fresh.flush()
            got = subprocess.run(
                [sys.executable, gate_path, name, committed, fresh.name],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if got.returncode != 0:
            failures.append(f"{name}: fails its own file in another "
                            "layout")

    committed = os.path.join(source_dir, "BENCH_paper_figures.json")
    for args, code in (([committed, committed], 0), ([committed], 2)):
        got = subprocess.run(
            [sys.executable, gate_path, "paper_figures"] + args,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if got.returncode != code:
            failures.append(f"exit {got.returncode} for {args}, "
                            f"expected {code}")

    # A missing field is reported like any regression, not a traceback.
    committed = os.path.join(source_dir, "BENCH_compile_time.json")
    with open(committed) as f:
        doc = json.load(f)
    del doc["rows"][0]["ready_scanned"]
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fresh:
        json.dump(doc, fresh)
        fresh.flush()
        got = subprocess.run(
            [sys.executable, gate_path, "compile_time", committed,
             fresh.name], capture_output=True, text=True)
    row = doc["rows"][0]
    key = (row["workload"], row["scheduler"], row["config"])
    want = f"REGRESSION {key} ready_scanned: missing"
    if got.returncode != 1 or want not in got.stdout.splitlines():
        failures.append(f"missing field: exit {got.returncode}, "
                        f"output {got.stdout!r}{got.stderr!r}")

    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print(f"{len(REGRESSIONS)} gates pass themselves and reject deleted "
          "rows, missing fields and regressed fields")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
