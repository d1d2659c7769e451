"""Self-test of the benchmark at reduced sizes.

    python3 bench/selftest.py

For every workload it runs one untraced and one traced benchmark run at the
``SMOKE`` sizes and checks that each result is correct and reports every
metric ``BENCHMARK.json`` names, with its unit. Then it runs one pass,
corrupts copies of its outputs in a temporary directory, and checks that
every corrupted command is counted as a failure, both by the byte-identical
replay check and, where an output carries a contract, by the contract
check. Exits non-zero at the first broken expectation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys
from pathlib import Path

import run
import workloads

SEED = 5


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest: FAIL: {what}")


def check_result(result: dict, wanted: dict, what: str) -> None:
    expect(result["correct"] and result["failed"] == 0, f"{what}: failures {result}")
    expect(result["attempted"] >= 1, f"{what}: nothing attempted")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(units == wanted, f"{what}: metrics {units} differ from BENCHMARK.json {wanted}")
    for name, m in result["metrics"].items():
        value = m["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{what}: {name} = {value!r}")


def _edit_csv(path: Path, column: str, edit, rows=None) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    k = header.index(column)
    for i in range(1, len(lines)) if rows is None else rows:
        fields = lines[i].split(",")
        fields[k] = edit(dict(zip(header, fields)))
        lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _break_summary(path: Path) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    data["reconstruction_relative_error"] = 1e-3
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")


def _break_sweep(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    noisy = [i for i in range(1, len(lines))
             if dict(zip(header, lines[i].split(","))).get("gap_mc_stderr") not in ("", "0")]
    if noisy:  # a Monte Carlo mean 100 standard errors off the exact gap
        _edit_csv(path, "gap_mc_mean", lambda row: repr(
            float(row["gap_analytic"]) + 100 * float(row["gap_mc_stderr"])), rows=noisy[:1])
    else:  # a stable cell without its analytic gap
        _edit_csv(path, "gap_analytic", lambda row: "", rows=[1])


CONTRACT_BREAKS = {
    "coefficients.csv": lambda p: _edit_csv(p, "c", lambda row: repr(float(row["c"]) * 1.001)),
    "summary.json": _break_summary,
    "designed_schedule.csv": lambda p: _edit_csv(
        p, "alpha", lambda row: repr(float(row["alpha"]) + 1e-6), rows=[2]),
    "sweep.csv": _break_sweep,
}


def outputs_of(cmd: workloads.Command) -> list:
    return json.loads((cmd.out / "manifest.json").read_text(encoding="utf-8"))["outputs"]


def check_corruption(workload: str, tmp: Path) -> int:
    """Corrupt copies of one pass's outputs; return how many cases were checked."""
    r = run.Run(workload, SEED, workloads.SMOKE, tmp / "work")
    try:
        r.fresh_outputs()
        codes = [r.spawn([sys.executable, "-m", "lrdual.cli"] + c.argv).code for c in r.cmds]
        expect(r.ledger.judge(codes) == 0, f"{workload}: clean pass failed {r.ledger.reasons}")
        copy_root = tmp / "copy"
        copied = [dataclasses.replace(c, out=copy_root / c.out.name) for c in r.cmds]

        def fresh_copy() -> None:
            shutil.rmtree(copy_root, ignore_errors=True)
            shutil.copytree(r.out_root, copy_root)

        fresh_copy()
        expect(r.ledger.judge(codes, copied) == 0, f"{workload}: an exact copy failed")
        cases = 0
        for cmd in copied:
            for name in outputs_of(cmd):
                breaks = [("one flipped byte", _flip_byte), ("deleted", Path.unlink)]
                if name in CONTRACT_BREAKS:
                    breaks.append(("contract broken", CONTRACT_BREAKS[name]))
                for how, corrupt in breaks:
                    fresh_copy()
                    corrupt(cmd.out / name)
                    what = f"{workload}: {cmd.label}/{name} {how}"
                    expect(r.ledger.judge(codes, copied) == 1, f"{what}: not counted once")
                    if how != "one flipped byte":
                        expect(workloads.check_command(cmd, r.inputs) is not None,
                               f"{what}: passed the contract check")
                    cases += 1
        expect(cases > 0, f"{workload}: no outputs to corrupt")
        return cases
    finally:
        r.finish()


def _flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from the benchmark's")
    sys.path.insert(0, str(run.SRC))
    tmp = run.WORK_ROOT / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        for workload in workloads.WORKLOADS:
            for trace in (False, True):
                result, _ = run.run_workload(workload, SEED, 0.1, trace, workloads.SMOKE,
                                             tmp / f"{workload}-{int(trace)}")
                check_result(result, wanted[trace], f"{workload} trace={int(trace)}")
            cases = check_corruption(workload, tmp / f"{workload}-corrupt")
            print(f"selftest: {workload}: metrics ok, {cases} corrupted outputs counted",
                  file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
