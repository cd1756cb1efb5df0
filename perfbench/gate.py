"""Correctness gate: every checked output of one command is one operation.

Operations, each attempted once per command run and counted as failed with a
printed reason:

* `exit_code`: the command returned 0;
* `verdict.*`: every claim verdict of the sweep, in `sweep_report.csv`
  and `summary.txt`;
* `float_literals.<file>`: every numeric cell of a numeric CSV is a plain
  float literal, as `float()` and every CSV reader accept it;
* `reference.*`: agreement with `reference.json`.  Values that do not
  depend on the seed are compared on every run, all values at the pinned
  seed, and the sweep's Monte-Carlo error statistics within six combined
  standard errors on every seed.  A file that fails its float-literal check
  is not compared: its numbers cannot be read as written;
* `deterministic.<file>`: byte-identical output for one seed, against the
  earlier runs in this checkout.

A run's later commands of one seed are held to byte-identical stable
outputs and their exit code; identical bytes pass the same content checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from workloads import SEED_FREE, STABLE, TABLES

PLAIN_FLOAT = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?\Z")
SWEEP_VERDICTS = ("pass_lemma1", "pass_theorem", "pass_chebyshev")
BOOL_COLUMNS = frozenset(SWEEP_VERDICTS)
KEY_VALUE_FILES = frozenset({"constants.csv", "manifest.csv"})
MANIFEST_NUMERIC = frozenset({"seed", "written_at_unix"})
SMALL_TABLE_ROWS = 64
RTOL = 1e-9
MC_SIGMAS = 6.0
SLOPE_TOL = 0.1
REFERENCE_PATH = Path(__file__).with_name("reference.json")


class Gate:
    """Operations attempted on one benchmark run, with failure reasons."""

    def __init__(self):
        self.ops: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, reason: str = "") -> bool:
        self.ops.append((name, bool(ok), reason))
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.ops)

    def failures(self):
        return [(name, reason) for name, ok, reason in self.ops if not ok]


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- reading -------------------------------------------------------------------

def _numeric_cells(name: str, header, rows):
    """Yield (row, column, text) for every cell that must hold a number."""
    if name in KEY_VALUE_FILES:
        for i, (key, value) in enumerate(rows, start=1):
            if name == "constants.csv" or key in MANIFEST_NUMERIC or key.startswith("duration_s."):
                yield i, key, value
        return
    for i, row in enumerate(rows, start=1):
        for col, text in zip(header, row):
            if col not in BOOL_COLUMNS:
                yield i, col, text


def read_numbers(path: Path):
    """Strictly parse a numeric CSV into its summary, or explain why not.

    Returns (summary, None) or (None, reason).  A key,value file summarises
    to {key: value}; a table to {column: values} when small and to
    {column: {n, min, max, sum_abs, sum_sq}} when large.
    """
    name = path.name
    with open(path, encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines:
        return None, "the file is empty"
    header, *rows = lines
    bad = [(i, col, text) for i, col, text in _numeric_cells(name, header, rows)
           if not PLAIN_FLOAT.match(text)]
    bad += [(i, col, text) for i, row in enumerate(rows, start=1)
            for col, text in zip(header, row)
            if col in BOOL_COLUMNS and text not in ("true", "false")]
    if bad:
        i, col, text = bad[0]
        return None, (f"{len(bad)} cells are not plain literals; first at row {i}, "
                      f"{col}: {text[:60]!r}")
    if name in KEY_VALUE_FILES:
        return {key: float(text) for _, key, text in _numeric_cells(name, header, rows)}, None
    columns = {col: [float(row[j]) for row in rows]
               for j, col in enumerate(header) if col not in BOOL_COLUMNS}
    if len(rows) <= SMALL_TABLE_ROWS:
        return columns, None
    return {col: {"n": len(v), "min": min(v), "max": max(v),
                  "sum_abs": math.fsum(map(abs, v)), "sum_sq": math.fsum(x * x for x in v)}
            for col, v in columns.items()}, None


def _mismatches(expected, actual, where, rtol=RTOL):
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected a mapping"]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{where}.{key}: missing")
            else:
                out.extend(_mismatches(value, actual[key], f"{where}.{key}", rtol))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected {len(expected)} values"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in _mismatches(e, a, f"{where}[{i}]", rtol)]
    if not math.isclose(actual, expected, rel_tol=rtol, abs_tol=1e-300):
        return [f"{where}: {actual!r} vs reference {expected!r}"]
    return []


def _reason(mismatches, limit=3):
    more = f" (+{len(mismatches) - limit} more)" if len(mismatches) > limit else ""
    return "; ".join(mismatches[:limit]) + more


# -- checks ----------------------------------------------------------------------

def _verdicts(gate: Gate, out: Path):
    with open(out / "sweep_report.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            for col in SWEEP_VERDICTS:
                gate.record(f"verdict.{col}[eps={row['epsilon']}]", row[col] == "true",
                            f"{col} is {row[col]!r} at eps={row['epsilon']}")
    text = (out / "summary.txt").read_text(encoding="utf-8")
    section = text.split("claim verdicts", 1)[1].split("per-epsilon table", 1)[0]
    for line in section.splitlines():
        match = re.match(r"(.+?)\s*:.*\b(PASS|FAIL)\b", line)
        if match:
            gate.record(f"verdict.{match.group(1).strip()}", match.group(2) == "PASS",
                        line.strip())


def _slope(eps, mse):
    return float(np.polyfit(np.log(eps), np.log(mse), 1)[0])


def _monte_carlo(gate: Gate, expected: dict, actual: dict):
    """The sweep's sup-MSE and its log-log slope, which every seed must reproduce."""
    e, a = expected["sweep_report.csv"], actual["sweep_report.csv"]
    off = [f"eps={eps:g}: {m:.6g} vs {rm:.6g} ({abs(m - rm) / math.hypot(s, rs):.1f} se)"
           for eps, m, s, rm, rs in zip(a["epsilon"], a["sup_mse"], a["sup_mse_stderr"],
                                        e["sup_mse"], e["sup_mse_stderr"])
           if abs(m - rm) > MC_SIGMAS * math.hypot(s, rs)]
    gate.record("reference.monte_carlo.sup_mse",
                not off and len(a["sup_mse"]) == len(e["sup_mse"]),
                f"sup_mse beyond {MC_SIGMAS:g} standard errors: {_reason(off)}")
    slope, ref = _slope(a["epsilon"], a["sup_mse"]), _slope(e["epsilon"], e["sup_mse"])
    gate.record("reference.monte_carlo.slope", abs(slope - ref) <= SLOPE_TOL,
                f"log-log slope {slope:.4f} vs reference {ref:.4f} (tolerance {SLOPE_TOL})")


def summarise(out: Path) -> dict:
    """The reference entry for one run: every numeric file's summary."""
    entry = {"files": {}}
    for name in TABLES:
        if name != "manifest.csv":
            summary, reason = read_numbers(out / name)
            if summary is None:
                raise ValueError(f"{name}: {reason}")
            entry["files"][name] = summary
    return entry


def check_outputs(gate: Gate, workload, out: Path, rc: int, seed: int, reference: dict):
    """Record every operation for one command run; return the stable files' digests."""
    gate.record("exit_code", rc == 0, f"command exited with {rc}")
    ref = reference["workloads"].get(workload.name)
    pinned = ref is not None and seed == reference["seed"]
    _guarded(gate, "verdicts", lambda: _verdicts(gate, out))

    parsed = {}
    for name in TABLES:
        path = out / name
        if not path.is_file():
            gate.record(f"float_literals.{name}", False, f"{name} was not written")
            continue
        summary, reason = read_numbers(path)
        if gate.record(f"float_literals.{name}", summary is not None, f"{name}: {reason}"):
            parsed[name] = summary
        elif ref is not None and name in ref["files"]:
            print(f"gate: reference comparison of {name} not attempted: its cells do not "
                  f"parse as written")

    if ref is not None:
        for name, columns in SEED_FREE.items():
            if name in parsed:
                expected = {c: ref["files"][name][c] for c in columns}
                bad = _mismatches(expected, parsed[name], name)
                gate.record(f"reference.seed_free.{name}", not bad,
                            f"seed-independent values moved beyond rtol {RTOL:g}: {_reason(bad)}")
        if pinned:
            for name, expected in ref["files"].items():
                if name in parsed:
                    bad = _mismatches(expected, parsed[name], name)
                    gate.record(f"reference.pinned.{name}", not bad,
                                f"pinned-seed values moved beyond rtol {RTOL:g}: {_reason(bad)}")
        if "sweep_report.csv" in parsed:
            _monte_carlo(gate, ref["files"], parsed)

    return digests(out)


def digests(out: Path) -> dict:
    """SHA-256 of each stable output that was written."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in STABLE if (out / name).is_file()}


def _guarded(gate: Gate, what: str, check):
    try:
        return check()
    except (OSError, KeyError, IndexError, ValueError) as exc:
        gate.record(f"{what}.readable", False, f"{what} outputs unreadable: {exc!r}")
        return None


def check_determinism(gate: Gate, digests: dict, earlier: dict, source: str):
    for name, digest in sorted(digests.items()):
        if name in earlier:
            gate.record(f"deterministic.{name}", digest == earlier[name],
                        f"{name} differs from {source} with the same seed")
