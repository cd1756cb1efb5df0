"""The sfrbsde benchmark.

    python3 perfbench/run.py --workload sweep-crit7 --seed 42 --seconds 10 --trace 0

A closed loop with one client: this process launches one fresh interpreter
at a time (`child.py`), which runs one `sfrbsde` command on the workload's
generated config, and launches the next only after it has exited, until
the workload's `commands` have run and `--seconds` have passed.  The
program is run from this checkout's `src/` and nothing is installed.

`--trace 0` first spawns a few interpreters that only set up, then measures;
it reports the end-to-end metrics of END_TO_END as medians over the run.
`--trace 1` runs the command once untraced and once with every layer
function wrapped (tracer.py) and reports tracer.PER_LAYER.  The first
command's outputs go through the correctness gate (gate.py); later commands
must exit 0 with byte-identical stable outputs.  The last line printed is
one JSON object: correct, attempted, failed, metrics.

`--write-reference` runs one command and stores its output summaries in
reference.json; it refuses when any gate operation fails.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import gate
import tracer
from workloads import ALL, COMMAND

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_PROBES = 5
RUN_BUDGET_S = 165.0

# name -> (unit, better)
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Child:
    """One finished child interpreter, as measured from outside and inside."""

    status: str           # "ok", or why no measurement exists
    setup_s: float = 0.0
    run_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    rc: int = -1
    wall_s: float = 0.0


def spawn(args, work: Path, log: Path, deadline: float) -> Child:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result_path = Path(args[0])
    with open(log, "w", encoding="utf-8") as fh:
        t_spawn = _clock()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *map(str, args)],
                                cwd=work, env=env, stdout=fh, stderr=subprocess.STDOUT)
        pid = 0
        try:
            while not pid and _clock() <= deadline:
                time.sleep(0.02)
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        finally:
            if not pid:  # over budget, or this process is being interrupted
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timed_out = not pid
    wall = _clock() - t_spawn
    if timed_out:
        return Child(status=f"killed after {wall:.0f} s: run budget exhausted", wall_s=wall)
    if not result_path.is_file():
        tail = log.read_text(encoding="utf-8", errors="replace")[-800:]
        return Child(status=f"child exited {proc.returncode} without a result:\n{tail}",
                     wall_s=wall)
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    return Child(status="ok", setup_s=res["t_ready"] - t_spawn,
                 run_s=res.get("t_return", 0.0) - res.get("t_call", 0.0),
                 cpu_s=res.get("cpu_s", 0.0), peak_rss_mb=usage.ru_maxrss / 1024.0,
                 rc=res.get("rc", 0), wall_s=wall)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sfrbsde").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Ledger:
    """Digests of stable outputs per (workload, seed, program source) in this checkout."""

    def __init__(self, path: Path):
        self.path = path
        self.entries = json.loads(path.read_text()) if path.is_file() else {}

    def compare_or_store(self, g: gate.Gate, key: str, digests: dict):
        if key in self.entries:
            gate.check_determinism(g, digests, self.entries[key], "an earlier run of this seed")
        else:
            self.entries[key] = digests
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.entries, indent=1))
            os.replace(tmp, self.path)


def machine() -> str:
    cpu, caches = "unknown", {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            caches[f"L{(index / 'level').read_text().strip()}"] = \
                (index / "size").read_text().strip()
    except (OSError, StopIteration):
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} L2={caches.get('L2', '?')} "
            f"L3={caches.get('L3', '?')} python={platform.python_version()} "
            f"numpy={metadata.version('numpy')} scipy={metadata.version('scipy')}")


def write_spans(doc: dict, path: Path):
    own = tracer.self_times(doc["spans"])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("index", "name", "eps", "thread", "start_s", "end_s", "parent",
                      "self_s", "attrs"))
        t0 = doc["t_call"]
        for i, (rec, self_s) in enumerate(zip(doc["spans"], own)):
            name, label, thread, start, end, parent, attrs = rec
            out.writerow((i, name, label, thread, f"{start - t0:.6f}", f"{end - t0:.6f}",
                          parent, f"{self_s:.6f}", json.dumps(attrs, sort_keys=True)))
    totals = {}
    for rec, self_s in zip(doc["spans"], own):
        totals[rec[0]] = totals.get(rec[0], 0.0) + self_s
    return sorted(totals.items(), key=lambda kv: -kv[1])


def _prepare(workload, seed: int):
    """A fresh work directory holding the workload's generated config."""
    # byte-compile once so that set-up time never includes first-import compiles
    compileall.compile_dir(str(SRC), quiet=1)
    work = RUNS / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "workload.cfg"
    config.write_text(workload.config_text(seed), encoding="utf-8")
    return work, config


def write_reference(workload, seed: int) -> int:
    """Run the command once and store its summaries as the workload's reference."""
    work, config = _prepare(workload, seed)
    out = work / "out0"
    child = spawn([work / "result0.json", COMMAND, config, out], work,
                  work / "child0.log", _clock() + RUN_BUDGET_S)
    g = gate.Gate()
    if g.record("completed", child.status == "ok", child.status):
        gate.check_outputs(g, workload, out, child.rc, seed, {"seed": seed, "workloads": {}})
    for name, reason in g.failures():
        print(f"FAIL {name}: {reason}")
    stored = (gate.load_reference() if gate.REFERENCE_PATH.is_file()
              else {"seed": seed, "workloads": {}})
    if g.failed or stored["seed"] != seed:
        print(f"perfbench: reference not written: the gate failed, or the reference "
              f"is pinned to seed {stored['seed']}", file=sys.stderr)
        return 1
    stored["workloads"][workload.name] = gate.summarise(out)
    gate.REFERENCE_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"perfbench: reference for {workload.name} at seed {seed} written")
    return 0


def run(workload, seed: int, seconds: float, trace: bool) -> int:
    work, config = _prepare(workload, seed)
    reference = gate.load_reference()
    ledger = Ledger(RUNS / "ledger.json")
    ledger_key = f"{workload.name}|{seed}|{source_digest()}"
    deadline = _clock() + RUN_BUDGET_S
    g = gate.Gate()

    setups = []
    if not trace:
        for i in range(SETUP_PROBES):
            probe = spawn([work / f"setup{i}.json", COMMAND, config, work / "unused",
                           "--setup-only"], work, work / f"setup{i}.log", deadline)
            if probe.status != "ok":
                print(f"perfbench: set-up probe failed: {probe.status}", file=sys.stderr)
                return 1
            setups.append(probe.setup_s)

    # trace 1: the first command untraced, the second traced
    children, first_digests, traced_doc = [], None, None
    t_start = _clock()
    while True:
        i = len(children)
        out = work / f"out{i}"
        args = [work / f"result{i}.json", COMMAND, config, out]
        if trace and i == 1:
            args += ["--trace", work / "spans.json"]
        child = spawn(args, work, work / f"child{i}.log", deadline)
        if not g.record("completed", child.status == "ok", child.status):
            break
        children.append(child)
        if first_digests is None:
            first_digests = gate.check_outputs(g, workload, out, child.rc, seed, reference)
            ledger.compare_or_store(g, ledger_key, first_digests)
        else:
            g.record("exit_code", child.rc == 0, f"command exited with {child.rc}")
            gate.check_determinism(g, gate.digests(out), first_digests,
                                   "the first command of this run")
        shutil.rmtree(out, ignore_errors=True)
        if trace and i == 1:
            with open(work / "spans.json", encoding="utf-8") as fh:
                traced_doc = json.load(fh)
            break
        if not trace and len(children) >= workload.commands and _clock() - t_start >= seconds:
            break
        if _clock() + child.wall_s > deadline:
            break

    for name, reason in g.failures():
        print(f"FAIL {name}: {reason}")
    if not children or (trace and traced_doc is None):
        print("perfbench: no command completed; nothing was measured", file=sys.stderr)
        return 1

    print(f"perfbench {workload.name} seed={seed} trace={int(trace)}: {len(children)} "
          f"command run(s), closed loop, one client; run_s each: "
          + ", ".join(f"{c.run_s:.3f}" for c in children))
    print(f"machine: {machine()}")
    print(f"sizes: one n_paths x n_nodes float64 array = "
          f"{workload.path_array_bytes / 1e6:.1f} MB (computed from shapes)")
    print(f"fail_frac: {g.failed}/{g.attempted} = {g.failed / g.attempted:.4f}")
    if trace:
        plain = children[0]
        metrics = tracer.layer_metrics(traced_doc, plain.run_s, plain.cpu_s)
        units = {name: unit for name, (unit, _) in tracer.PER_LAYER.items()}
        print(f"fbm method: {', '.join(map(str, tracer.fbm_methods(traced_doc))) or 'none'}")
        top = write_spans(traced_doc, work / "spans.csv")
        print("self time by span: " + ", ".join(f"{n} {s:.3f}s" for n, s in top[:8]))
    else:
        metrics = {
            "run_s": statistics.median(c.run_s for c in children),
            "setup_s": statistics.median(setups + [c.setup_s for c in children]),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    for name, value in metrics.items():
        print(f"{name:<44} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": g.failed == 0,
        "attempted": g.attempted,
        "failed": g.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALL))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if not (SRC / "sfrbsde" / "cli.py").is_file():
        print(f"perfbench: no sfrbsde sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(ALL[args.workload], args.seed)
    return run(ALL[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
