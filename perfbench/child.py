"""One benchmarked `sfrbsde` command, run in a fresh interpreter.

    python3 child.py <result.json> <command> <config> <out_dir> [--setup-only] [--trace SPANS]

Records, on the system-wide monotonic clock the parent also reads, when the
process was ready to call the command (imports done, config parsed) and when
the call began and returned, plus the CPU time the call used.  With
`--trace` the layer functions are wrapped first and the spans written at
the end.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    result_path, command, config, out_dir, *flags = argv
    from sfrbsde import cli
    from sfrbsde.config import parse_config

    parse_config(config)
    result = {"t_ready": _clock()}
    if "--setup-only" in flags:
        rc = 0
    else:
        tracer = None
        if "--trace" in flags:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        cpu0, t_call = _cpu_s(), _clock()
        rc = cli.main([command, "--config", config, "--out", out_dir])
        t_return = _clock()
        result.update(rc=rc, t_call=t_call, t_return=t_return, cpu_s=_cpu_s() - cpu0)
        if tracer is not None:
            tracer.dump(flags[flags.index("--trace") + 1], t_call, t_return)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
