"""CSV persistence and the run manifest.

All data artifacts are CSV with a header row, written by `csv.writer`, so a
cell holding a comma or a quote is quoted.  Floats are written with shortest
round-trip precision so identical runs produce byte-identical files.  The
manifest is itself a small key,value CSV listing every file a command wrote
(no orphan writes).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # np.float64 too, whose repr is np.float64(...)
        return repr(float(value))
    if hasattr(value, "item"):  # numpy scalar
        return format_value(value.item())
    return str(value)


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_value(v) for v in row] for row in rows)
    return path


@dataclass
class RunManifest:
    """Config hash, seed, stage timings and the inventory of written files."""

    config_hash: str
    seed: int
    artifact_version: str
    entries: list = dc_field(default_factory=list)
    files: list = dc_field(default_factory=list)
    _stage_started: dict = dc_field(default_factory=dict)

    def begin(self, stage: str):
        self._stage_started[stage] = time.perf_counter()

    def end(self, stage: str):
        elapsed = time.perf_counter() - self._stage_started.pop(stage)
        self.entries.append((f"duration_s.{stage}", f"{elapsed:.3f}"))

    def note(self, key: str, value):
        self.entries.append((key, format_value(value)))

    def record_file(self, path) -> Path:
        path = Path(path)
        self.files.append(path)
        return path

    def write(self, path) -> Path:
        rows = [
            ("config_hash", self.config_hash),
            ("artifact_version", self.artifact_version),
            ("seed", str(self.seed)),
            ("written_at_unix", f"{time.time():.0f}"),
        ]
        rows.extend(self.entries)
        rows.extend((f"file.{i}", str(p)) for i, p in enumerate(self.files))
        return write_csv(path, ("key", "value"), rows)
