"""Correctness gate: check one CLI run's artifacts against the stored reference.

A job is one (attack, N) pair; the CLI writes four artifacts for it.
The job fails when an artifact is missing, when its report says
``all_hold`` is false, or when an artifact for which a reference is
stored differs from it: any discrete value (key, string, integer,
boolean, CSV cell that is not a float) must match exactly and every
float must match to 1e-9 relative.  Floats below 1e-12 in magnitude
are round-off residues (deviations of dense checks) and are compared
with that absolute floor instead.
"""

from __future__ import annotations

import gzip
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

ARTIFACT_PREFIXES = ("report", "grid", "plot", "complexity")
REL_TOL = 1e-9
ABS_TOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def artifact_names(stem: str) -> list[str]:
    return [
        f"{prefix}_{stem}.{'json' if prefix == 'report' else 'csv'}"
        for prefix in ARTIFACT_PREFIXES
    ]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict[str, str]:
    """File name -> text of the seed-0 artifacts of a workload."""
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(workload: str, files: dict[str, str]) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the archive bytes a function of its content alone.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(json.dumps(files, sort_keys=True, indent=0).encode("utf-8"))
    return path


def _float_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def same_json(a, b) -> bool:
    """Structural equality with float tolerance; types must agree exactly."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return _float_close(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same_json(x, y) for x, y in zip(a, b))
    return a == b


def _is_float_cell(cell: str) -> bool:
    if not any(c in cell for c in ".eE") or cell in ("true", "false"):
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def same_csv(a: str, b: str) -> bool:
    rows_a, rows_b = a.splitlines(), b.splitlines()
    if len(rows_a) != len(rows_b):
        return False
    for ra, rb in zip(rows_a, rows_b):
        ca, cb = ra.split(","), rb.split(",")
        if len(ca) != len(cb):
            return False
        for x, y in zip(ca, cb):
            if x == y:
                continue
            if not (_is_float_cell(x) and _is_float_cell(y) and _float_close(float(x), float(y))):
                return False
    return True


def same_artifact(name: str, text: str, ref: str) -> bool:
    if text == ref:
        return True
    if name.endswith(".json"):
        try:
            return same_json(json.loads(text), json.loads(ref))
        except json.JSONDecodeError:
            return False
    return same_csv(text, ref)


@dataclass
class GateResult:
    jobs: int = 0
    failed: int = 0
    changed: int = 0  # artifacts whose bytes differ from the reference
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "GateResult") -> None:
        self.jobs += other.jobs
        self.failed += other.failed
        self.changed += other.changed
        self.bytes_written += other.bytes_written
        self.problems.extend(other.problems)


def check_run(out_dir: Path, stems: list[str], reference: dict[str, str], exit_code: int) -> GateResult:
    """Gate one CLI run; a non-zero exit fails every job of the run."""
    res = GateResult(jobs=len(stems))
    for stem in stems:
        ok = exit_code == 0
        for name in artifact_names(stem):
            path = out_dir / name
            if not path.is_file():
                ok = False
                res.problems.append(f"missing {name}")
                continue
            text = path.read_text(encoding="utf-8")
            res.bytes_written += len(text.encode("utf-8"))
            if name.startswith("report_"):
                try:
                    holds = json.loads(text).get("all_hold") is True
                except json.JSONDecodeError:
                    holds = False
                if not holds:
                    ok = False
                    res.problems.append(f"all_hold is not true in {name}")
            ref = reference.get(name)
            if ref is None:
                continue
            if text != ref:
                res.changed += 1
                if not same_artifact(name, text, ref):
                    ok = False
                    res.problems.append(f"{name} differs from the reference")
        if not ok:
            res.failed += 1
    if exit_code != 0:
        res.problems.append(f"CLI exited with code {exit_code}")
    return res
