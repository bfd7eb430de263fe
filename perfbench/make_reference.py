"""Store the seed-0 artifacts of each workload as the gate's reference.

Usage (from the repository root): python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only on code whose outputs are known to be right: every later
benchmark run is checked against what this writes.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

from run import WORK_DIR, context, invoke
from gate import artifact_names, save_reference
from workloads import WORKLOADS, make_workload, preflight


def main(names: list[str]) -> int:
    root = Path.cwd()
    for name in names or WORKLOADS:
        wl = make_workload(name, 0)
        preflight(wl)
        work = root / WORK_DIR / f"reference_{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        run = invoke(wl, context(root, work, wl, {}))
        if run.gate.failed:
            print(f"{name}: not storing a failing run: {run.gate.problems[:5]}", file=sys.stderr)
            return 1
        out = work / "out"
        files = {n: (out / n).read_text(encoding="utf-8") for s in wl.stems() for n in artifact_names(s)}
        print(f"{name}: {len(files)} artifacts -> {save_reference(name, files)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
