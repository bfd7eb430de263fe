"""qid benchmark: run one workload through the real CLI and report metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload kraus_n5 --seed 0 --seconds 45 --trace 0

Each CLI run is a fresh process, started only after the previous one
returned (a closed loop with one client).  Every run's artifacts go
through the correctness gate.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of one extra run under ``tracer.py``.  A run manifest (versions,
settings, seed) is written next to the outputs and printed on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import GateResult, check_run, load_reference  # noqa: E402
from tracer import summarize  # noqa: E402
from workloads import WORKLOADS, Workload, make_workload, preflight  # noqa: E402

WORK_DIR = ".bench_work"
# Set-up is timed this many times before and again after the closed loop,
# so that its median spans the run rather than one moment of host load.
SETUP_REPEATS = 5
# A CLI run that hangs is killed in time for the whole run to end within 180 s.
RUN_TIMEOUT_S = 120.0
# Single-threaded BLAS is the baseline every later change is compared with.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CODE = "import sys; from qid.cli import load_config; load_config(sys.argv[1])"


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    gate: GateResult


def workload_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(PINNED_THREADS)
    return env


def context(root: Path, work: Path, wl: Workload, reference: dict[str, str]) -> dict:
    """Write the workload's config into ``work`` and gather what a CLI run needs."""
    config = work / "config.json"
    config.write_text(json.dumps(wl.config, indent=2) + "\n")
    return {"root": root, "work": work, "config": config, "env": workload_env(root), "reference": reference}


def timed_process(argv: list[str], env: dict[str, str], cwd: Path, stderr_path: Path):
    """Run a child to completion; return (wall s, exit code, rusage)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # wait4 reaped the child, so tell Popen it has ended.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def invoke(wl: Workload, ctx: dict, traced_spans: Path | None = None) -> Invocation:
    """One CLI run of the workload into a fresh output directory, gated."""
    out = ctx["work"] / "out"
    shutil.rmtree(out, ignore_errors=True)
    cli = [wl.command, "--config", str(ctx["config"]), "--out", str(out), *wl.cli_args]
    if traced_spans is None:
        argv = [sys.executable, "-m", "qid.cli", *cli]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(traced_spans), *cli]
    wall, code, usage = timed_process(argv, ctx["env"], ctx["root"], ctx["work"] / "stderr.txt")
    gate = check_run(out, wl.stems(), ctx["reference"], code)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        exit_code=code,
        gate=gate,
    )


def measure_setup(ctx: dict) -> list[float]:
    """Fresh interpreter to ``import qid`` plus config parse, several times."""
    times = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, "-c", SETUP_CODE, str(ctx["config"])]
        wall, code, _usage = timed_process(argv, ctx["env"], ctx["root"], ctx["work"] / "setup_stderr.txt")
        if code != 0:
            raise RuntimeError(f"set-up run exited with {code}: " + (ctx["work"] / "setup_stderr.txt").read_text())
        times.append(wall)
    return times


def closed_loop(wl: Workload, ctx: dict, seconds: float) -> list[Invocation]:
    """Run the CLI back to back for about ``seconds``, at least once.

    Another run starts while at least half of a typical run still fits,
    so the measured span averages ``seconds`` whatever a run's length.
    """
    runs: list[Invocation] = []
    start = time.perf_counter()
    while True:
        runs.append(invoke(wl, ctx))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in runs)
        if elapsed + typical / 2 > seconds:
            return runs


def blas_info() -> dict:
    import numpy as np

    info: dict = {"numpy": np.__version__}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info["blas"] = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        info["blas"] = None
    return info


def git_commit(root: Path) -> str | None:
    """Commit checked out in ``root``, read from ``.git`` alone; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((line.split()[0] for line in lines if line.endswith(" " + ref)), None)


def manifest(wl: Workload, seed: int, root: Path) -> dict:
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "workload": wl.name,
        "seed": seed,
        "command": wl.command,
        "cli_args": list(wl.cli_args),
        "config": wl.config,
        "python": platform.python_version(),
        **blas_info(),
        "numba": has_numba,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "blas_threads": PINNED_THREADS,
    }


def per_layer(wl: Workload, spans_path: Path, traced: Invocation, untraced: list[Invocation]) -> dict:
    s = summarize(json.loads(spans_path.read_text()))

    def self_s(*names):
        return sum((s[n]["self_s"] for n in names if n in s), 0.0)

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def counter(name, key):
        return s[name]["counters"].get(key, 0) if name in s else 0

    jobs = len(wl.attacks)
    states = counter("ProtocolInstance.from_channel", "states")
    base_wall = statistics.median(r.wall_s for r in untraced)
    values = {
        "kernels.jacobi_eigh_s": (self_s("jacobi_eigh"), "s"),
        "kernels.jacobi_eigh_calls": (calls("jacobi_eigh"), "count"),
        "operators.validate_state_s": (self_s("validate_state"), "s"),
        "operators.eig_per_state": (calls("jacobi_eigh") / states if states else 0.0, "ratio"),
        "operators.projector_check_s": (self_s("Projector.__post_init__"), "s"),
        "operators.tensor_s": (self_s("tensor"), "s"),
        "operators.operator_norm_calls": (calls("operator_norm"), "count"),
        "channels.vector_marginals_s": (self_s("vector_marginals"), "s"),
        "channels.kraus_products": (counter("vector_marginals", "kraus_products"), "count"),
        "channels.validate_channel_calls": (calls("validate_channel"), "count"),
        "attacks.make_attack_s": (self_s("make_attack"), "s"),
        "attacks.kraus_ops": (counter("make_attack", "kraus_ops"), "count"),
        "attacks.kraus_bytes": (counter("make_attack", "kraus_bytes"), "B"),
        "protocol.instance_s": (self_s("ProtocolInstance.from_channel"), "s"),
        "protocol.theta_matrix_calls": (calls("theta_matrix"), "count"),
        "protocol.theta_matrix_s": (self_s("theta_matrix"), "s"),
        "protocol.equivalence_check_s": (self_s("equivalence_check"), "s"),
        "distinguishability.support_projector_s": (self_s("support_projector"), "s"),
        "distinguishability.partition_s": (self_s("distinguishable_partition"), "s"),
        "distinguishability.classes": (counter("distinguishable_partition", "classes"), "count"),
        "complexity.catalogues_per_job": (calls("catalogues_for") / jobs, "ratio"),
        "complexity.expectation_check_s": (self_s("expectation_identity_check"), "s"),
        "complexity.dense_projector_s": (self_s("StructuredProjector.dense"), "s"),
        "tradeoff.verify_tradeoff_s": (self_s("verify_tradeoff"), "s"),
        "tradeoff.landau_pollak_s": (self_s("landau_pollak_check"), "s"),
        "tradeoff.shannon_s": (
            self_s("shannon_tradeoff_check", "outcome_distribution", "mutual_information"),
            "s",
        ),
        "cli.run_single_s": (self_s("run_single"), "s"),
        "cli.bytes_written": (traced.gate.bytes_written, "B"),
        "cli.artifacts_changed": (traced.gate.changed, "count"),
        "process.cpu_s": (traced.cpu_s, "s"),
        "process.trace_overhead": (traced.wall_s / base_wall, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def same_outputs(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qid" / "cli.py").is_file():
        print(f"no qid sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.seed)
    try:
        preflight(wl)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2

    work = root / WORK_DIR / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = context(root, work, wl, load_reference(wl.name))
    info = manifest(wl, args.seed, root)
    (work / "manifest.json").write_text(json.dumps(info, indent=2) + "\n")
    brief = {k: v for k, v in info.items() if k != "config"}
    print("manifest " + json.dumps(brief, sort_keys=True), file=sys.stderr)

    # Build: compile the package once so set-up times a warm bytecode cache.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src" / "qid")], check=True)
    try:
        setup = measure_setup(ctx)
        runs = closed_loop(wl, ctx, args.seconds)
        setup += measure_setup(ctx)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    gate = GateResult()
    for r in runs:
        gate.add(r.gate)
    correct = gate.failed == 0
    if args.trace:
        last_untraced = work / "out_untraced"
        if runs[-1].exit_code == 0:
            (work / "out").rename(last_untraced)
        spans = work / "spans.json"
        traced = invoke(wl, ctx, traced_spans=spans)
        gate.add(traced.gate)
        identical = (
            traced.exit_code == 0
            and last_untraced.is_dir()
            and same_outputs(work / "out", last_untraced)
        )
        if not identical:
            gate.problems.append("traced run wrote different artifacts than the untraced run")
        correct = gate.failed == 0 and identical
        metrics = per_layer(wl, spans, traced, runs) if traced.exit_code == 0 else {}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall_s for r in runs), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in runs), "unit": "MB"},
            "ok_frac": {"value": (gate.jobs - gate.failed) / gate.jobs, "unit": "fraction"},
        }
    print(
        f"{wl.name} seed={args.seed}: {len(runs)} CLI runs, wall "
        + " ".join(f"{r.wall_s:.3f}" for r in runs)
        + f" s; set-up median {statistics.median(setup):.3f} s over {len(setup)}",
        file=sys.stderr,
    )
    for problem in gate.problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": gate.jobs, "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
