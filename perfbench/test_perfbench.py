"""Tests of the benchmark itself: reduced-size workloads, the gate and the tracer.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from gate import artifact_names, check_run, load_reference, same_csv, same_json  # noqa: E402
from run import context, invoke  # noqa: E402
from tracer import summarize  # noqa: E402
from workloads import (  # noqa: E402
    KRAUS_PER_QUBIT,
    WORKLOADS,
    kraus_bytes,
    make_workload,
    preflight,
)


def small(name: str, seed: int = 0):
    return make_workload(name, seed, n=2, points=3)


def outputs(wl, out: Path) -> dict[str, str]:
    return {n: (out / n).read_text() for s in wl.stems() for n in artifact_names(s)}


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 7])
def test_reduced_workload_passes_gate(name, seed, tmp_path):
    wl = small(name, seed)
    ctx = context(ROOT, tmp_path, wl, {})
    first = invoke(wl, ctx)
    assert first.exit_code == 0
    assert first.gate.jobs == len(wl.attacks)
    assert first.gate.failed == 0, first.gate.problems
    ctx["reference"] = outputs(wl, tmp_path / "out")
    second = invoke(wl, ctx)
    assert second.gate.failed == 0
    assert second.gate.changed == 0


def test_traced_run_writes_identical_artifacts_and_counts(tmp_path):
    wl = small("scan_n2")
    ctx = context(ROOT, tmp_path, wl, {})
    plain = invoke(wl, ctx)
    reference = outputs(wl, tmp_path / "out")
    ctx["reference"] = reference
    spans = tmp_path / "spans.json"
    traced = invoke(wl, ctx, traced_spans=spans)
    assert plain.exit_code == traced.exit_code == 0
    assert outputs(wl, tmp_path / "out") == reference
    assert traced.gate.changed == 0
    s = summarize(json.loads(spans.read_text()))
    jobs = len(wl.attacks)
    states = s["ProtocolInstance.from_channel"]["counters"]["states"]
    assert states == jobs * 2 * 2**2
    assert s["theta_matrix"]["calls"] == 3 * jobs
    assert s["catalogues_for"]["calls"] == 2 * jobs
    assert s["jacobi_eigh"]["calls"] == 3 * states
    assert s["run_single"]["calls"] == jobs
    for entry in s.values():
        assert entry["self_s"] >= 0.0


def test_gate_flags_each_failure_kind(tmp_path):
    wl = small("kraus_n5")
    ctx = context(ROOT, tmp_path, wl, {})
    invoke(wl, ctx)
    out = tmp_path / "out"
    stems = wl.stems()
    reference = outputs(wl, out)
    report = out / f"report_{stems[0]}.json"
    data = json.loads(report.read_text())

    data["shannon"]["i_bz"] *= 1 + 1e-12  # within tolerance: changed, not failed
    report.write_text(json.dumps(data))
    res = check_run(out, stems, reference, 0)
    assert (res.failed, res.changed) == (0, 1)

    data["shannon"]["i_bz"] *= 1 + 1e-6
    report.write_text(json.dumps(data))
    assert check_run(out, stems, reference, 0).failed == 1

    data = json.loads(reference[report.name])
    data["all_hold"] = False
    report.write_text(json.dumps(data))
    assert check_run(out, stems, {}, 0).failed == 1

    report.write_text(reference[report.name])
    (out / f"grid_{stems[1]}.csv").unlink()
    assert check_run(out, stems, {}, 0).failed == 1

    assert check_run(out, stems, reference, 3).failed == len(stems)


def test_tolerant_comparisons_keep_discrete_fields_exact():
    assert same_json({"a": 1.0, "b": [1, True]}, {"a": 1.0 + 1e-12, "b": [1, True]})
    assert not same_json({"a": 1}, {"a": 1.0})
    assert not same_json({"a": True}, {"a": 1})
    assert same_json({"dev": 0.0}, {"dev": 1.1e-16})
    assert same_csv("l,bound\n1,2.5\n", "l,bound\n1,2.5000000000001\n")
    assert not same_csv("l,bound\n1,2.5\n", "l,bound\n2,2.5\n")
    assert not same_csv("kind\ntheta0.5\n", "kind\ntheta0.6\n")


def test_seed_draws_are_reproducible_and_seed_zero_is_default():
    for name in WORKLOADS:
        assert make_workload(name, 3) == make_workload(name, 3)
        assert make_workload(name, 3) != make_workload(name, 4)
        preflight(make_workload(name, 3))
    assert make_workload("kraus_n5", 0).attacks[0]["params"]["p"] == 0.5
    scan = make_workload("scan_n2", 0)
    assert len(scan.attacks) == 207 and scan.workers == 2
    thetas = [a["params"]["theta"] for a in scan.attacks if a["kind"] == "intercept_resend_angle"]
    assert thetas[0] == 0.0 and thetas[-1] == math.pi / 2


def test_reference_covers_every_seed_zero_job():
    for name in WORKLOADS:
        reference = load_reference(name)
        wl = make_workload(name, 0)
        assert set(reference) == {n for s in wl.stems() for n in artifact_names(s)}


def test_kraus_table_and_preflight_match_the_program():
    from qid.attacks import AttackSpec, make_attack, standard_attacks

    for spec in standard_attacks(2):
        channel = make_attack(AttackSpec(spec.kind, 2, dict(spec.params)))
        assert len(channel.kraus) == KRAUS_PER_QUBIT[spec.kind] ** 2
        assert sum(k.nbytes for k in channel.kraus) == kraus_bytes(spec.kind, 2)
    assert kraus_bytes("depolarize", 5) == 512 * 2**20
    too_big = make_workload("kraus_n5", 0, n=6)
    with pytest.raises(ValueError, match="budget"):
        preflight(too_big)


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_n2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
