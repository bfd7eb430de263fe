"""Workload definitions: the qid configs a seed generates, and a memory preflight.

Each workload is one `qid` CLI command on a config drawn from the seed.
Seed 0 gives the default parameters, for which reference outputs are
stored under ``perfbench/reference/``.  Only the tunable attack
parameters depend on the seed; the attack kinds, N and the command do
not.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("kraus_n5", "scan_n2")

# Kraus operators per qubit for each attack kind; an N-qubit attack is
# the N-fold tensor power, so it carries (per-qubit count)^N operators.
KRAUS_PER_QUBIT = {
    "identity": 1,
    "measure_z": 2,
    "measure_x": 2,
    "cnot_probe": 1,
    "universal_cloner": 2,
    "depolarize": 4,
    "intercept_resend_angle": 2,
}

# The program builds every Kraus operator before it checks any size
# limit, so the benchmark refuses a job set whose concurrently computed
# Kraus bytes exceed this budget.  The largest workload job (depolarize
# at N = 5) computes 512 MiB and peaks at about 1.1 GB RSS; 1 GiB keeps
# the peak well inside a 2-core, 7.6 GB machine.
KRAUS_BUDGET_BYTES = 1 << 30

FIXED_N2 = ("identity", "measure_z", "measure_x", "cnot_probe", "universal_cloner")
SCAN_POINTS = 101


@dataclass(frozen=True)
class Workload:
    """One CLI invocation: subcommand, config body and sweep worker count."""

    name: str
    command: str
    config: dict
    workers: int = 1

    @property
    def n(self) -> int:
        return self.config["n"]

    @property
    def attacks(self) -> list[dict]:
        return self.config["attacks"]

    @property
    def cli_args(self) -> tuple[str, ...]:
        return ("--workers", str(self.workers)) if self.command == "sweep" else ()

    def stems(self) -> list[str]:
        """Artifact stems, one per job, as the CLI names them."""
        return [f"{attack_label(a)}_n{self.n}" for a in self.attacks]


def attack_label(attack: dict) -> str:
    """Same slug as ``AttackSpec.label`` (kept here so no qid import is needed)."""
    params = attack.get("params", {})
    extra = "".join(f"_{k}{float(v):g}" for k, v in sorted(params.items()))
    return f"{attack['kind']}{extra}"


def _config(n: int, attacks: list[dict]) -> dict:
    return {"n": n, "attacks": attacks, "dense_limit": 2}


def make_workload(name: str, seed: int, n: int | None = None, points: int = SCAN_POINTS) -> Workload:
    """Build a workload from its seed; ``n`` and ``points`` shrink it for tests."""
    rng = random.Random(seed)
    if name == "kraus_n5":
        p = rng.randrange(1, 10_000) / 10_000 if seed else 0.5
        attacks = [
            {"kind": "depolarize", "params": {"p": p}},
            {"kind": "measure_z"},
            {"kind": "measure_x"},
            {"kind": "identity"},
            {"kind": "cnot_probe"},
        ]
        return Workload(name, "simulate", _config(n or 5, attacks))
    if name == "scan_n2":
        if seed:
            thetas = sorted(k / 10_000 * (math.pi / 2) for k in rng.sample(range(1, 10_000), points))
            ps = sorted(k / 10_000 for k in rng.sample(range(1, 10_000), points))
        else:
            thetas = [i / (points - 1) * (math.pi / 2) for i in range(points)]
            ps = [i / (points - 1) for i in range(points)]
        attacks = [{"kind": k} for k in FIXED_N2]
        attacks += [{"kind": "intercept_resend_angle", "params": {"theta": t}} for t in thetas]
        attacks += [{"kind": "depolarize", "params": {"p": p}} for p in ps]
        return Workload(name, "sweep", _config(n or 2, attacks), workers=2)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def kraus_bytes(kind: str, n: int) -> int:
    """Bytes of the complex128 Kraus set ``make_attack`` computes for one job."""
    count = KRAUS_PER_QUBIT[kind] ** n
    return count * (4**n) * (2**n) * 16


def preflight(wl: Workload, budget: int = KRAUS_BUDGET_BYTES) -> int:
    """Largest Kraus bytes live at once; raises ValueError past the budget.

    With K workers the K largest jobs may build their Kraus sets at the
    same time, so their sum is what must fit.
    """
    sizes = sorted((kraus_bytes(a["kind"], wl.n) for a in wl.attacks), reverse=True)
    peak = sum(sizes[: wl.workers])
    if peak > budget:
        raise ValueError(
            f"{wl.name}: Kraus sets need {peak / 2**20:.0f} MiB at once, "
            f"over the {budget / 2**20:.0f} MiB budget"
        )
    if len(set(wl.stems())) != len(wl.stems()):
        raise ValueError(f"{wl.name}: two jobs share an artifact name")
    return peak
