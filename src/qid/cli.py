"""Command-line front end: experiments, sweeps, and standalone checks.

Subcommands mirror the library structure: ``simulate`` runs the full
verification pipeline for the attacks in a config file, ``sweep`` runs
a grid over qubit counts, ``check-lp`` evaluates the uncertainty
relation on serialized operators and ``overlap`` tabulates the
conjugate-basis overlap norms.  Reports are JSON, tables CSV; floats
carry 12 significant digits and identical configs produce byte
identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .attacks import AttackSpec, product_attack
from .channels import matrix_from_pairs
from .errors import CapacityError, ConfigError, QidError
from .operators import DECISION_TOL, OVERLAP_TOL, DensityOperator, Projector
from .protocol import DENSE_THETA_LIMIT, ProtocolInstance, equivalence_check, theta_matrix
from .complexity import expectation_identity_check
from .tradeoff import (
    TradeoffReport,
    catalogues_for,
    conjugate_overlap_norm,
    landau_pollak_check,
    verify_tradeoff,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3


def _round12(value):
    """Normalize floats to 12 significant digits for stable serialization."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    raise TypeError(f"cannot serialize {type(value)!r}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@dataclass
class Tolerances:
    decision: float = DECISION_TOL


@dataclass
class ExperimentConfig:
    n: int
    attacks: list[AttackSpec]
    c_offset: int = 0
    dense_limit: int = DENSE_THETA_LIMIT
    seed: int = 0
    tolerances: Tolerances = field(default_factory=Tolerances)
    sweep_n: tuple[int, ...] = ()
    out_dir: str = "qid-out"


# Every accepted key; anything else is a typo and raises ConfigError.
CONFIG_KEYS = {
    "n", "attacks", "c_offset", "dense_limit", "seed", "tolerances", "sweep", "outputs",
}
SECTION_KEYS = {
    "tolerances": {"decision"},
    "sweep": {"n_values"},
    "outputs": {"dir"},
}
ATTACK_KEYS = {"kind", "params"}


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


def _integer(value, key: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{key}' must be an integer (not a float or bool), got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"'{key}' must be >= {minimum}, got {value}")
    return value


def _tolerance(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value < 1.0:
        raise ConfigError(f"tolerance '{key}' must be a number in (0, 1), got {value!r}")
    return float(value)


def _attack(entry: dict, n: int) -> AttackSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"an attack must be a JSON object, got {entry!r}")
    _reject_unknown(entry, ATTACK_KEYS, "attack")
    return AttackSpec(kind=str(entry["kind"]), n=n, params=_params(entry.get("params", {})))


def _params(value) -> dict[str, float]:
    if not isinstance(value, dict):
        raise ConfigError(f"attack 'params' must be a JSON object, got {value!r}")
    for key, v in value.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"attack parameter '{key}' must be a real number, got {v!r}")
    return {k: float(v) for k, v in value.items()}


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(data, CONFIG_KEYS, "config")
    for section, allowed in SECTION_KEYS.items():
        sub = data.get(section, {})
        if not isinstance(sub, dict):
            raise ConfigError(f"'{section}' must be a JSON object")
        _reject_unknown(sub, allowed, section)
    try:
        n = _integer(data["n"], "n", 1)
        raw_attacks = data["attacks"]
        if not isinstance(raw_attacks, list) or not raw_attacks:
            raise ConfigError("config needs a nonempty 'attacks' list")
        attacks = [_attack(a, n) for a in raw_attacks]
        tol_data = data.get("tolerances", {})
        tols = Tolerances(decision=_tolerance(tol_data.get("decision", DECISION_TOL), "decision"))
        sweep = data.get("sweep", {})
        sweep_n = tuple(_integer(v, "n_values", 1) for v in sweep.get("n_values", []))
        if len(set(sweep_n)) != len(sweep_n):
            raise ConfigError(f"'n_values' repeats a value: {list(sweep_n)}")
        out_dir = data.get("outputs", {}).get("dir", "qid-out")
        if not isinstance(out_dir, str) or not out_dir:
            raise ConfigError(f"'outputs.dir' must be a non-empty string, got {out_dir!r}")
        cfg = ExperimentConfig(
            n=n,
            attacks=attacks,
            c_offset=_integer(data.get("c_offset", 0), "c_offset"),
            dense_limit=_integer(data.get("dense_limit", DENSE_THETA_LIMIT), "dense_limit"),
            seed=_integer(data.get("seed", 0), "seed"),
            tolerances=tols,
            sweep_n=sweep_n,
            out_dir=out_dir,
        )
    except (KeyError, TypeError, ValueError, QidError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    # A label does not depend on n, so equal labels collide at every swept n.
    labels = [spec.label() for spec in cfg.attacks]
    shared = sorted({label for label in labels if labels.count(label) > 1})
    if shared:
        raise ConfigError(f"attacks share artifact names: {', '.join(shared)}")
    return cfg


def _report_dict(report: TradeoffReport, cfg: ExperimentConfig, extras: dict) -> dict:
    data = {
        "n": report.n,
        "attack": {"kind": report.attack.kind, "params": dict(report.attack.params)},
        "c_offset": report.c_offset,
        "seed": cfg.seed,
        "profile_b": list(report.profile_b.lengths),
        "profile_e": list(report.profile_e.lengths),
        "grid": [
            {
                "l": g.l,
                "m": g.m,
                "count_b": g.count_b,
                "count_e": g.count_e,
                "bound": g.bound,
                "holds": g.holds,
            }
            for g in report.grid
        ],
        "lp_records": [
            {"l": r.l, "m": r.m, "lhs": r.lhs, "rhs": r.rhs, "holds": r.holds}
            for r in report.lp_records
        ],
        "cross_norms": [
            {
                "entry_b": r.entry_b,
                "entry_e": r.entry_e,
                "norm": r.norm,
                "limit": r.limit,
                "holds": r.holds,
            }
            for r in report.cross_norms
        ],
        "corollary1": {
            "max_b": report.corollary1.max_b,
            "max_e": report.corollary1.max_e,
            "sum": report.corollary1.total,
            "threshold": report.corollary1.threshold,
            "holds": report.corollary1.holds,
        },
        "shannon": {
            "i_bz": report.shannon.i_bz,
            "i_ex": report.shannon.i_ex,
            "sum": report.shannon.total,
            "limit": report.shannon.limit,
            "holds": report.shannon.holds,
        },
        "average": {
            "avg_sum": report.average.avg_sum,
            "reference": report.average.reference,
        },
        "all_hold": report.all_hold,
    }
    data.update(extras)
    return data


def _grid_csv(report: TradeoffReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "attack", "l", "m", "count_B", "count_E", "bound", "holds"])
    for g in report.grid:
        writer.writerow(
            [
                report.n,
                report.attack.label(),
                g.l,
                g.m,
                g.count_b,
                g.count_e,
                _fmt(g.bound),
                _fmt(g.holds),
            ]
        )
    return buf.getvalue()


def _plot_csv(report: TradeoffReport) -> str:
    """Columnar plot data: count_B(l), count_E(m) and the bound surface."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "l", "m", "value"])
    for l in range(report.n + 2):
        writer.writerow(["count_B", l, "", report.profile_b.count(l)])
    for m in range(report.n + 2):
        writer.writerow(["count_E", "", m, report.profile_e.count(m)])
    for g in report.grid:
        writer.writerow(["bound", g.l, g.m, _fmt(g.bound)])
    return buf.getvalue()


def _profile_csv(report: TradeoffReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["message_bits", "side", "basis", "length"])
    for row in report.profile_b.to_csv_rows() + report.profile_e.to_csv_rows():
        writer.writerow(row)
    return buf.getvalue()


def run_single(cfg: ExperimentConfig, n: int, spec: AttackSpec, out_dir: Path) -> bool:
    """Run one (n, attack) experiment, write artifacts, return all-hold."""
    spec = AttackSpec(kind=spec.kind, n=n, params=dict(spec.params))
    inst = ProtocolInstance.from_channel(product_attack(spec))
    dense = n <= cfg.dense_limit
    report = verify_tradeoff(
        inst,
        spec,
        c_offset=cfg.c_offset,
        decision_tol=cfg.tolerances.decision,
        dense=dense,
    )
    extras: dict = {}
    ok = report.all_hold
    if dense:
        eq = equivalence_check(inst)
        extras["equivalence"] = {
            "max_probability_deviation": eq.max_probability_deviation,
            "max_state_deviation": eq.max_state_deviation,
            "passed": eq.passed,
        }
        theta = theta_matrix(inst)
        cat_b, cat_e = catalogues_for(inst, cfg.tolerances.decision)
        expectation = []
        for cat in (cat_b, cat_e):
            for l in range(n + 2):
                chk = expectation_identity_check(inst, cat, l, theta=theta)
                expectation.append(dict(vars(chk), side=cat.side, agree=chk.agree))
        extras["expectation"] = expectation
        ok = ok and eq.passed and all(e["agree"] for e in expectation)
    stem = f"{spec.label()}_n{n}"
    out_dir.mkdir(parents=True, exist_ok=True)
    report_json = json.dumps(
        _round12(_report_dict(report, cfg, extras)), sort_keys=True, indent=2
    )
    (out_dir / f"report_{stem}.json").write_text(report_json + "\n")
    (out_dir / f"grid_{stem}.csv").write_text(_grid_csv(report))
    (out_dir / f"plot_{stem}.csv").write_text(_plot_csv(report))
    (out_dir / f"complexity_{stem}.csv").write_text(_profile_csv(report))
    return ok


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out or cfg.out_dir)
    all_ok = True
    for spec in cfg.attacks:
        all_ok = run_single(cfg, cfg.n, spec, out_dir) and all_ok
    return EXIT_OK if all_ok else EXIT_VIOLATION


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    n_values = cfg.sweep_n or (cfg.n,)
    out_dir = Path(args.out or cfg.out_dir)
    jobs = [(n, spec) for n in n_values for spec in cfg.attacks]
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        results = list(
            pool.map(lambda job: run_single(cfg, job[0], job[1], out_dir), jobs)
        )
    return EXIT_OK if all(results) else EXIT_VIOLATION


def _load_operators(path: str | Path, key: str, kind: type) -> list:
    """Every matrix of a ``check-lp`` file, as ``kind`` (``Projector`` or ``DensityOperator``)."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if isinstance(data, dict):
        data = data[key] if key in data else data.get("matrix")
    if data is None:
        raise ConfigError(f"{path} holds no {key!r}")
    if not isinstance(data, list):
        raise ConfigError(f"{path}: expected a list")
    try:
        grids = data if data and isinstance(data[0][0][0], list) else [data]
        return [kind(m, m.shape[:1]) for m in map(matrix_from_pairs, grids)]
    except (QidError, TypeError, IndexError) as exc:
        raise ConfigError(f"{path}: bad {kind.__name__}: {exc}") from exc


def cmd_check_lp(args) -> int:
    family = _load_operators(args.family, "projectors", Projector)
    state = _load_operators(args.state, "matrix", DensityOperator)[0]
    if any(p.dim != state.dim for p in family):
        dims = sorted({p.dim for p in family})
        raise ConfigError(f"family dimensions {dims} differ from the state's {state.dim}")
    lp = landau_pollak_check([p.mat for p in family], state.mat)
    print(f"lhs = {_fmt(lp.lhs)}")
    print(f"rhs = {_fmt(lp.rhs)}")
    print(f"holds = {_fmt(lp.holds)}")
    return EXIT_OK if lp.holds else EXIT_VIOLATION


def cmd_overlap(args) -> int:
    n = args.n
    if 2**n > 64:
        raise CapacityError("overlap table supports 1 <= n <= 6")
    expected = 2.0**-n
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["x", "z", "norm", "expected", "abs_error"])
    worst = 0.0
    for x in range(2**n):
        for z in range(2**n):
            norm = conjugate_overlap_norm(x, z, n)
            err = abs(norm - expected)
            worst = max(worst, err)
            writer.writerow(
                [
                    format(x, f"0{n}b"),
                    format(z, f"0{n}b"),
                    _fmt(norm),
                    _fmt(expected),
                    _fmt(err),
                ]
            )
    return EXIT_OK if worst <= OVERLAP_TOL else EXIT_VIOLATION


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qid",
        description="Toy QKD information-disturbance trade-off verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the configured attacks at one n")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="run a grid over n values and attacks")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--workers", type=_positive_int, default=4)
    sweep.set_defaults(func=cmd_sweep)

    lp = sub.add_parser("check-lp", help="Landau-Pollak check on serialized operators")
    lp.add_argument("--family", required=True)
    lp.add_argument("--state", required=True)
    lp.set_defaults(func=cmd_check_lp)

    ov = sub.add_parser("overlap", help="conjugate-basis overlap norm table")
    ov.add_argument("--n", type=_positive_int, required=True)
    ov.set_defaults(func=cmd_overlap)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except QidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
