"""Command-line front end: experiments, sweeps, and standalone checks.

Subcommands mirror the library structure: ``simulate`` runs the full
verification pipeline for the attacks in a config file, ``sweep`` runs
a grid over qubit counts and ``check-lp`` evaluates the uncertainty
relation on serialized operators.  Reports are JSON, tables CSV; floats
carry 12 significant digits and identical configs produce byte
identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, is_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .attacks import AttackSpec, natural_bases, product_attack
from .channels import matrix_from_pairs
from .errors import CapacityError, ConfigError, DimensionError, QidError
from .operators import DECISION_TOL, Projector, validate_state
from .protocol import DENSE_THETA_LIMIT, ProtocolInstance, equivalence_check, theta_matrix
from .complexity import expectation_identity_check
from .tradeoff import catalogues_for, landau_pollak_check, tradeoff_bound, verify_tradeoff

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3


# json's spelling of the non-finite floats, keyed by their ``repr``.
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _float_json(value) -> str:
    """A float at ``_fmt``'s 12 significant digits, spelled as ``json`` spells it."""
    text = repr(float(f"{value:.12g}"))
    return _NON_FINITE.get(text, text)


def _report_json(value, indent: str = "") -> str:
    """Report text: ``json.dumps(data, sort_keys=True, indent=2)`` of the 12-digit data.

    Every float is rounded to ``_fmt``'s 12 significant digits first, a
    tuple is a list and a report record (a dataclass) is the dict of its
    fields.  Dict keys are strings.  ``indent`` is the indent of the
    line ``value`` starts on.
    """
    # Exact types first, then records: a report holds thousands of plain values.
    kind = type(value)
    if kind is float:
        return _float_json(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if kind is dict:
        return _object_json(value, indent)
    if kind is list or kind is tuple:
        return _array_json(value, indent)
    if is_dataclass(value):
        return _object_json(vars(value), indent)
    if isinstance(value, float):
        return _float_json(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        return _object_json(value, indent)
    if isinstance(value, (list, tuple)):
        return _array_json(value, indent)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _object_json(data: dict, indent: str) -> str:
    if not data:
        return "{}"
    inner = indent + "  "
    items = [
        encode_basestring_ascii(key) + ": " + _report_json(value, inner)
        for key, value in sorted(data.items())
    ]
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"


def _array_json(items, indent: str) -> str:
    if not items:
        return "[]"
    inner = indent + "  "
    texts = [_report_json(value, inner) for value in items]
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv(header, rows) -> str:
    """CSV text of a header and rows, every cell through ``_fmt``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


@dataclass
class ExperimentConfig:
    n: int
    attacks: list[AttackSpec]
    c_offset: int
    dense_limit: int
    seed: int
    decision_tol: float
    sweep_n: tuple[int, ...]
    out_dir: str


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


def _decision_tol(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value < 1.0:
        raise ConfigError(f"tolerance 'decision' must be a number in (0, 1), got {value!r}")
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
            c_offset=_integer(data.get("c_offset", 0), "c_offset", 0),
            dense_limit=_integer(data.get("dense_limit", DENSE_THETA_LIMIT), "dense_limit"),
            seed=_integer(data.get("seed", 0), "seed"),
            decision_tol=_decision_tol(data.get("tolerances", {}).get("decision", DECISION_TOL)),
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
    # An n whose bound overflows even at c_offset = 0 is far past the
    # capacity limits, which refuse it (exit 3); only c_offset is at fault here.
    for n in {cfg.n, *cfg.sweep_n}:
        if _finite_bound(n, 0) and not _finite_bound(n, cfg.c_offset):
            raise ConfigError(f"'c_offset' {cfg.c_offset} overflows the counting bound at n = {n}")
    return cfg


def _finite_bound(n: int, c_offset: int) -> bool:
    """Whether the largest counting bound at n, at l = m = n + 1, is a finite float."""
    try:
        return math.isfinite(tradeoff_bound(n + 1, n + 1, n, c_offset))
    except OverflowError:
        return False


def run_single(cfg: ExperimentConfig, n: int, spec: AttackSpec, out_dir: Path) -> bool:
    """Run one (n, attack) experiment, write artifacts, return all-hold.

    The report's ``all_hold`` is the returned value: every verdict of the
    trade-off report and, when the dense checks run, of the equivalence
    and expectation checks.
    """
    spec = AttackSpec(kind=spec.kind, n=n, params=dict(spec.params))
    inst = ProtocolInstance.from_channel(product_attack(spec))
    dense = n <= cfg.dense_limit
    report = verify_tradeoff(inst, natural_bases(spec), cfg.c_offset, cfg.decision_tol, dense)
    prof_b, prof_e = report.profile_b, report.profile_e
    data = dict(
        vars(report),
        attack={"kind": spec.kind, "params": dict(spec.params)},
        profile_b=prof_b.lengths,
        profile_e=prof_e.lengths,
        seed=cfg.seed,
    )
    ok = report.all_hold
    if dense:
        data["equivalence"] = eq = equivalence_check(inst)
        theta = theta_matrix(inst)
        data["expectation"] = expectation = [
            chk
            for cat in catalogues_for(inst, cfg.decision_tol)
            for chk in expectation_identity_check(inst, cat, theta)
        ]
        ok = ok and eq.passed and all(chk.agree for chk in expectation)
    data["all_hold"] = ok
    label = spec.label()
    # A grid row is n, the attack label and one GridPoint's fields in order.
    grid = [(n, label, *vars(g).values()) for g in report.grid]
    plot = [("count_B", l, "", prof_b.count(l)) for l in range(n + 2)]
    plot += [("count_E", "", m, prof_e.count(m)) for m in range(n + 2)]
    plot += [("bound", g.l, g.m, g.bound) for g in report.grid]
    stem = f"{label}_n{n}"
    artifacts = {
        f"report_{stem}.json": _report_json(data) + "\n",
        f"grid_{stem}.csv": _csv(
            ("n", "attack", "l", "m", "count_B", "count_E", "bound", "holds"), grid
        ),
        f"plot_{stem}.csv": _csv(("series", "l", "m", "value"), plot),
        f"complexity_{stem}.csv": _csv(
            ("message_bits", "side", "basis", "length"),
            prof_b.to_csv_rows() + prof_e.to_csv_rows(),
        ),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        (out_dir / name).write_text(text)
    return ok


def _config_and_out(args) -> tuple[ExperimentConfig, Path]:
    """The config and the output directory, refused at once if a file stands in its path.

    The first job that writes makes the directory, so a refused run leaves none.
    """
    cfg = load_config(args.config)
    out_dir = Path(args.out or cfg.out_dir)
    existing = next((p for p in (out_dir, *out_dir.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"output directory {out_dir}: {existing} is not a directory")
    return cfg, out_dir


def cmd_simulate(args) -> int:
    cfg, out_dir = _config_and_out(args)
    all_ok = True
    for spec in cfg.attacks:
        all_ok = run_single(cfg, cfg.n, spec, out_dir) and all_ok
    return EXIT_OK if all_ok else EXIT_VIOLATION


def cmd_sweep(args) -> int:
    cfg, out_dir = _config_and_out(args)
    jobs = [(n, spec) for n in cfg.sweep_n or (cfg.n,) for spec in cfg.attacks]
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        results = list(
            pool.map(lambda job: run_single(cfg, job[0], job[1], out_dir), jobs)
        )
    return EXIT_OK if all(results) else EXIT_VIOLATION


def _load_operators(path: str | Path, key: str, check) -> list:
    """Every matrix of a ``check-lp`` file, each at least 2 x 2 and passed to ``check``.

    ``check`` is ``Projector`` or ``validate_state``.  The file holds
    ``{key: matrices}`` or the bare matrices, where ``matrices`` is one
    matrix or a list of them.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if isinstance(data, dict):
        if key not in data:
            raise ConfigError(f"{path} holds no {key!r}")
        data = data[key]
    if not isinstance(data, list):
        raise ConfigError(f"{path}: expected a list")
    try:
        grids = data if data and isinstance(data[0][0][0], list) else [data]
        mats = [matrix_from_pairs(g) for g in grids]
        for m in mats:
            if len(m) < 2:
                raise DimensionError(f"matrices must be at least 2 x 2, got shape {m.shape}")
            check(m)
    except (QidError, TypeError, IndexError) as exc:
        raise ConfigError(f"{path}: bad {key}: {exc}") from exc
    return mats


def cmd_check_lp(args) -> int:
    family = _load_operators(args.family, "projectors", Projector)
    states = _load_operators(args.state, "matrix", validate_state)
    if len(states) != 1:
        raise ConfigError(f"{args.state} holds {len(states)} matrices, not one state")
    state = states[0]
    if any(p.shape != state.shape for p in family):
        dims = sorted({len(p) for p in family})
        raise ConfigError(f"family dimensions {dims} differ from the state's {len(state)}")
    lp = landau_pollak_check(family, state)
    print(f"lhs = {_fmt(lp.lhs)}")
    print(f"rhs = {_fmt(lp.rhs)}")
    print(f"holds = {_fmt(lp.holds)}")
    return EXIT_OK if lp.holds else EXIT_VIOLATION


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _out_dir(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qid",
        description="Toy QKD information-disturbance trade-off verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the configured attacks at one n")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", type=_out_dir)
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="run a grid over n values and attacks")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", type=_out_dir)
    sweep.add_argument("--workers", type=_positive_int, default=4)
    sweep.set_defaults(func=cmd_sweep)

    lp = sub.add_parser("check-lp", help="Landau-Pollak check on serialized operators")
    lp.add_argument("--family", required=True)
    lp.add_argument("--state", required=True)
    lp.set_defaults(func=cmd_check_lp)
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
