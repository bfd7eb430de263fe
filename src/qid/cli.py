"""Command-line front end: the verifier's experiments and sweeps.

``simulate`` runs the full verification pipeline for the attacks in a
config file and ``sweep`` runs it over a grid of qubit counts.  Reports
are JSON, tables CSV; floats carry 12 significant digits and identical
configs produce byte identical outputs.  A run computes its jobs one at
a time, in config order; one forked child formats and writes their
artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from .attacks import ATTACKS, AttackSpec, product_attack
from .errors import CapacityError, ConfigError, QidError
from .protocol import DENSE_THETA_LIMIT, FAMILY_BASIS, ProtocolInstance, equivalence_check, theta_matrix
from .complexity import expectation_identity_check
from .tradeoff import catalogues_for, verify_tradeoff

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3


def _round12(value):
    """Report data with floats at ``_fmt``'s 12 digits, tuples as lists and records as dicts."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (int, str)) or value is None:  # most of a report
        return value
    if isinstance(value, dict):
        return {key: _round12(item) for key, item in value.items()}
    if hasattr(value, "_asdict"):  # a NamedTuple record, before its tuple branch
        return _round12(value._asdict())
    if isinstance(value, (list, tuple)):
        return [_round12(item) for item in value]
    return value


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv(header, rows) -> str:
    """CSV text of a header and rows, cells through ``_fmt``; labels and numbers need no quoting."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in (header, *rows))


class ExperimentConfig(NamedTuple):
    n: int
    attacks: list[AttackSpec]
    sweep_n: tuple[int, ...]


# Every accepted key; anything else is a typo and raises ConfigError.
CONFIG_KEYS = {"n", "attacks", "dense_limit", "sweep"}
SWEEP_KEYS = {"n_values"}
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


def _attack(entry: dict, n: int) -> AttackSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"an attack must be a JSON object, got {entry!r}")
    _reject_unknown(entry, ATTACK_KEYS, "attack")
    return AttackSpec(kind=str(entry["kind"]), n=n, params=entry.get("params", {}))


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(data, CONFIG_KEYS, "config")
    sweep = data.get("sweep", {})
    if not isinstance(sweep, dict):
        raise ConfigError("'sweep' must be a JSON object")
    _reject_unknown(sweep, SWEEP_KEYS, "sweep")
    try:
        n = _integer(data["n"], "n", 1)
        raw_attacks = data["attacks"]
        if not isinstance(raw_attacks, list) or not raw_attacks:
            raise ConfigError("config needs a nonempty 'attacks' list")
        attacks = [_attack(a, n) for a in raw_attacks]
        sweep_n = tuple(_integer(v, "n_values", 1) for v in sweep.get("n_values", []))
        if len(set(sweep_n)) != len(sweep_n):
            raise ConfigError(f"'n_values' repeats a value: {list(sweep_n)}")
        # The benchmark's configs still name the dense limit, so its one value is accepted.
        dense_limit = _integer(data.get("dense_limit", DENSE_THETA_LIMIT), "dense_limit")
        if dense_limit != DENSE_THETA_LIMIT:
            raise ConfigError(f"'dense_limit' is fixed at {DENSE_THETA_LIMIT}, got {dense_limit}")
        cfg = ExperimentConfig(n=n, attacks=attacks, sweep_n=sweep_n)
    except (KeyError, TypeError, ValueError, QidError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    # A label does not depend on n, so equal labels collide at every swept n.
    labels = [spec.label() for spec in cfg.attacks]
    shared = sorted({label for label in labels if labels.count(label) > 1})
    if shared:
        raise ConfigError(f"attacks share artifact names: {', '.join(shared)}")
    return cfg


def run_single(n: int, spec: AttackSpec) -> dict:
    """Run one (n, attack) experiment and return its report; write nothing.

    The report is the mapping the job's JSON artifact is dumped from: the
    ``TradeoffReport`` fields with each profile as its lengths, the attack,
    the dense equivalence and expectation checks when they run, and
    ``all_hold``, every verdict among them.
    """
    spec = AttackSpec(kind=spec.kind, n=n, params=dict(spec.params))
    inst = ProtocolInstance.from_channel(product_attack(spec))
    result = verify_tradeoff(inst, ATTACKS[spec.kind].eve_basis)
    report = dict(
        result._asdict(),
        attack={"kind": spec.kind, "params": dict(spec.params)},
        profile_b=result.profile_b.lengths,
        profile_e=result.profile_e.lengths,
        # The stored references hold both; roadmap item 1's regeneration drops them.
        seed=0,
        c_offset=0,
    )
    ok = result.all_hold
    if inst.dense:
        report["equivalence"] = eq = equivalence_check(inst)
        theta = theta_matrix(inst)
        sides = [expectation_identity_check(inst, cat, theta) for cat in catalogues_for(inst)]
        report["expectation"] = expectation = [chk for side in sides for chk in side]
        ok = ok and eq.passed and all(chk.agree for chk in expectation)
    report["all_hold"] = ok
    return report


def _csv_views(label: str, data: dict) -> dict[str, str]:
    """The grid, plot and complexity CSVs of one job by file name, from its rounded report alone.

    ``data`` is the report as its JSON file holds it, parsed or not, so
    every field is read by name.  The plot's counts are the grid's.
    """
    n, grid = data["n"], data["grid"]
    cells = ("l", "m", "count_b", "count_e", "bound", "holds")
    plot = [("count_B", l, "", count) for l, count in {g["l"]: g["count_b"] for g in grid}.items()]
    plot += [("count_E", "", m, count) for m, count in {g["m"]: g["count_e"] for g in grid}.items()]
    plot += [("bound", g["l"], g["m"], g["bound"]) for g in grid]
    profiles = [
        (format(msg, f"0{n}b"), side, basis, length)
        for side, basis in FAMILY_BASIS.items()
        for msg, length in enumerate(data[f"profile_{side.lower()}"])
    ]
    header = ("n", "attack", "l", "m", "count_B", "count_E", "bound", "holds")
    return {
        f"grid_{label}_n{n}.csv": _csv(header, [(n, label, *(g[k] for k in cells)) for g in grid]),
        f"plot_{label}_n{n}.csv": _csv(("series", "l", "m", "value"), plot),
        f"complexity_{label}_n{n}.csv": _csv(("message_bits", "side", "basis", "length"), profiles),
    }


@contextmanager
def _artifact_writer(out_dir: Path):
    """Fork the child that formats and writes the artifacts; yield the send function.

    Each job's ``(label, report)`` goes down a pipe in the order sent.
    The child rounds the report once, dumps it as the JSON artifact and
    writes the report's ``_csv_views`` beside it, while the next job runs
    on a second core: writing in-process made ``scan_n2`` 30 % slower
    (0.887 to 1.158 s, 2 cores).  The child makes ``out_dir`` with the
    first report, so a run that sends none leaves no directory.  Leaving the
    block closes the pipe and reaps the child; a child that failed (it
    prints its traceback) fails the run, also when sending found the
    pipe broken.
    """
    if sys.stderr is not None:  # None when fd 2 was closed at start
        sys.stderr.flush()  # or the child's traceback would repeat what is buffered
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child leaves through os._exit, so no caller's finally or atexit
        # hook runs twice and no inherited stdout buffer is flushed.
        status = 1
        try:
            os.close(write_fd)  # else the pipe never reaches EOF
            with os.fdopen(read_fd, "rb") as reader:
                while True:
                    try:
                        label, report = pickle.load(reader)
                    except EOFError:
                        break
                    data = _round12(report)
                    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
                    files = {f"report_{label}_n{data['n']}.json": text, **_csv_views(label, data)}
                    out_dir.mkdir(parents=True, exist_ok=True)
                    for name, body in files.items():
                        (out_dir / name).write_text(body)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            if sys.stderr is not None:
                sys.stderr.flush()
            os._exit(status)
    os.close(read_fd)
    pipe = os.fdopen(write_fd, "wb")

    def send(label: str, report: dict) -> None:
        pickle.dump((label, report), pipe, pickle.HIGHEST_PROTOCOL)
        pipe.flush()

    try:
        yield send
    finally:
        try:
            pipe.close()
        except BrokenPipeError:
            pass  # the child is gone; its status says why
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            raise QidError(f"the artifact writer failed with exit status {status}")


def _config_and_out(args) -> tuple[ExperimentConfig, Path]:
    """The config and the output directory, refused at once if its path cannot be one."""
    cfg = load_config(args.config)
    out_dir = Path(args.out)
    for path in (out_dir, *out_dir.parents):
        try:
            path.stat()
        except (FileNotFoundError, NotADirectoryError):
            continue  # look for the nearest existing ancestor
        except OSError as exc:  # a name too long, a loop of links, no access
            raise ConfigError(f"output directory {out_dir}: {exc}") from exc
        if not path.is_dir():
            raise ConfigError(f"output directory {out_dir}: {path} is not a directory")
        break
    return cfg, out_dir


def _run(out_dir: Path, jobs: list) -> int:
    """Run the (n, attack) jobs one at a time, in order; the writer writes their reports.

    A failed job stops the run: exactly the earlier jobs keep their
    files, and no later job starts.
    """
    all_ok = True
    with _artifact_writer(out_dir) as send:
        for n, spec in jobs:
            report = run_single(n, spec)
            send(spec.label(), report)
            all_ok = report["all_hold"] and all_ok
    return EXIT_OK if all_ok else EXIT_VIOLATION


def cmd_simulate(args) -> int:
    cfg, out_dir = _config_and_out(args)
    return _run(out_dir, [(cfg.n, spec) for spec in cfg.attacks])


def cmd_sweep(args) -> int:
    cfg, out_dir = _config_and_out(args)
    return _run(out_dir, [(n, spec) for n in cfg.sweep_n or (cfg.n,) for spec in cfg.attacks])


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
    sim.add_argument("--out", type=_out_dir, default="qid-out")
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="run a grid over n values and attacks")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", type=_out_dir, default="qid-out")
    # Jobs run one at a time; the benchmark's scan_n2 still passes --workers 2.
    sweep.add_argument(
        "--workers", type=_positive_int, help="changes nothing; goes once the benchmark stops passing it"
    )
    sweep.set_defaults(func=cmd_sweep)
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
    """Run ``main`` and leave by ``os._exit`` once stdout and stderr, where open, are flushed.

    The writer is reaped by then, so only the interpreter's teardown (where
    most of the fork's copy-on-write faults landed) and atexit hooks are
    skipped; a failed flush or an exception from ``main`` exits normally.
    """
    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None when its fd was closed at start
            stream.flush()
    except (OSError, ValueError):
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
