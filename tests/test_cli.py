import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import qid.cli as cli
from qid.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VIOLATION,
    load_config,
    main,
)
from qid.errors import CapacityError, ConfigError, QidError
from qid.protocol import EquivalenceReport
from qid.tradeoff import CrossNormRecord

from helpers import pairs

# The four artifacts of two simulate jobs (see TestReportSchema).
SCHEMA_DIR = Path(__file__).resolve().parent / "report_schema"

# The seven library attacks with the parameters of ``standard_attacks``.
ALL_ATTACKS = [
    {"kind": "identity"},
    {"kind": "measure_z"},
    {"kind": "measure_x"},
    {"kind": "cnot_probe"},
    {"kind": "universal_cloner"},
    {"kind": "depolarize", "params": {"p": 0.5}},
    {"kind": "intercept_resend_angle", "params": {"theta": 0.7853981633974483}},
]


def write_config(path, **overrides):
    data = {
        "n": 1,
        "attacks": [{"kind": "cnot_probe"}],
        "dense_limit": 2,
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


class TestConfig:
    def test_load_round_trip(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path / "cfg.json",
                n=2,
                attacks=[{"kind": "depolarize", "params": {"p": 0.25}}],
                sweep={"n_values": [1, 2]},
            )
        )
        assert cfg.n == 2
        assert cfg.attacks[0].params["p"] == 0.25
        assert cfg.sweep_n == (1, 2)

    def test_bad_json_raises_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_attack_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "cfg.json", attacks=[{"kind": "nope"}]))

    def test_misspelled_top_level_key_exits_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", dense_limt=2)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "section, value",
        [
            ("tolerances", {"decision": 1e-6}),
            ("tolerances", {"spectral": 1e-8}),
            ("tolerances", {"structural": 1e-6}),
            ("outputs", {"dir": "elsewhere"}),
            ("c_offset", 0),
            ("seed", 7),
        ],
        ids=["decision", "spectral", "structural", "outputs_dir", "c_offset", "seed"],
    )
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_deleted_section_exits_config(
        self, tmp_path, monkeypatch, capsys, command, section, value
    ):
        # No threshold or bound constant is settable, --out is the one output
        # setting and a seed changes no result, so a config naming any of them
        # is refused before any directory is made.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", **{section: value})
        with pytest.raises(ConfigError, match=f"unknown config key\\(s\\): {section}$"):
            load_config(cfg)
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert f"unknown config key(s): {section}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "params",
        [[0.5], "p", {"p": True}, {"p": "0.5"}, {"p": None}],
        ids=["list", "string", "bool_value", "string_value", "null_value"],
    )
    def test_bad_attack_params_exit_config(self, tmp_path, params):
        cfg = write_config(tmp_path / "cfg.json", attacks=[{"kind": "depolarize", "params": params}])
        with pytest.raises(ConfigError, match="params|parameter"):
            load_config(cfg)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 1.9},
            {"sweep": {"n_values": [0, 1]}},
            {"sweep": {"n_values": [1, 2.0]}},
            {"dense_limit": True},
        ],
        ids=[
            "n_float",
            "n_values_below_one",
            "n_values_float",
            "dense_limit",
        ],
    )
    def test_bad_integer_exits_config(self, tmp_path, overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_sweep_workers_below_one_is_a_usage_error(self, tmp_path, workers):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", workers])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_empty_out_is_a_usage_error(self, tmp_path, monkeypatch, command):
        # An empty --out is no directory; it must not fall back to qid-out.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", ""])
        assert exc.value.code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"attacks": [{"kind": "identity", "parms": {"p": 0.5}}]},
            {"attacks": ["identity"]},
            {"sweep": {"n_values": [1, 1]}},
        ],
        ids=[
            "attack_key_typo",
            "attack_not_object",
            "n_values_repeated",
        ],
    )
    def test_config_holes_exit_config(self, tmp_path, monkeypatch, overrides):
        # A misspelled attack key was ignored, and a repeated n ran its jobs twice
        # into the same files.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        with pytest.raises(ConfigError):
            load_config(cfg)
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "out", ["afile", "afile/sub", pytest.param("x" * 300 + "/sub", id="name_too_long")]
    )
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_output_path_through_a_file_exits_config_before_any_job(
        self, tmp_path, monkeypatch, out, command
    ):
        # A job used to run in full before mkdir failed with FileExistsError or NotADirectoryError,
        # and a name over the file-name limit raised OSError (ENAMETOOLONG) out of main.
        def no_job(*args):
            raise AssertionError("a job ran before the output path was checked")

        monkeypatch.setattr(cli, "run_single", no_job)
        (tmp_path / "afile").write_text("keep")
        cfg = write_config(tmp_path / "cfg.json")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / out)]) == EXIT_CONFIG
        assert (tmp_path / "afile").read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json"]

    def test_colliding_artifact_names_exit_config(self, tmp_path):
        # Both labels format as depolarize_p0.123456, so one job would overwrite the other.
        attacks = [
            {"kind": "depolarize", "params": {"p": 0.1234561}},
            {"kind": "depolarize", "params": {"p": 0.1234564}},
        ]
        cfg = write_config(tmp_path / "cfg.json", attacks=attacks)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


class TestSimulate:
    def test_all_seven_attacks_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", attacks=ALL_ATTACKS)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        reports = sorted(out.glob("report_*.json"))
        assert len(reports) == 7
        for path in reports:
            data = json.loads(path.read_text())
            assert data["all_hold"] is True
            assert data["equivalence"]["passed"] is True

    def test_out_defaults_to_qid_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        assert {p.name for p in (tmp_path / "qid-out").iterdir()} == artifact_names("cnot_probe_n1")

    def test_readme_config_example_runs(self, tmp_path):
        # A key deleted from the code cannot stay in the documented example.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("Config example:\n\n```json\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(example)
        loaded = load_config(cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        expected = set().union(
            *(artifact_names(f"{spec.label()}_n{loaded.n}") for spec in loaded.attacks)
        )
        assert {p.name for p in out.iterdir()} == expected

    def test_dense_limit_is_fixed_at_two(self, tmp_path, monkeypatch, capsys):
        # The dense records run iff n <= 2, so the key takes that one value.
        # Any other exits 2 before the Kraus oracle is built or a directory is
        # made; with the key at 2 or without it, the dense records run.
        import qid.protocol as protocol

        without = tmp_path / "without.json"
        without.write_text(json.dumps({"n": 2, "attacks": [{"kind": "cnot_probe"}]}))
        reports = []
        for cfg in (write_config(tmp_path / "with.json", n=2), without):
            out = tmp_path / cfg.stem
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            reports.append((out / "report_cnot_probe_n2.json").read_text())
        assert reports[0] == reports[1] and '"equivalence"' in reports[0]

        def no_build(*args):
            raise AssertionError("dense oracle built for a refused config")

        monkeypatch.setattr(protocol, "dense_channel", no_build)
        for limit in (0, 1, 3, 9):
            cfg = write_config(tmp_path / f"d{limit}.json", n=2, dense_limit=limit)
            out = tmp_path / f"o{limit}"
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
            assert f"'dense_limit' is fixed at 2, got {limit}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "attack",
        [{"kind": "depolarize", "params": {"p": 0.5}}, {"kind": "identity"}],
        ids=["depolarize", "identity"],
    )
    def test_receiver_states_over_byte_limit_exit_capacity(self, tmp_path, monkeypatch, attack):
        # At n = 12 the verdict path's 4^12-entry tables would take 1952 MiB,
        # over channels.MAX_BYTES; no receiver state or table is built.
        import qid.distinguishability as distinguishability
        import qid.protocol as protocol
        import qid.tradeoff as tradeoff

        def no_build(*args):
            raise AssertionError("receiver states or tables built before the capacity check")

        for module in (protocol, distinguishability, tradeoff):
            monkeypatch.setattr(module, "kron_power", no_build)
        cfg = write_config(tmp_path / "cfg.json", n=12, attacks=[attack])
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CAPACITY
        assert not out.exists()

    @pytest.mark.parametrize("n", [1000, 10**6])
    def test_huge_n_exits_capacity_at_once(self, tmp_path, n):
        # The size checks work from the one-qubit factor, so no n-long size
        # product or float conversion of a huge byte count is ever formed.
        cfg = write_config(tmp_path / "cfg.json", n=n, attacks=[{"kind": "universal_cloner"}])
        out = tmp_path / "o"
        start = time.perf_counter()
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CAPACITY
        assert time.perf_counter() - start < 1.0
        assert not out.exists()

    def test_six_qubits_beyond_the_kraus_limit_hold(self, tmp_path):
        # depolarize's N = 6 Kraus stack (16 GiB) and universal_cloner's are never built.
        attacks = [
            {"kind": "depolarize", "params": {"p": 0.5}},
            {"kind": "universal_cloner"},
            {"kind": "cnot_probe"},
        ]
        cfg = write_config(tmp_path / "cfg.json", n=6, attacks=attacks)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        reports = sorted(out.glob("report_*.json"))
        assert len(reports) == 3
        for path in reports:
            data = json.loads(path.read_text())
            assert data["all_hold"] is True
            assert data["lp_records"] == [] and "equivalence" not in data

    def test_missing_config_exits_config(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json")]) == EXIT_CONFIG

    def test_outputs_are_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            n=2,
            attacks=[{"kind": "universal_cloner"}, {"kind": "measure_z"}],
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == EXIT_OK
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_grid_csv_has_expected_header(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        grid = (out / "grid_cnot_probe_n1.csv").read_text().splitlines()
        assert grid[0] == "n,attack,l,m,count_B,count_E,bound,holds"
        assert len(grid) == 1 + 9


class TestAllHold:
    """The report's ``all_hold`` and the exit status are one verdict."""

    def test_failing_equivalence_check(self, tmp_path, monkeypatch):
        failing = EquivalenceReport(
            max_probability_deviation=0.5, max_state_deviation=0.0, passed=False
        )
        monkeypatch.setattr(cli, "equivalence_check", lambda inst: failing)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_VIOLATION
        data = json.loads((out / "report_cnot_probe_n1.json").read_text())
        assert data["equivalence"]["passed"] is False
        assert data["all_hold"] is False

    def test_failing_expectation_check(self, tmp_path, monkeypatch):
        real = cli.expectation_identity_check

        def one_disagrees(inst, cat, theta):
            return [
                chk._replace(agree=False) if (chk.side, chk.l) == ("E", 1) else chk
                for chk in real(inst, cat, theta)
            ]

        monkeypatch.setattr(cli, "expectation_identity_check", one_disagrees)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_VIOLATION
        data = json.loads((out / "report_cnot_probe_n1.json").read_text())
        assert [(r["side"], r["l"]) for r in data["expectation"] if not r["agree"]] == [("E", 1)]
        assert data["all_hold"] is False


def _same_json(a, b) -> bool:
    """Keys, types and discrete values equal; floats within 1e-9 relative or 1e-12 absolute."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return a == b


def _float_cell(cell: str) -> float | None:
    """A CSV cell written as a float (with a point or an exponent), else None."""
    if not any(c in cell for c in ".eE"):
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _same_csv(a: str, b: str) -> bool:
    rows_a, rows_b = a.splitlines(), b.splitlines()
    if len(rows_a) != len(rows_b):
        return False
    for ra, rb in zip(rows_a, rows_b):
        cells_a, cells_b = ra.split(","), rb.split(",")
        if len(cells_a) != len(cells_b):
            return False
        for x, y in zip(cells_a, cells_b):
            fx, fy = _float_cell(x), _float_cell(y)
            if x != y and (fx is None or fy is None or not _same_json(fx, fy)):
                return False
    return True


# The report text of edge values: every float at 12 digits, json's
# spelling of the non-finite ones, ASCII escapes and records as objects.
EDGE_REPORT = r"""{
  "b": true,
  "empty": {
    "dict": {},
    "list": [],
    "tuple": []
  },
  "floats": [
    Infinity,
    -Infinity,
    NaN,
    -0.0,
    1e-300,
    1.18059162072e+21,
    0.3
  ],
  "ints": [
    0,
    -7,
    1180591620717411303424
  ],
  "none": null,
  "records": {
    "nested": [
      {
        "inner": [
          {
            "max_probability_deviation": 0.333333333333,
            "max_state_deviation": Infinity,
            "passed": false
          }
        ]
      }
    ]
  },
  "text": [
    "caf\u00e9 \u2264 2^n",
    "quote \" slash \\ tab \t",
    ""
  ]
}"""


class TestReportSchema:
    """Report keys are record field names, so the artifacts pin the field names too."""

    @pytest.mark.parametrize(
        "n, attack, stem",
        [
            (2, {"kind": "cnot_probe"}, "cnot_probe_n2"),
            (3, {"kind": "depolarize", "params": {"p": 0.25}}, "depolarize_p0.25_n3"),
        ],
        ids=["dense_n2", "structured_n3"],
    )
    def test_simulate_reproduces_pinned_artifacts(self, tmp_path, n, attack, stem):
        cfg = write_config(tmp_path / "cfg.json", n=n, attacks=[attack])
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        names = sorted(p.name for p in SCHEMA_DIR.glob(f"*_{stem}.*"))
        assert len(names) == 4
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            ours, pinned = (out / name).read_text(), (SCHEMA_DIR / name).read_text()
            if name.endswith(".json"):
                assert _same_json(json.loads(ours), json.loads(pinned)), name
            else:
                assert _same_csv(ours, pinned), name

    def test_writer_rounds_float_subclasses_and_refuses_unknown_types(self):
        data = {"x": np.float64(0.12345678901234), "rows": ((1, True, None, "s", 2.0 / 3.0),)}
        rounded = cli._round12(data)
        assert rounded == {"x": 0.123456789012, "rows": [[1, True, None, "s", 0.666666666667]]}
        assert type(rounded["x"]) is float
        text = '{"rows": [[1, true, null, "s", 0.666666666667]], "x": 0.123456789012}'
        assert json.dumps(rounded, sort_keys=True) == text
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps(cli._round12([1j]))

    def test_writer_spells_non_finite_non_ascii_and_nested_records(self):
        eq = EquivalenceReport(1.0 / 3.0, float("inf"), False)
        data = {
            "floats": [math.inf, -math.inf, math.nan, -0.0, 1e-300, 2.0**70, 0.1 + 0.2],
            "ints": [0, -7, 2**70],
            "text": ["caf\u00e9 \u2264 2^n", 'quote " slash \\ tab \t', ""],
            "records": {"nested": [{"inner": (eq,)}]},
            "empty": {"list": [], "tuple": (), "dict": {}},
            "b": True,
            "none": None,
        }
        assert json.dumps(cli._round12(data), sort_keys=True, indent=2) == EDGE_REPORT

    def test_every_report_is_a_json_dumps_fixed_point(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", attacks=ALL_ATTACKS, sweep={"n_values": [1, 2, 3]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == EXIT_OK
        reports = sorted(out.glob("report_*.json"))
        assert len(reports) == 7 * 3
        for path in reports:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path.name

    def test_cross_norm_keys(self):
        # No library attack gives both sides a catalogue entry, so no artifact holds one.
        assert CrossNormRecord._fields == ("entry_b", "entry_e", "norm", "limit", "holds")


class TestSweep:
    def test_sweep_over_n_values(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            attacks=[{"kind": "measure_z"}],
            sweep={"n_values": [1, 2]},
        )
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", str(cfg), "--out", str(out), "--workers", "2"]
        )
        assert code == EXIT_OK
        assert (out / "report_measure_z_n1.json").exists()
        assert (out / "report_measure_z_n2.json").exists()

    def test_sweep_writes_the_bytes_of_simulate_at_each_n(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", attacks=ALL_ATTACKS, sweep={"n_values": [1, 2, 3]})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        swept = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(swept) == 7 * 3 * 4
        for n in (1, 2, 3):
            cfg_n = write_config(tmp_path / f"n{n}.json", n=n, attacks=ALL_ATTACKS)
            out = tmp_path / f"simulate{n}"
            assert main(["simulate", "--config", str(cfg_n), "--out", str(out)]) == EXIT_OK
            simulated = {p.name: p.read_bytes() for p in out.iterdir()}
            assert simulated == {
                name: data for name, data in swept.items() if Path(name).stem.endswith(f"_n{n}")
            }


def artifact_names(stem: str) -> set[str]:
    return {f"report_{stem}.json", *(f"{kind}_{stem}.csv" for kind in ("grid", "plot", "complexity"))}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_write(out_dir, artifacts):
    raise OSError("disk full (simulated)")


class TestWriter:
    """One forked child writes a run's artifacts; the jobs write nothing."""

    def test_failing_job_keeps_exactly_the_earlier_jobs(self, tmp_path):
        # The n = 12 jobs exit 3, so the n = 1 jobs after them write nothing.
        attacks = [{"kind": "measure_z"}, {"kind": "identity"}]
        cfg = write_config(tmp_path / "cfg.json", attacks=attacks, sweep={"n_values": [2, 12, 1]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CAPACITY
        expected = artifact_names("measure_z_n2") | artifact_names("identity_n2")
        assert {p.name for p in out.iterdir()} == expected
        assert_no_child_left()

    def test_failing_simulate_job_keeps_exactly_the_earlier_jobs(self, tmp_path, monkeypatch):
        run_single = cli.run_single

        def second_fails(n, spec):
            if spec.kind == "measure_z":
                raise CapacityError("over the limit (simulated)")
            return run_single(n, spec)

        monkeypatch.setattr(cli, "run_single", second_fails)
        cfg = write_config(tmp_path / "cfg.json", attacks=ALL_ATTACKS[:3])
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CAPACITY
        assert {p.name for p in out.iterdir()} == artifact_names("identity_n1")
        assert_no_child_left()

    @pytest.mark.parametrize(
        "command, flags",
        [("simulate", []), ("sweep", ["--workers", "2"])],
        ids=["simulate", "sweep_workers_2"],
    )
    def test_no_job_starts_after_a_failed_one(self, tmp_path, monkeypatch, command, flags):
        # Job threads used to start the third of seven jobs in a sweep with
        # --workers 2 while the second was failing.
        run_single, started = cli.run_single, []

        def second_fails(n, spec):
            started.append(spec.kind)
            if spec.kind == "measure_z":
                raise CapacityError("over the limit (simulated)")
            return run_single(n, spec)

        monkeypatch.setattr(cli, "run_single", second_fails)
        cfg = write_config(tmp_path / "cfg.json", attacks=ALL_ATTACKS)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == EXIT_CAPACITY
        assert started == ["identity", "measure_z"]
        assert {p.name for p in out.iterdir()} == artifact_names("identity_n1")
        assert_no_child_left()

    def test_jobs_run_one_at_a_time(self, tmp_path, monkeypatch):
        # --workers is accepted and changes nothing; it used to start four job threads.
        run_single, lock = cli.run_single, threading.Lock()
        running, most = 0, 0

        def counted(n, spec):
            nonlocal running, most
            with lock:
                running += 1
                most = max(most, running)
            time.sleep(0.02)
            try:
                return run_single(n, spec)
            finally:
                with lock:
                    running -= 1

        monkeypatch.setattr(cli, "run_single", counted)
        cfg = write_config(tmp_path / "cfg.json", attacks=ALL_ATTACKS)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "4"]) == EXIT_OK
        assert most == 1
        assert len(list(out.iterdir())) == 7 * 4
        assert_no_child_left()

    def test_run_single_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = load_config(write_config(tmp_path / "cfg.json"))
        record = cli.run_single(1, cfg.attacks[0])
        assert record.all_hold is True
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        assert set(cli._artifacts(record)) == artifact_names("cnot_probe_n1")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_failed_write_exits_nonzero_with_the_childs_traceback(
        self, tmp_path, monkeypatch, capfd, command
    ):
        # The child is forked after the patch, so it writes through it.
        monkeypatch.setattr(cli, "_write_artifacts", failing_write)
        cfg = write_config(tmp_path / "cfg.json", attacks=ALL_ATTACKS[:3])
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_VIOLATION
        err = capfd.readouterr().err
        assert "Traceback" in err and "OSError: disk full (simulated)" in err
        assert "error: the artifact writer failed with exit status 1" in err
        assert not out.exists()
        assert_no_child_left()

    def test_broken_pipe_while_sending_is_the_writer_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_write_artifacts", failing_write)
        cfg = load_config(write_config(tmp_path / "cfg.json"))
        record = cli.run_single(1, cfg.attacks[0])
        with pytest.raises(QidError, match="artifact writer failed") as failure:
            with cli._artifact_writer(tmp_path / "out") as send:
                # Sending ends only when the dead child's pipe breaks.
                while True:
                    send(record)
        assert isinstance(failure.value.__context__, BrokenPipeError)
        assert_no_child_left()

    @pytest.mark.parametrize("outcome", ["holds", "violation", "capacity"])
    def test_no_child_left_after_a_run(self, tmp_path, monkeypatch, outcome):
        if outcome == "violation":
            failing = EquivalenceReport(0.5, 0.0, passed=False)
            monkeypatch.setattr(cli, "equivalence_check", lambda inst: failing)
        cfg = write_config(tmp_path / "cfg.json", n=12 if outcome == "capacity" else 1)
        expected = {"holds": EXIT_OK, "violation": EXIT_VIOLATION, "capacity": EXIT_CAPACITY}
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == expected[outcome]
        assert out.exists() == (outcome != "capacity")
        assert_no_child_left()


class TestCheckLP:
    def test_valid_family_holds(self, tmp_path):
        fam = tmp_path / "family.json"
        state = tmp_path / "state.json"
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        fam.write_text(json.dumps({"projectors": [pairs(p) for p in (p0, p1)]}))
        state.write_text(json.dumps({"matrix": pairs(np.eye(2, dtype=complex) / 2)}))
        assert main(["check-lp", "--family", str(fam), "--state", str(state)]) == EXIT_OK

    @pytest.mark.parametrize(
        "family, state",
        [
            ([2 * np.eye(2)], np.eye(2) / 2),
            ([np.diag([1.0, 0.0])], np.diag([1.5, -0.5])),
            ([np.eye(4)], np.eye(2) / 2),
            ([np.diag([1.0, 0.0])], np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])),
            ([np.diag([1.0, np.nan])], np.eye(2) / 2),
            ([np.diag([1.0, 0.0])], [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]),
            ([np.diag([1.0, 0.0])], [pairs(np.eye(2) / 2)] * 2),
            ([np.eye(1)], np.eye(1)),
            ([np.array([[1.0, 1.0], [0.0, 0.0]])], np.eye(2) / 2),
            ([[[["1", 0], [0, 0]], [[0, 0], [0, 0]]]], np.eye(2) / 2),
            ([np.diag([1.0, 0.0])], [[[True, 0], [0, 0]], [[0, 0], [False, 0]]]),
        ],
        ids=[
            "not_projector",
            "not_psd_state",
            "dimension_mismatch",
            "non_square_state",
            "nan_entry",
            "ragged_grid",
            "two_states",
            "one_by_one",
            "non_hermitian_projector",
            "string_entry",
            "bool_entry",
        ],
    )
    def test_invalid_input_exits_config(self, tmp_path, family, state):
        fam = tmp_path / "family.json"
        st = tmp_path / "state.json"
        fam.write_text(json.dumps({"projectors": [pairs(p) for p in family]}))
        st.write_text(json.dumps({"matrix": pairs(state)}))
        assert main(["check-lp", "--family", str(fam), "--state", str(st)]) == EXIT_CONFIG

    def test_family_under_matrix_key_exits_config(self, tmp_path):
        # The family is read only from "projectors" or a bare list, not from "matrix".
        fam = tmp_path / "family.json"
        st = tmp_path / "state.json"
        fam.write_text(json.dumps({"matrix": [pairs(np.eye(2))]}))
        st.write_text(json.dumps({"matrix": pairs(np.eye(2) / 2)}))
        assert main(["check-lp", "--family", str(fam), "--state", str(st)]) == EXIT_CONFIG

    def test_bad_file_exits_config(self, tmp_path):
        fam = tmp_path / "family.json"
        fam.write_text("[]")
        state = tmp_path / "state.json"
        state.write_text("not json")
        assert (
            main(["check-lp", "--family", str(fam), "--state", str(state)])
            == EXIT_CONFIG
        )


def test_exit_status_reflects_violations(tmp_path, monkeypatch):
    # force a failing verdict to confirm the violation exit path
    cfg = write_config(tmp_path / "cfg.json")
    real = cli.run_single
    monkeypatch.setattr(cli, "run_single", lambda *a: real(*a)._replace(all_hold=False))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_VIOLATION
    assert json.loads((out / "report_cnot_probe_n1.json").read_text())["all_hold"] is False


def run_module(tmp_path, *args, stdout=subprocess.PIPE, unbuffered=False):
    """``python -m qid.cli args`` in a fresh interpreter, stderr captured as text.

    A piped stdout is block-buffered unless ``unbuffered`` sets ``PYTHONUNBUFFERED``.
    """
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "qid.cli", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )


def check_lp_files(tmp_path) -> list[str]:
    """``check-lp`` arguments for the family {1} against the maximally mixed qubit."""
    fam = tmp_path / "family.json"
    st = tmp_path / "state.json"
    fam.write_text(json.dumps({"projectors": [pairs(np.eye(2))]}))
    st.write_text(json.dumps({"matrix": pairs(np.eye(2) / 2)}))
    return ["check-lp", "--family", str(fam), "--state", str(st)]


# The console entry ends the process with os._exit once its streams are
# flushed; each case is (config overrides, exit status, start of stderr).
ENTRY_RUNS = {
    "simulate": ({"attacks": [{"kind": "identity"}, {"kind": "measure_z"}]}, EXIT_OK, ""),
    "config_error": ({"seed": 7}, EXIT_CONFIG, "config error: unknown config key(s): seed\n"),
    "capacity_error": ({"n": 12}, EXIT_CAPACITY, "capacity error: "),
}


@pytest.mark.parametrize("case", ["check_lp", *ENTRY_RUNS])
def test_console_entry_runs_as_module(tmp_path, case):
    if case == "check_lp":
        # Through a pipe, stdout is block-buffered: every line must still arrive.
        proc = run_module(tmp_path, *check_lp_files(tmp_path))
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout == "lhs = 1\nrhs = 1\nholds = true\n"
        return
    overrides, status, stderr = ENTRY_RUNS[case]
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    proc = run_module(tmp_path, "simulate", "--config", str(cfg), "--out", "sub")
    assert proc.returncode == status
    assert proc.stderr.startswith(stderr) if stderr else proc.stderr == ""
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "main")]) == status
    if status != EXIT_OK:
        assert not (tmp_path / "sub").exists() and not (tmp_path / "main").exists()
        return
    names = sorted(p.name for p in (tmp_path / "main").iterdir())
    assert len(names) == 8
    assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == names
    for name in names:
        assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


@pytest.mark.parametrize("unbuffered, status", [(True, 1), (False, 120)])
def test_console_entry_fails_on_a_closed_stdout(tmp_path, unbuffered, status):
    # Unbuffered, print raises inside main and the traceback exits 1.  Buffered,
    # the entry's flush raises, so the process takes Python's normal exit,
    # whose own flush fails again: exit 120, as without the fast exit.
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = run_module(tmp_path, *check_lp_files(tmp_path), stdout=write_fd, unbuffered=unbuffered)
    finally:
        os.close(write_fd)
    assert proc.returncode == status
    assert "BrokenPipeError" in proc.stderr
