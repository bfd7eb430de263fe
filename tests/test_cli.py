import json
import math
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qid.cli as cli
from qid.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VIOLATION,
    load_config,
    main,
)
from qid.errors import ConfigError
from qid.protocol import EquivalenceReport
from qid.tradeoff import CrossNormRecord

from helpers import pairs, round12

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
        "c_offset": 0,
        "dense_limit": 2,
        "seed": 11,
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
                tolerances={"decision": 1e-6},
                sweep={"n_values": [1, 2]},
            )
        )
        assert cfg.n == 2
        assert cfg.attacks[0].params["p"] == 0.25
        assert cfg.decision_tol == 1e-6
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

    def test_spectral_tolerance_key_exits_config(self, tmp_path):
        # support projectors always use SPECTRAL_TOL, so the key was removed
        cfg = write_config(tmp_path / "cfg.json", tolerances={"spectral": 1e-8})
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_structural_tolerance_key_exits_config(self, tmp_path):
        # the equivalence check always uses STRUCTURAL_TOL, so the key was removed
        cfg = write_config(tmp_path / "cfg.json", tolerances={"structural": 1e-6})
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

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
            {"c_offset": 0.5},
            {"c_offset": -4},
            {"dense_limit": True},
            {"seed": "11"},
        ],
        ids=[
            "n_float",
            "n_values_below_one",
            "n_values_float",
            "c_offset",
            "c_offset_negative",
            "dense_limit",
            "seed",
        ],
    )
    def test_bad_integer_exits_config(self, tmp_path, overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "tolerances",
        [
            {"decision": -1},
            {"decision": 0},
            {"decision": 1},
            {"decision": True},
            {"decision": 1e300},
            {"decision": "1e-7"},
            {"decision": float("nan")},
            {"decision": float("inf")},
        ],
        ids=["negative", "zero", "one", "bool", "huge", "string", "nan", "inf"],
    )
    def test_bad_tolerance_exits_config(self, tmp_path, tolerances):
        # measure_z at N = 2 gives Bob one class, so a bad decision value would flip it.
        cfg = write_config(
            tmp_path / "cfg.json", n=2, attacks=[{"kind": "measure_z"}], tolerances=tolerances
        )
        with pytest.raises(ConfigError, match="tolerance"):
            load_config(cfg)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
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
        # An empty --out is no directory; it must not fall back to outputs.dir.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", ""])
        assert exc.value.code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"outputs": {"dir": None}},
            {"outputs": {"dir": 5}},
            {"outputs": {"dir": ""}},
            {"attacks": [{"kind": "identity", "parms": {"p": 0.5}}]},
            {"attacks": ["identity"]},
            {"sweep": {"n_values": [1, 1]}},
        ],
        ids=[
            "dir_null",
            "dir_number",
            "dir_empty",
            "attack_key_typo",
            "attack_not_object",
            "n_values_repeated",
        ],
    )
    def test_config_holes_exit_config(self, tmp_path, monkeypatch, overrides):
        # A null or numeric dir used to become ./None or ./5, a misspelled attack key was
        # ignored, and a repeated n ran its jobs twice into the same files.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        with pytest.raises(ConfigError):
            load_config(cfg)
        assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 2, "c_offset": 2000},
            {"n": 8, "c_offset": 1012},
            {"sweep": {"n_values": [1, 10**6]}, "c_offset": 1030},
        ],
        ids=["overflow_error", "infinite_bound", "any_configured_n"],
    )
    def test_c_offset_overflowing_the_bound_exits_config(self, tmp_path, overrides):
        # 2.0 ** ((l + m - n + 3) / 2 + c) used to end the run in an OverflowError
        # traceback or, at n = 8, to make the bound at l = m = 9 infinite.
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        with pytest.raises(ConfigError, match="c_offset"):
            load_config(cfg)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    @pytest.mark.parametrize(
        "command, via", [("simulate", "--out"), ("sweep", "outputs.dir")]
    )
    def test_output_path_through_a_file_exits_config_before_any_job(
        self, tmp_path, monkeypatch, out, command, via
    ):
        # A job used to run in full before mkdir failed with FileExistsError or NotADirectoryError.
        def no_job(*args):
            raise AssertionError("a job ran before the output path was checked")

        monkeypatch.setattr(cli, "run_single", no_job)
        (tmp_path / "afile").write_text("keep")
        target = str(tmp_path / out)
        if via == "--out":
            cfg, argv = write_config(tmp_path / "cfg.json"), ["--out", target]
        else:
            cfg, argv = write_config(tmp_path / "cfg.json", outputs={"dir": target}), []
        assert main([command, "--config", str(cfg), *argv]) == EXIT_CONFIG
        assert (tmp_path / "afile").read_text() == "keep"

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

    def test_dense_request_beyond_cap_exits_capacity(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n=9, dense_limit=9)
        assert (
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
            == EXIT_CAPACITY
        )

    def test_dense_limit_above_two_exits_capacity_before_the_oracle(self, tmp_path, monkeypatch):
        import qid.protocol as protocol

        def no_build(*args):
            raise AssertionError("dense oracle built before the dense-size check")

        monkeypatch.setattr(protocol, "dense_channel", no_build)
        cfg = write_config(
            tmp_path / "cfg.json",
            n=3,
            dense_limit=3,
            attacks=[{"kind": "depolarize", "params": {"p": 0.5}}],
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CAPACITY
        assert not out.exists()

    @pytest.mark.parametrize(
        "attack",
        [{"kind": "depolarize", "params": {"p": 0.5}}, {"kind": "identity"}],
        ids=["depolarize", "identity"],
    )
    def test_receiver_states_over_byte_limit_exit_capacity(self, tmp_path, monkeypatch, attack):
        # 2 * 2^9 dense 512 x 512 receiver states would take 4 GiB, over MAX_STATE_BYTES.
        import qid.protocol as protocol

        def no_build(*args):
            raise AssertionError("receiver states built before the capacity check")

        monkeypatch.setattr(protocol, "kron_power", no_build)
        cfg = write_config(tmp_path / "cfg.json", n=9, attacks=[attack])
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
                replace(chk, agree=False) if (chk.side, chk.l) == ("E", 1) else chk
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
        rounded = {"x": 0.123456789012, "rows": [[1, True, None, "s", 0.666666666667]]}
        assert cli._report_json(data) == json.dumps(rounded, sort_keys=True, indent=2)
        assert json.loads(cli._report_json(data)) == rounded
        with pytest.raises(TypeError, match="cannot serialize"):
            cli._report_json([1j])

    def test_writer_matches_json_dumps_of_rounded_data(self):
        eq = EquivalenceReport(1.0 / 3.0, float("inf"), False)
        data = {
            "floats": [math.inf, -math.inf, math.nan, -0.0, 1e-300, 2.0**70, 0.1 + 0.2],
            "ints": [0, -7, 2**70],
            "text": ["caf\u00e9 \u2264 2^n", 'quote " slash \\ tab \t', ""],
            "records": {"eq": eq, "nested": [eq, {"inner": (eq,)}]},
            "empty": {"list": [], "tuple": (), "dict": {}},
            "b": True,
            "none": None,
        }
        expected = json.dumps(round12(data), sort_keys=True, indent=2)
        assert cli._report_json(data) == expected
        assert "Infinity" in expected and "-Infinity" in expected and "NaN" in expected
        for empty in ([], {}, ()):
            assert cli._report_json(empty) == json.dumps(round12(empty), sort_keys=True, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
            max_leaves=20,
        )
    )
    def test_writer_matches_json_dumps_on_any_json_data(self, data):
        assert cli._report_json(data) == json.dumps(round12(data), sort_keys=True, indent=2)

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
        names = [f.name for f in fields(CrossNormRecord)]
        assert names == ["entry_b", "entry_e", "norm", "limit", "holds"]


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

    def test_workers_and_simulate_write_the_same_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", attacks=ALL_ATTACKS, sweep={"n_values": [1, 2, 3]})
        swept = {}
        for workers in (1, 3):
            out = tmp_path / f"sweep{workers}"
            argv = ["sweep", "--config", str(cfg), "--out", str(out), "--workers", str(workers)]
            assert main(argv) == EXIT_OK
            swept[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(swept[1]) == 7 * 3 * 4
        assert swept[1] == swept[3]
        for n in (1, 2, 3):
            cfg_n = write_config(tmp_path / f"n{n}.json", n=n, attacks=ALL_ATTACKS)
            out = tmp_path / f"simulate{n}"
            assert main(["simulate", "--config", str(cfg_n), "--out", str(out)]) == EXIT_OK
            simulated = {p.name: p.read_bytes() for p in out.iterdir()}
            assert simulated == {
                name: data for name, data in swept[1].items() if Path(name).stem.endswith(f"_n{n}")
            }


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
    monkeypatch.setattr(cli, "run_single", lambda *a, **k: False)
    assert main(["simulate", "--config", str(cfg)]) == EXIT_VIOLATION


def test_console_entry_runs_as_module(tmp_path):
    fam = tmp_path / "family.json"
    st = tmp_path / "state.json"
    fam.write_text(json.dumps({"projectors": [pairs(np.eye(2))]}))
    st.write_text(json.dumps({"matrix": pairs(np.eye(2) / 2)}))
    proc = subprocess.run(
        [sys.executable, "-m", "qid.cli", "check-lp", "--family", str(fam), "--state", str(st)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("lhs = 1")
