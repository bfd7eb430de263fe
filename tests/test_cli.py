import json
import subprocess
import sys
import time

import numpy as np
import pytest

from qid.channels import matrix_to_pairs
from qid.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VIOLATION,
    load_config,
    main,
)
from qid.errors import ConfigError


def pairs(m):
    """[re, im] encoding of a matrix, or a hand-written encoding as it is."""
    if isinstance(m, list):
        return m
    m = np.asarray(m, dtype=complex)
    return [[[x.real, x.imag] for x in row] for row in m]


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
        assert cfg.tolerances.decision == 1e-6
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
            {"dense_limit": True},
            {"seed": "11"},
        ],
        ids=["n_float", "n_values_below_one", "n_values_float", "c_offset", "dense_limit", "seed"],
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
        all_attacks = [
            {"kind": "identity"},
            {"kind": "measure_z"},
            {"kind": "measure_x"},
            {"kind": "cnot_probe"},
            {"kind": "universal_cloner"},
            {"kind": "depolarize", "params": {"p": 0.5}},
            {"kind": "intercept_resend_angle", "params": {"theta": 0.7853981633974483}},
        ]
        cfg = write_config(tmp_path / "cfg.json", attacks=all_attacks)
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


class TestCheckLP:
    def test_valid_family_holds(self, tmp_path):
        fam = tmp_path / "family.json"
        state = tmp_path / "state.json"
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        fam.write_text(json.dumps({"projectors": [matrix_to_pairs(p) for p in (p0, p1)]}))
        state.write_text(json.dumps({"matrix": matrix_to_pairs(np.eye(2, dtype=complex) / 2)}))
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
        ],
        ids=[
            "not_projector",
            "not_psd_state",
            "dimension_mismatch",
            "non_square_state",
            "nan_entry",
            "ragged_grid",
        ],
    )
    def test_invalid_input_exits_config(self, tmp_path, family, state):
        fam = tmp_path / "family.json"
        st = tmp_path / "state.json"
        fam.write_text(json.dumps({"projectors": [pairs(p) for p in family]}))
        st.write_text(json.dumps({"matrix": pairs(state)}))
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


class TestOverlap:
    def test_overlap_table_exit_zero(self, capsys):
        assert main(["overlap", "--n", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,z,norm,expected,abs_error"
        assert len(lines) == 1 + 16

    def test_overlap_capacity(self):
        assert main(["overlap", "--n", "9"]) == EXIT_CAPACITY

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_overlap_n_below_one_is_a_usage_error(self, n):
        with pytest.raises(SystemExit) as exc:
            main(["overlap", "--n", n])
        assert exc.value.code == 2


def test_exit_status_reflects_violations(tmp_path, monkeypatch):
    # force a failing verdict to confirm the violation exit path
    import qid.cli as cli

    cfg = write_config(tmp_path / "cfg.json")
    monkeypatch.setattr(cli, "run_single", lambda *a, **k: False)
    assert main(["simulate", "--config", str(cfg)]) == EXIT_VIOLATION


def test_console_entry_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "qid.cli", "overlap", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("x,z,norm")
