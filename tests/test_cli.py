import json
import math

import pytest

from qir.cli import main, parse_grid, resolve_tol
from qir.errors import ConfigError

CAMPAIGN_CFG = """\
[campaign]
dims = 2x2, 3x2
trials = 16
seed = 5
relations = eq5, eq7, eq9, eq11
ensemble = haar-pure
"""


def write_cfg(tmp_path, text=CAMPAIGN_CFG, name="campaign.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSaturate:
    def test_exit_zero_and_values(self, capsys):
        assert main(["saturate", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.693147181" in out
        assert "eq11 saturated: yes" in out
        assert "FAIL" not in out

    def test_d5(self, capsys):
        assert main(["saturate", "--d", "5"]) == 0
        out = capsys.readouterr().out
        assert f"{math.log(5):.9f}" in out

    def test_bits_display(self, capsys):
        assert main(["saturate", "--d", "2", "--bits"]) == 0
        out = capsys.readouterr().out
        assert "1.000000000" in out  # ln 2 nats = 1 bit

    def test_bad_dimension(self, capsys):
        assert main(["saturate", "--d", "1"]) == 2


class TestVerify:
    def test_campaign_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out_dir = tmp_path / "results"
        assert main(["verify", "--config", cfg, "--out", str(out_dir)]) == 0
        result = json.loads((out_dir / "campaign_result.json").read_text())
        assert result["manifest"] == "manifest.json"
        assert result["total_trials"] == 16
        assert set(result["relations"]) == {"eq5", "eq7", "eq9", "eq11"}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "verify"
        assert "campaign_result.json" in manifest["outputs"]
        csv_lines = (out_dir / "slacks.csv").read_text().splitlines()
        assert csv_lines[0] == "trial,dA,dB,relation,slack"
        assert len(csv_lines) == 1 + 16 * 4

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "campaign_result.json").read_bytes() == (
            out2 / "campaign_result.json"
        ).read_bytes()
        assert (out1 / "slacks.csv").read_bytes() == (out2 / "slacks.csv").read_bytes()

    def test_workers_identical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["verify", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out2), "--workers", "3"]) == 0
        assert (out1 / "campaign_result.json").read_bytes() == (
            out2 / "campaign_result.json"
        ).read_bytes()

    def test_unknown_relation_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CAMPAIGN_CFG.replace("eq5,", "eq99,"))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "eq99" in capsys.readouterr().err

    def test_a_relation_named_twice_exit_2(self, tmp_path, capsys):
        # it ran, printed eq5 twice and wrote two equal eq5 rows per trial to slacks.csv
        cfg = write_cfg(tmp_path, CAMPAIGN_CFG.replace("eq5, eq7", "eq5, eq5"))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "relation 'eq5' is named more than once" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_key_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[campaign]\ndims = 2x2\nseed = 1\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "trials" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, CAMPAIGN_CFG + "bogus = 1\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_named_ensemble_dims_derived(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "[campaign]\ntrials = 1\nseed = 0\nrelations = eq11\nensemble = named:bell:2\n",
        )
        out = tmp_path / "named"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        result = json.loads((out / "campaign_result.json").read_text())
        assert abs(result["relations"]["eq11"]["min_slack"]) <= 1e-9

    def test_missing_config_and_replay(self, capsys):
        assert main(["verify"]) == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        cfg = write_cfg(tmp_path)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "r"), "--workers", workers]) == 2
        assert capsys.readouterr().err == f"error: --workers must be >= 1, got {workers}\n"
        assert not (tmp_path / "r").exists()

    def test_replay_of_a_state_with_the_wrong_dims_exit_2(self, tmp_path, capsys):
        from qir import serialize
        from qir.states import computational_basis, fourier_basis, werner

        point = {
            "relation": "eq9", "best_slack": 0.0, "eps": None,
            "state": {**serialize.state_to_dict(werner(0.5)), "dA": 3},
            "x": serialize.basis_to_dict(computational_basis(2)),
            "y": serialize.basis_to_dict(fourier_basis(2)),
        }
        path = tmp_path / "argmin.json"
        path.write_text(json.dumps(point))
        assert main(["verify", "--replay", str(path)]) == 2
        assert capsys.readouterr().err == "error: bad state object: dim 4 != dA*dB = 6\n"


class TestSweep:
    def test_bell_mub_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            ["sweep", "--state", "bell:2", "--x", "comp:2", "--y", "fourier:2",
             "--grid", "0:1:0.25", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eps,irreality_x,uncertainty_y,q,bound_slack"
        assert len(lines) == 6
        for line in lines[1:]:
            assert line.split(",")[1] == "0.693147181"
        assert (tmp_path / "trace.csv.manifest.json").exists()

    def test_max_mixed_trace_is_zero(self, tmp_path):
        out = tmp_path / "mixed.csv"
        code = main(
            ["sweep", "--state", "mixed:2,2", "--x", "comp:2", "--y", "fourier:2",
             "--grid", "0:1:0.5", "--out", str(out)]
        )
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            assert line.split(",")[1] == "0.000000000"

    def test_state_file_input(self, tmp_path):
        from qir import serialize
        from qir.states import werner

        state_path = tmp_path / "state.json"
        serialize.write_json(str(state_path), serialize.state_to_dict(werner(0.5)))
        out = tmp_path / "trace.csv"
        code = main(
            ["sweep", "--state", str(state_path), "--x", "comp:2", "--y", "comp:2",
             "--grid", "0:1:0.5", "--out", str(out)]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        values = [float(r[1]) for r in rows]
        assert values[0] > values[-1] >= 0.0

    def test_bad_state_file_exit_2(self, tmp_path, capsys):
        state_path = tmp_path / "bad.json"
        state_path.write_text(json.dumps({"dA": 2, "dB": 1, "dim": -1, "re": [1.0], "im": [0.0]}))
        code = main(
            ["sweep", "--state", str(state_path), "--x", "comp:2", "--y", "comp:2",
             "--grid", "0:1:0.5", "--out", str(tmp_path / "trace.csv")]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: bad matrix object: dim must be >= 1, got -1\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("dA", 1, "bad state object: need dA >= 2 and dB >= 1, got (1, 1)"),
            ("dB", 0, "bad state object: need dA >= 2 and dB >= 1, got (2, 0)"),
            ("dA", 3, "bad state object: dim 2 != dA*dB = 3"),
            ("dB", 2, "bad state object: dim 2 != dA*dB = 4"),
        ],
    )
    def test_state_file_with_the_wrong_dims_exit_2(self, tmp_path, capsys, key, value, message):
        from qir import serialize
        from qir.states import max_mixed

        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps({**serialize.state_to_dict(max_mixed(2, 1)), key: value}))
        code = main(
            ["sweep", "--state", str(state_path), "--x", "comp:2", "--y", "comp:2",
             "--grid", "0:1:0.5", "--out", str(tmp_path / "trace.csv")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_basis_file_with_the_wrong_dim_exit_2(self, tmp_path, capsys):
        from qir import serialize
        from qir.states import fourier_basis

        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps({**serialize.basis_to_dict(fourier_basis(2)), "d": 3}))
        code = main(
            ["sweep", "--state", "bell:2", "--x", str(basis_path), "--y", "comp:2",
             "--grid", "0:1:0.5", "--out", str(tmp_path / "trace.csv")]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: bad basis object: dim 2 != d = 3\n"

    @pytest.mark.parametrize("flag", ["--x", "--y"])
    def test_basis_of_the_wrong_dimension_exit_2(self, tmp_path, capsys, flag):
        args = {"--x": "comp:2", "--y": "fourier:2", flag: "comp:3"}
        code = main(
            ["sweep", "--state", "mixed:2,2", *(arg for pair in args.items() for arg in pair),
             "--grid", "0:1:0.5", "--out", str(tmp_path / "trace.csv")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag} basis dim 3 != state dA 2\n"
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("grid", ["nan:1:0.1", "0:inf:0.5", "0:1:nan", "0:1:inf", "0:2:0.5", "-0.5:1:0.5"])
    def test_grid_it_cannot_run_exit_2(self, tmp_path, capsys, grid):
        code = main(
            ["sweep", "--state", "bell:2", "--x", "comp:2", "--y", "fourier:2",
             f"--grid={grid}", "--out", str(tmp_path / "trace.csv")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: grid {grid!r} must ascend within [0, 1] with a finite positive step\n"
        )

    def test_bad_grid_and_token(self, tmp_path):
        out = str(tmp_path / "t.csv")
        args = ["sweep", "--x", "comp:2", "--y", "comp:2", "--out", out]
        assert main(args + ["--state", "bell:2", "--grid", "0-1-0.5"]) == 2
        assert main(args + ["--state", "nope:2", "--grid", "0:1:0.5"]) == 2

    def test_grid_parsing(self):
        assert parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert parse_grid("0.5:0.5:0.1") == [0.5]
        with pytest.raises(ConfigError):
            parse_grid("1:0:0.1")
        with pytest.raises(ConfigError):
            parse_grid("0:1:0")


class TestMinimize:
    def test_minimize_and_replay_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "argmin.json"
        code = main(
            ["minimize", "--relation", "eq5", "--dA", "2", "--dB", "1",
             "--restarts", "10", "--seed", "3", "--target", "1e-7", "--out", str(out)]
        )
        assert code == 0
        stored = json.loads(out.read_text())
        assert stored["relation"] == "eq5"
        assert stored["best_slack"] <= 1e-6
        assert (tmp_path / "argmin.json.manifest.json").exists()

        capsys.readouterr()
        assert main(["verify", "--replay", str(out)]) == 0
        assert "replay ok" in capsys.readouterr().out

    def test_unknown_relation_exit_2(self):
        assert main(["minimize", "--relation", "eqX", "--dA", "2", "--dB", "2"]) == 2

    @pytest.mark.parametrize("d_a, d_b", [("1", "2"), ("2", "0")])
    def test_bad_dimension_exit_2(self, tmp_path, capsys, d_a, d_b):
        out = tmp_path / "argmin.json"
        assert main(["minimize", "--relation", "eq11", "--dA", d_a, "--dB", d_b, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: need --dA >= 2 and --dB >= 1, got ({d_a}, {d_b})\n"
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "argmin.json"
        assert main(["minimize", "--relation", "eq11", "--dA", "2", "--dB", "2", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_theorem_violation_exit_3(self, monkeypatch, capsys):
        from qir import cli
        from qir.errors import TheoremViolation

        def explode(*args, **kwargs):
            raise TheoremViolation("slack -1e-3 below tolerance")

        monkeypatch.setattr(cli, "minimize_slack", explode)
        assert main(["minimize", "--relation", "eq5", "--dA", "2", "--dB", "2"]) == 3
        assert "theorem violation" in capsys.readouterr().err


def small_run(command, tmp_path, out):
    """argv of a quick ``command`` run that writes to ``out``, and its manifest path."""
    if command == "verify":
        argv = ["verify", "--config", write_cfg(tmp_path), "--out", str(out)]
        return argv, out / "manifest.json"
    if command == "sweep":
        argv = ["sweep", "--state", "bell:2", "--x", "comp:2", "--y", "fourier:2",
                "--grid", "0:1:0.5", "--out", str(out)]
    else:
        argv = ["minimize", "--relation", "eq5", "--dA", "2", "--dB", "1",
                "--restarts", "1", "--seed", "3", "--out", str(out)]
    return argv, out.with_name(out.name + ".manifest.json")


class TestRunRecord:
    # the work each command stamps around, and keywords that keep it short
    WORK = {
        "verify": ("run_campaign_records", {}),
        "sweep": ("monitoring_sweep", {}),
        "minimize": ("minimize_slack", {"max_evals": 50}),
    }

    @pytest.mark.parametrize("command", sorted(WORK))
    def test_started_and_finished_bracket_the_work(self, command, tmp_path, monkeypatch):
        from qir import cli

        name, short = self.WORK[command]
        work = getattr(cli, name)
        events = []

        def now():
            events.append("now")
            return str(len(events) - 1)

        def traced(*args, **kwargs):
            events.append("work")
            return work(*args, **kwargs, **short)

        monkeypatch.setattr(cli, "_now", now)
        monkeypatch.setattr(cli, name, traced)
        argv, manifest_path = small_run(command, tmp_path, tmp_path / "out")
        assert main(argv) == 0
        manifest = json.loads(manifest_path.read_text())
        assert int(manifest["started"]) < events.index("work") < int(manifest["finished"])

    @pytest.mark.parametrize("command", sorted(WORK))
    def test_unwritable_out_is_a_usage_error(self, command, tmp_path, capsys, monkeypatch):
        from qir import cli

        def never(*args, **kwargs):
            raise AssertionError(f"{command} ran its work before checking --out")

        monkeypatch.setattr(cli, self.WORK[command][0], never)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        argv, _ = small_run(command, tmp_path, out)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write '{out}")


class TestTolerance:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("QIR_TOL", "1e-6")
        assert resolve_tol(None) == 1e-6
        assert resolve_tol(1e-3) == 1e-3

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("QIR_TOL", "tight")
        with pytest.raises(ConfigError):
            resolve_tol(None)

    def test_default(self, monkeypatch):
        monkeypatch.delenv("QIR_TOL", raising=False)
        assert resolve_tol(None) == 1e-9

    def test_order_flag_config_env_default(self, monkeypatch):
        monkeypatch.setenv("QIR_TOL", "1e-6")
        assert resolve_tol(1e-3, 1e-7) == 1e-3
        assert resolve_tol(None, 1e-7) == 1e-7
        with pytest.raises(ConfigError, match=r"^--tol: tol must be positive and finite, got -5\.0$"):
            resolve_tol(-5.0, 1e-7)
        with pytest.raises(ConfigError, match=r"^config file: tol must be positive and finite, got 0\.0$"):
            resolve_tol(None, 0.0)

    def test_flag_beats_the_config_tol(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QIR_TOL", "1e-6")
        cfg = write_cfg(tmp_path, CAMPAIGN_CFG.replace("trials = 16", "trials = 2") + "tol = 1e-9\n")
        runs = {"flag": ["--tol", "1e-3"], "config": []}
        for name, flag in runs.items():
            out = tmp_path / name
            assert main(["verify", "--config", cfg, "--out", str(out), *flag]) == 0
            runs[name] = json.loads((out / "manifest.json").read_text())["config"]["tol"]
        assert runs == {"flag": 1e-3, "config": 1e-9}

    def test_infinite_flag_exits_2(self, capsys):
        assert main(["saturate", "--d", "2", "--tol", "inf"]) == 2
        assert capsys.readouterr().err == "error: --tol: tol must be positive and finite, got inf\n"

    def test_infinite_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("QIR_TOL", "inf")
        assert main(["saturate", "--d", "2"]) == 2
        assert capsys.readouterr().err == "error: QIR_TOL: tol must be positive and finite, got inf\n"

    def test_infinite_config_tol_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CAMPAIGN_CFG + "tol = inf\n")
        out = tmp_path / "results"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: config file: tol must be positive and finite, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["-5", "0"])
    def test_non_positive_flag_exits_2_despite_a_config_tol(self, tmp_path, capsys, tol):
        cfg = write_cfg(tmp_path, CAMPAIGN_CFG + "tol = 1e-9\n")
        out = tmp_path / "results"
        assert main(["verify", "--config", cfg, "--out", str(out), "--tol", tol]) == 2
        assert capsys.readouterr().err.startswith("error: --tol: tol must be positive")
        assert not out.exists()


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import qir

        # run from an unrelated directory: a relative PYTHONPATH would not
        # resolve there, so put the directory holding the imported package
        # in front as an absolute path
        package_root = str(Path(qir.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "qir", "saturate", "--d", "2"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0
        assert "eq11 saturated: yes" in proc.stdout

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            main(["saturate"])  # missing required --d
        assert info.value.code == 2
