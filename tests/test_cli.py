import io
import json
import math

import numpy as np
import pytest

import ppsg
from ppsg import cli
from ppsg.basis import BINOMIAL, CoefficientVector
from ppsg.cli import main
from ppsg.degrees import build_total_order
from ppsg.estimator import EstimatorConfig
from ppsg.harness import ExperimentConfig, run_sweep
from ppsg.signal import Signal, synthesize, write_signal

import cli_digest
from oracles import run_python

M01 = build_total_order([(0,), (1,)])


def _write_test_signal(path, values=(0.125, 0.25), N=(16,)):
    b = CoefficientVector(np.asarray(values), BINOMIAL, M01)
    s = synthesize(b, N)
    with open(path, "wb") as fh:
        write_signal(s, fh)
    return b


def test_crb_row_count(tmp_path, capsys):
    out = tmp_path / "crb.csv"
    code = main(
        [
            "crb",
            "--degrees",
            "[[0],[1]]",
            "--window",
            "[64]",
            "--snr-db-range",
            "0:30:5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("snr_db,crb_0,crb_1,reconstruction_bound")
    assert len(lines) == 8  # header + 7 grid points


def test_estimate_noise_free_roundtrip(tmp_path):
    sig = tmp_path / "sig.ppsg"
    out = tmp_path / "est.json"
    b = _write_test_signal(sig)
    code = main(
        [
            "estimate",
            "--input",
            str(sig),
            "--degrees",
            "[[0],[1]]",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    got = np.array(payload["binomial"]["values"])
    assert np.max(np.abs(got - b.values)) < 1e-9
    assert payload["monomial"] is None
    assert payload["binomial"]["degrees"] == [[0], [1]]


def test_estimate_basis_both(tmp_path):
    sig = tmp_path / "sig.ppsg"
    out = tmp_path / "est.json"
    _write_test_signal(sig)
    code = main(
        [
            "estimate",
            "--input",
            str(sig),
            "--degrees",
            "[[0],[1]]",
            "--basis",
            "both",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["monomial"]["basis"] == "monomial"
    assert payload["binomial"]["basis"] == "binomial"


def test_estimate_missing_input_is_validation_error(tmp_path):
    code = main(
        ["estimate", "--input", str(tmp_path / "nope.ppsg"), "--degrees", "[[0]]"]
    )
    assert code == 1


def test_unknown_flag_rejected_with_usage(capsys):
    code = main(["crb", "--degrees", "[[0]]", "--window", "[4]", "--whoops", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_bad_degrees_json(capsys):
    code = main(
        ["crb", "--degrees", "[[0],", "--window", "[4]", "--snr-db-range", "0:1:1"]
    )
    assert code == 1
    assert "--degrees" in capsys.readouterr().err


def test_weights_csv(tmp_path):
    out = tmp_path / "w.csv"
    code = main(
        ["weights", "--degree", "[1]", "--window", "[4]", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n_0,weight"
    weights = [float(line.split(",")[1]) for line in lines[1:]]
    assert weights == pytest.approx([0.3, 0.4, 0.3])


def test_simulate_writes_csv_and_sidecar(tmp_path):
    config = {
        "degrees": [[0], [1]],
        "window": [32],
        "snr_db_grid": [10.0, 20.0],
        "trials": 5,
        "parameter_mode": "zero",
        "averaging": "circular",
        "master_seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "result.csv"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    sidecar = json.loads((tmp_path / "result.csv.meta.json").read_text())
    assert sidecar["config"]["master_seed"] == 11
    assert sidecar["config"]["degrees"] == [[0], [1]]
    assert "version" in sidecar


def test_simulate_missing_field_named(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"degrees": [[0]]}))
    code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")])
    assert code == 1
    assert "window" in capsys.readouterr().err


def test_byte_identical_reruns(tmp_path):
    config = {
        "degrees": [[0], [1]],
        "window": [32],
        "snr_db_grid": [10.0],
        "trials": 8,
        "parameter_mode": "uniform_cell",
        "master_seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_crb_deterministic_output(tmp_path):
    args = [
        "crb",
        "--degrees",
        "[[0],[1],[2]]",
        "--window",
        "[32]",
        "--snr-db-range",
        "0:20:10",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_seed_env_override(tmp_path, monkeypatch):
    config = {
        "degrees": [[0]],
        "window": [8],
        "snr_db_grid": [10.0],
        "trials": 3,
        "parameter_mode": "uniform_cell",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    monkeypatch.setenv("PPSG_SEED", "99")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_env)]) == 0
    sidecar = json.loads((tmp_path / "env.csv.meta.json").read_text())
    assert sidecar["config"]["master_seed"] == 99
    # explicit flag wins over the environment
    assert (
        main(
            [
                "simulate",
                "--config",
                str(cfg_path),
                "--out",
                str(out_flag),
                "--seed",
                "7",
            ]
        )
        == 0
    )
    sidecar = json.loads((tmp_path / "flag.csv.meta.json").read_text())
    assert sidecar["config"]["master_seed"] == 7


_CRB = ["crb", "--snr-db-range", "0:10:5"]
_CRB_RANGE = ["crb", "--degrees", "[[0]]", "--window", "[8]", "--snr-db-range"]

_HUGE_WINDOW = json.dumps([10**15])

# The input is never read: every row with it fails on its flags first.
_ESTIMATE = ["estimate", "--input", "unread.ppsg", "--degrees", "[[0]]"]

_SIM_CONFIG = {
    "degrees": [[0], [1]],
    "window": [16],
    "snr_db_grid": [10.0],
    "trials": 2,
    "parameter_mode": "zero",
}


@pytest.mark.parametrize(
    "args,config,field",
    [
        (["simulate"], {"lags": [1, 2]}, "lags"),
        (["simulate"], {"parameter_mode": "fixed", "fixed_coefficients": 5}, "fixed_coefficients"),
        (["simulate"], {"snr_db_grid": 5}, "snr_db_grid"),
        (["simulate"], {"trials": [2]}, "trials"),
        (["simulate"], {"averaging": ["linear"]}, "averaging"),
        (["simulate"], {"degrees": [[0], [1], [2]], "window": [2]}, "window"),
        (
            ["simulate"],
            {"degrees": [[0], [2]], "general_degree_handling": "false"},
            "general_degree_handling",
        ),
        (
            ["simulate"],
            {"parameter_mode": "fixed", "fixed_coefficients": "01"},
            "fixed_coefficients",
        ),
        (["simulate"], {"snr_db_grid": "05"}, "snr_db_grid"),
        (["weights", "--degree", "5", "--window", "[8]"], None, "--degree"),
        (["weights", "--degree", '["a"]', "--window", "[8]"], None, "--degree"),
        (["weights", "--degree", "[1]", "--lag", "3", "--window", "[8]"], None, "--lag"),
        (["weights", "--degree", "[1.9]", "--window", "[8.7]"], None, "--degree"),
        (["weights", "--degree", "[1]", "--window", "[8.7]"], None, "--window"),
        (_CRB + ["--degrees", "[[0],[1.5]]", "--window", "[8]"], None, "--degrees"),
        (_CRB + ["--degrees", "[[0],[1]]", "--window", "[8,8]"], None, "--window"),
        (["simulate"], {"trials": 2.9}, "trials"),
        (["simulate"], {"master_seed": "7"}, "master_seed"),
        (["simulate"], {"lags": [[1], "2"]}, "lags"),
        (["simulate"], {"window": ["8"]}, "window"),
        (["simulate"], {"degrees": [[0], [1.5]]}, "degrees"),
        (["weights", "--degree", "[true]", "--window", "[3]"], None, "--degree"),
        (["simulate"], {"trials": True}, "trials"),
        (["simulate"], {"snr_db_grid": [math.nan]}, "snr_db_grid"),
        (["simulate"], {"snr_db_grid": [1e308]}, "snr_db_grid"),
        (["simulate"], {"snr_db_grid": [-1e308]}, "snr_db_grid"),
        (["simulate"], {"snr_db_grid": [-math.inf]}, "snr_db_grid"),
        (["simulate"], {"snr_db_grid": [math.inf]}, "snr_db_grid"),
        (
            ["simulate"],
            {"parameter_mode": "fixed", "fixed_coefficients": [math.nan, 0.1]},
            "fixed_coefficients",
        ),
        (_CRB_RANGE + ["0:nan:5"], None, "--snr-db-range"),
        (_CRB_RANGE + ["0:inf:5"], None, "--snr-db-range"),
        (_CRB_RANGE + ["nan:10:5"], None, "--snr-db-range"),
        (_CRB_RANGE + ["0:10:nan"], None, "--snr-db-range"),
        (["simulate"], {"averging": "linear"}, "'averging'"),
        (["simulate"], {"lag": [[1], [2]]}, "'lag'"),
        (["simulate"], 5, "--config"),
        (["simulate"], [[1]], "--config"),
        (["simulate"], {"fixed_coefficients": [0.1, 0.2]}, "fixed_coefficients"),
        (_CRB_RANGE + ["3100:3100:1"], None, "--snr-db-range"),
        (_CRB_RANGE[:-1] + ["--snr-db-range=-3100:-3100:1"], None, "--snr-db-range"),
        (_CRB_RANGE + ["0:3100:3100"], None, "--snr-db-range"),
        (_CRB_RANGE + ["0:1e12:1e-3"], None, "--snr-db-range"),
        (_CRB_RANGE[:-1] + ["--snr-db-range=-1e308:1e308:1"], None, "--snr-db-range"),
        (["weights", "--degree", "[1]", "--window", _HUGE_WINDOW], None, "--window"),
        (_CRB + ["--degrees", "[[0],[1]]", "--window", _HUGE_WINDOW], None, "--window"),
        (["simulate"], {"window": [10**15]}, "window"),
        (_ESTIMATE + ["--averaging", "kay"], None, "--averaging"),
        (_ESTIMATE + ["--averaging", "lw"], None, "--averaging"),
        (["simulate"], {"averaging": "lw"}, "averaging"),
        (
            ["crb", "--degrees", "[[0],[400]]", "--window", "[1000]", "--snr-db-range", "0:0:1"],
            None,
            "--degrees: degrees up to (400,) on window (1000,) overflow the Fisher matrix",
        ),
        (
            _CRB + ["--degrees", json.dumps([[d] for d in range(9)]), "--window", "[9]",
                    "--snr-db-range=-3070:-3070:1"],
            None,
            "--degrees: degrees up to (8,) on window (9,) overflow the CRB",
        ),
        (
            ["weights", "--degree", "[1]", "--window", "[0]"],
            None,
            "--window: window entries must be positive, got (0,)",
        ),
        (_CRB_RANGE + ["0:10"], None, "--snr-db-range: expected start:stop:step"),
        (_CRB_RANGE + ["0:ten:5"], None, "--snr-db-range: non-numeric bound"),
        (_CRB_RANGE + ["0:10:0"], None, "--snr-db-range: step must be positive"),
        (_CRB_RANGE + ["10:0:1"], None, "--snr-db-range: empty range"),
        (
            ["weights", "--degree", "[3]", "--window", "[3]"],
            None,
            "window (3,) too small for order (3,)",
        ),
    ],
    ids=[
        "scalar-lags",
        "scalar-fixed-coefficients",
        "scalar-snr-grid",
        "list-trials",
        "list-averaging",
        "small-window",
        "string-general-flag",
        "string-fixed-coefficients",
        "string-snr-grid",
        "scalar-degree",
        "string-degree",
        "scalar-lag",
        "float-degree-and-window",
        "float-window",
        "crb-float-degree",
        "crb-window-dim-mismatch",
        "float-trials",
        "string-master-seed",
        "string-lag-entry",
        "string-window-entry",
        "float-degree-entry",
        "bool-degree",
        "bool-trials",
        "nan-snr-db",
        "huge-snr-db",
        "minus-huge-snr-db",
        "minus-inf-snr-db",
        "inf-snr-db",
        "nan-fixed-coefficient",
        "crb-nan-stop",
        "crb-inf-stop",
        "crb-nan-start",
        "crb-nan-step",
        "misspelt-field",
        "lag-for-lags",
        "scalar-config",
        "list-config",
        "fixed-coefficients-in-zero-mode",
        "crb-overflowing-snr",
        "crb-vanishing-snr",
        "crb-overflow-after-first-row",
        "crb-too-many-points",
        "crb-point-count-overflows",
        "weights-oversized-window",
        "crb-oversized-window",
        "oversized-window",
        "retired-averaging-kay",
        "retired-averaging-lw",
        "retired-averaging-in-config",
        "crb-fisher-past-float64",
        "crb-past-float64",
        "zero-window-entry",
        "crb-two-field-range",
        "crb-non-numeric-range",
        "crb-zero-step",
        "crb-empty-range",
        "weights-window-below-degree",
    ],
)
def test_bad_input_exits_1_naming_the_field(tmp_path, capsys, args, config, field):
    if config is not None:
        path = tmp_path / "cfg.json"
        config = {**_SIM_CONFIG, **config} if isinstance(config, dict) else config
        path.write_text(json.dumps(config))
        args = args + ["--config", str(path), "--out", str(tmp_path / "r.csv")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert field in captured.err
    assert "internal error" not in captured.err
    assert captured.out == ""  # no partial CSV
    assert not (tmp_path / "r.csv").exists()


def test_crb_negative_start_needs_the_equals_form(capsys):
    assert main(_CRB_RANGE + ["-10:10:2.5"]) == 1  # argparse reads -10:10:2.5 as a flag
    capsys.readouterr()
    assert main(_CRB_RANGE[:-1] + ["--snr-db-range=-10:10:2.5"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [-10 + 2.5 * i for i in range(9)]


def test_simulate_runs_non_closed_degrees_like_run_sweep(tmp_path):
    config = {**_SIM_CONFIG, "degrees": [[0], [2]], "parameter_mode": "uniform_cell"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, "master_seed": 5}))
    out = tmp_path / "r.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    M02 = build_total_order([(0,), (2,)])
    library = ExperimentConfig(
        degree_set=M02,
        window=(16,),
        snr_db_grid=(10.0,),
        trials=2,
        parameter_mode="uniform_cell",
        estimator_config=EstimatorConfig(M02),
        master_seed=5,
    )
    expected = io.StringIO()
    run_sweep(library).write_csv(expected)
    assert out.read_bytes().decode() == expected.getvalue()
    sidecar = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert sidecar["config"]["degrees"] == [[0], [2]]
    assert "general_degree_handling" not in sidecar["config"]


@pytest.mark.parametrize("mode", ["zero", "uniform_cell", "fixed"])
def test_simulate_sidecar_config_reruns_the_sweep(tmp_path, mode):
    config = {**_SIM_CONFIG, "parameter_mode": mode, "snr_db_grid": [0.0, 10.0], "trials": 3}
    if mode == "fixed":
        config["fixed_coefficients"] = [0.1, -0.2]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    first = tmp_path / "first.csv"
    assert main(["simulate", "--config", str(path), "--out", str(first), "--seed", "9"]) == 0
    sidecar = json.loads((tmp_path / "first.csv.meta.json").read_text())
    path.write_text(json.dumps(sidecar["config"]))
    second = tmp_path / "second.csv"
    assert main(["simulate", "--config", str(path), "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()
    assert json.loads((tmp_path / "second.csv.meta.json").read_text())["config"] == sidecar["config"]


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_estimate_extreme_magnitudes_exits_0(tmp_path, scale):
    M = build_total_order([(0,), (1,), (2,)])
    b = CoefficientVector(np.array([0.0, 0.05, 0.1]), BINOMIAL, M)
    s = synthesize(b, (16,))
    sig, out = tmp_path / "sig.ppsg", tmp_path / "est.json"
    with open(sig, "wb") as fh:
        write_signal(Signal(s.window, scale * s.data), fh)
    args = ["estimate", "--input", str(sig), "--degrees", "[[0],[1],[2]]", "--out", str(out)]
    assert main(args) == 0
    got = np.array(json.loads(out.read_text())["binomial"]["values"])
    assert np.max(np.abs(got - b.values)) < 1e-12


@pytest.mark.parametrize("case", ["empty", "short_header", "short_payload", "nan_sample"])
def test_estimate_bad_signal_file_exits_1(tmp_path, capsys, case):
    sig = tmp_path / "sig.ppsg"
    _write_test_signal(sig)
    raw = sig.read_bytes()
    if case == "nan_sample":
        raw = raw[:-16] + np.array([np.nan + 0j], dtype="<c16").tobytes()
    else:
        raw = {"empty": b"", "short_header": raw[:5], "short_payload": raw[:-16]}[case]
    sig.write_bytes(raw)
    assert main(["estimate", "--input", str(sig), "--degrees", "[[0],[1]]"]) == 1
    err = capsys.readouterr().err
    assert ("non-finite" if case == "nan_sample" else "--input") in err


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_non_integer_seed_env_exits_1_naming_it(tmp_path, capsys, monkeypatch, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_SIM_CONFIG))
    monkeypatch.setenv("PPSG_SEED", value)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert "PPSG_SEED" in err
    assert "internal error" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["selftest"],
        ["simulate", "--config", "cfg.json", "--threads", "2"],
        ["estimate", "--input", "sig.ppsg", "--degrees", "[[0]]", "--seed", "3"],
        _CRB_RANGE + ["0:10:5", "--seed", "3"],
        ["weights", "--degree", "[1]", "--window", "[8]", "--seed", "3"],
    ],
    ids=["selftest", "simulate-threads", "estimate-seed", "crb-seed", "weights-seed"],
)
def test_removed_surface_is_rejected(capsys, args):
    assert main(args) == 1
    assert "usage" in capsys.readouterr().err.lower()
    removed = {
        "NoiseCovariance",
        "covariance_matrix",
        "weight_via_inversion",
        "estimate_coefficients",
        "estimate_coefficients_multilag",
        "estimate_coefficients_general",
        "phase_diff",
        "finite_difference",
        "arg_field",
        "project_unit_circle",
        "weight_1d",
        "eval_binomial",
        "eval_monomial",
        "binomial_transform",
        "multi_binom",
        "binom",
        "orthogonal_poly",
        "decomposition",
        "DecompositionPair",
        "tr_kj",
        "naive_penalty",
        "parameter_invariance_witness",
        "empirical_covariance",
        "FisherMatrix",
        "ChangeOfBasis",
    }
    assert removed.isdisjoint(ppsg.__all__)


@pytest.mark.parametrize(
    "kind,message",
    [
        ("directory", "--config"),
        ("non-utf8", "--config"),
        ("invalid-json", "--config: invalid JSON"),
    ],
    ids=["directory", "non-utf8", "invalid-json"],
)
def test_simulate_unreadable_config_exits_1(tmp_path, capsys, kind, message):
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{" if kind == "non-utf8" else b'{"degrees": [[0]],')
    out = tmp_path / "r.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "internal error" not in captured.err
    assert not out.exists()


def test_monomial_output_needs_a_closed_set(tmp_path, capsys):
    path = tmp_path / "s.ppsg"
    _write_test_signal(path)
    args = ["estimate", "--input", str(path), "--basis", "monomial", "--degrees"]
    assert main(args + ["[[0],[1]]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["binomial"] is None and payload["monomial"]["basis"] == "monomial"
    assert main(args + ["[[0],[2]]"]) == 1
    captured = capsys.readouterr()
    assert "flag --basis: monomial output needs a downward-closed degree set" in captured.err
    assert captured.out == ""


def test_unexpected_exception_exits_2(monkeypatch, capsys):
    def fail(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "weight_multi", fail)
    assert main(["weights", "--degree", "[1]", "--window", "[8]"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "ppsg: internal error: boom\n"
    assert captured.out == ""


def test_version_without_git_is_the_package_version(monkeypatch):
    def no_git(*args, **kwargs):
        raise OSError("no git")

    monkeypatch.setattr(cli.subprocess, "run", no_git)
    assert cli._version_string() == f"ppsg {ppsg.__version__}"


def test_run_exits_with_the_code_of_main(monkeypatch, capsys):
    monkeypatch.setattr(cli.sys, "argv", ["ppsg", "weights", "--degree", "[3]", "--window", "[3]"])
    with pytest.raises(SystemExit) as exit_info:
        cli.run()
    assert exit_info.value.code == 1
    assert "too small" in capsys.readouterr().err


def test_window_limit_admits_its_bound():
    assert cli._window([2**24]) == (2**24,)
    assert cli._window([2**12, 2**12]) == (2**12, 2**12)
    with pytest.raises(ValueError, match="more than"):
        cli._window([2**24 + 1])


def test_cli_digest_is_reproducible_in_one_process():
    # tests/cli_digest.py is the byte-identity check of the fixed-seed CLI
    # outputs; it must give the same digests each time it runs.
    first = cli_digest.digests()
    assert len(first) == 17
    assert cli_digest.digests() == first


def test_cli_outputs_match_the_golden_digests():
    # The committed digests hold under the Python and numpy they name.
    header, golden = cli_digest.read_golden()
    here = cli_digest.environment()
    if header != here:
        pytest.skip(f"golden digests are for {header[2:]}, this is {here[2:]}")
    assert cli_digest.digests() == golden


def test_cli_digest_compare_reads_number_differences(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "x.csv").write_text("snr_db,mse\n-10.0,1.5e-3\n5,nan\n")
    (b / "x.csv").write_text("snr_db,mse\n-10.0,1.25e-3\n5,nan\n")
    (a / "y.json").write_text('{"v": [1, 2]}')
    (b / "y.json").write_text('{"w": [1, 2]}')
    (a / "z.json").write_text("{}")
    assert cli_digest.compare(a, b) == {
        "x.csv": "0.00025",
        "y.json": "text differs",
        "z.json": f"missing from {b}",
    }


def test_no_route_loads_scipy(tmp_path):
    # The package needs numpy alone: a cold scipy.linalg import took 100
    # times longer than the first non-closed estimate in a fresh process.
    code = f"""
import sys
import numpy as np
import ppsg
from ppsg.cli import main

M, M02 = ppsg.build_total_order([(0,), (1,), (2,)]), ppsg.build_total_order([(0,), (2,)])
b = ppsg.CoefficientVector(np.array([0.1, -0.2, 0.3]), ppsg.BINOMIAL, M)
y = ppsg.synthesize(b, (1000,))
assert np.allclose(ppsg.estimate(y, ppsg.EstimatorConfig(M)).binomial.values, b.values)
ppsg.estimate(y, ppsg.EstimatorConfig(M, lags=((1,), (2,), (4,))))
ppsg.estimate(y, ppsg.EstimatorConfig(M02))
ppsg.estimate_coefficients_direct(y, ppsg.EstimatorConfig(M))
ppsg.crb(M, (1000,), 10.0)
ppsg.weight_multi((2,), (1,), (64,))
ppsg.run_sweep(ppsg.ExperimentConfig(
    degree_set=M02, window=(64,), snr_db_grid=(0.0, 10.0), trials=20, parameter_mode="zero",
    estimator_config=ppsg.EstimatorConfig(M02), master_seed=1,
), workers=1)
with open({str(tmp_path / "y.ppsg")!r}, "wb") as fh:
    ppsg.write_signal(y, fh)
out = {str(tmp_path / "out")!r}
assert main(["estimate", "--input", fh.name, "--degrees", "[[0],[2]]", "--out", out]) == 0
assert main(["crb", "--degrees", "[[0],[1]]", "--window", "[64]", "--snr-db-range", "0:10:5",
             "--out", out]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
