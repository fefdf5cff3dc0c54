"""Command-line interface: estimate, simulate, crb, weights.

Structured inputs and outputs are JSON; curve data is CSV so golden files
diff cleanly.  Exit codes: 0 success, 1 validation error (bad flags or
config, with a diagnostic naming the offending field), 2 runtime error.
Only ``simulate`` is random: its seed is the config's ``master_seed``, else
``--seed``, else the ``PPSG_SEED`` environment variable, else 0.  Its config
is a JSON object of the fields it reads; any other field is a validation
error.  A negative start is written ``--snr-db-range=-10:10:2.5``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .analysis import crb_grid
from .analysis import reconstruction_bound
from .basis import binomial_to_monomial_matrix, compute_new_coordinate
from .degrees import DegreeSet, as_index, as_int, diff_window
from .estimator import AveragingKind, EstimatorConfig, estimate
from .harness import ExperimentConfig, run_sweep, snr_db_to_linear
from .signal import read_signal
from .weights import weight_multi

_AVERAGING_NAMES = {kind.value: kind for kind in AveragingKind}


class CliValidationError(Exception):
    """Bad flags or config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliValidationError(f"{message}\n{self.format_usage()}")


def _flag(name: str, raw: str, convert):
    """One JSON flag, decoded and converted; any failure names the flag."""
    try:
        return convert(json.loads(raw))
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise CliValidationError(f"flag {name}: {exc}") from exc


def _window(raw) -> tuple[int, ...]:
    window = as_index(raw)
    if not window or min(window) < 1:
        raise ValueError(f"window entries must be positive, got {window}")
    if math.prod(window) > _MAX_WINDOW_POINTS:
        raise ValueError(f"window {window} holds more than {_MAX_WINDOW_POINTS} samples")
    return window


def _lags(raw) -> tuple[tuple[int, ...], ...]:
    return tuple(map(as_index, raw))


# The most points a --snr-db-range grid may hold; it is built whole before use.
_MAX_SNR_POINTS = 10**6
# The most samples a window may hold; checked before anything is allocated.
_MAX_WINDOW_POINTS = 2**24


def _snr_range(raw: str) -> tuple[float, ...]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise CliValidationError("flag --snr-db-range: expected start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise CliValidationError("flag --snr-db-range: non-numeric bound") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise CliValidationError("flag --snr-db-range: bounds and step must be finite")
    if step <= 0:
        raise CliValidationError("flag --snr-db-range: step must be positive")
    count = np.floor((stop - start) / step + 1e-9) + 1  # may overflow to +-inf
    if count < 1:
        raise CliValidationError("flag --snr-db-range: empty range")
    if not count <= _MAX_SNR_POINTS:
        raise CliValidationError(f"flag --snr-db-range: more than {_MAX_SNR_POINTS} points")
    return tuple(start + i * step for i in range(int(count)))


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _effective_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PPSG_SEED", "0")
    try:
        return int(env)
    except ValueError as exc:
        raise CliValidationError(f"environment PPSG_SEED: not an integer: {env!r}") from exc


def _version_string() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"ppsg {__version__} ({out.stdout.strip()})"
    except OSError:
        pass
    return f"ppsg {__version__}"


# -- Subcommands -----------------------------------------------------------------


def _cmd_estimate(args: argparse.Namespace) -> int:
    degree_set = _flag("--degrees", args.degrees, DegreeSet.from_json)
    lags = () if args.lags is None else _flag("--lags", args.lags, _lags)
    try:
        with open(args.input, "rb") as fh:
            sig = read_signal(fh)
    except (OSError, ValueError) as exc:
        raise CliValidationError(f"flag --input: {exc}") from exc
    try:
        cfg = EstimatorConfig(degree_set, _AVERAGING_NAMES[args.averaging], lags)
        est = estimate(sig, cfg)
    except ValueError as exc:
        raise CliValidationError(str(exc)) from exc
    payload = est.to_json()  # estimate fills only the binomial basis
    if args.basis != "binomial":
        if not degree_set.is_downward_closed():
            raise CliValidationError(
                "flag --basis: monomial output needs a downward-closed degree set"
            )
        T = binomial_to_monomial_matrix(degree_set)
        payload["monomial"] = compute_new_coordinate(est.binomial, T).to_json()
    if args.basis == "monomial":
        payload["binomial"] = None
    with _open_out(args.out) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0


_REQUIRED = object()


def _config_field(config: dict, name: str, convert=lambda v: v, default=_REQUIRED):
    """One simulate-config field, taken out of ``config`` and converted; any
    failure names the field.  What no call takes out is an unknown field."""
    if name not in config:
        if default is _REQUIRED:
            raise CliValidationError(f"config field {name!r} is missing")
        return default
    try:
        return convert(config.pop(name))
    except (TypeError, ValueError) as exc:
        raise CliValidationError(f"config field {name!r}: {exc}") from exc


def _json_numbers(raw) -> tuple:
    if not isinstance(raw, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw
    ):
        raise TypeError(f"expected a list of numbers, got {raw!r}")
    return tuple(raw)


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliValidationError(f"flag --config: invalid JSON ({exc})") from exc
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise CliValidationError(f"flag --config: {exc}") from exc
    if not isinstance(config, dict):
        raise CliValidationError(
            f"flag --config: expected a JSON object, got {type(config).__name__}"
        )

    degree_set = _config_field(config, "degrees", DegreeSet.from_json)
    window = _config_field(config, "window", _window)
    averaging = _config_field(config, "averaging", AveragingKind, AveragingKind.CIRCULAR)
    lags = _config_field(config, "lags", _lags, ())
    snr_db_grid = _config_field(config, "snr_db_grid", _json_numbers)
    trials = _config_field(config, "trials", as_int)
    parameter_mode = _config_field(config, "parameter_mode", str)
    master_seed = _config_field(config, "master_seed", as_int, _effective_seed(args))
    # null reads as absent, as a sidecar writes it outside the fixed mode
    fixed_coefficients = _config_field(
        config, "fixed_coefficients", lambda v: None if v is None else _json_numbers(v), None
    )
    if config:
        raise CliValidationError(f"config field {next(iter(config))!r} is unknown")
    try:
        est_cfg = EstimatorConfig(degree_set=degree_set, averaging=averaging, lags=lags)
        exp_cfg = ExperimentConfig(
            degree_set=degree_set,
            window=window,
            snr_db_grid=snr_db_grid,
            trials=trials,
            parameter_mode=parameter_mode,
            estimator_config=est_cfg,
            master_seed=master_seed,
            fixed_coefficients=fixed_coefficients,
        )
    except ValueError as exc:
        raise CliValidationError(f"config: {exc}") from exc

    result = run_sweep(exp_cfg)
    with _open_out(args.out) as fh:
        result.write_csv(fh)
    if args.out is not None:
        sidecar = {
            "version": _version_string(),
            "config": {
                "degrees": degree_set.to_json(),
                "window": list(window),
                "snr_db_grid": list(exp_cfg.snr_db_grid),
                "trials": exp_cfg.trials,
                "parameter_mode": exp_cfg.parameter_mode,
                "fixed_coefficients": list(exp_cfg.fixed_coefficients or ()) or None,
                "averaging": averaging.value,
                "lags": [list(t) for t in est_cfg.lags],
                "master_seed": exp_cfg.master_seed,
            },
        }
        with open(args.out + ".meta.json", "w") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_crb(args: argparse.Namespace) -> int:
    degree_set = _flag("--degrees", args.degrees, DegreeSet.from_json)
    window = _flag("--window", args.window, _window)
    grid = _snr_range(args.snr_db_range)
    try:
        snrs = [snr_db_to_linear(snr_db) for snr_db in grid]
    except ValueError as exc:
        raise CliValidationError(f"flag --snr-db-range: {exc}") from exc
    try:
        diff_window(window, degree_set.max_degree)
    except ValueError as exc:
        raise CliValidationError(f"flag --window: {exc}") from exc
    try:
        diags = [np.diag(crb) for crb in crb_grid(degree_set, window, snrs)]
    except ValueError as exc:
        raise CliValidationError(f"flag --degrees: {exc}") from exc
    labels = ["crb_" + "_".join(str(v) for v in m) for m in degree_set.degrees]
    with _open_out(args.out) as fh:
        fh.write(",".join(["snr_db"] + labels + ["reconstruction_bound"]) + "\n")
        for snr_db, snr, diag in zip(grid, snrs, diags):
            bound = reconstruction_bound(degree_set, snr)
            row = [repr(float(snr_db))] + [repr(float(v)) for v in diag] + [repr(bound)]
            fh.write(",".join(row) + "\n")
    return 0


def _cmd_weights(args: argparse.Namespace) -> int:
    degree = _flag("--degree", args.degree, as_index)
    window = _flag("--window", args.window, _window)
    lag = 1 if args.lag is None else _flag("--lag", args.lag, as_index)
    try:
        field = weight_multi(degree, lag, window)
    except ValueError as exc:
        raise CliValidationError(str(exc)) from exc
    with _open_out(args.out) as fh:
        fh.write(",".join([f"n_{d}" for d in range(len(window))] + ["weight"]) + "\n")
        for idx in np.ndindex(*field.window):
            fh.write(",".join([str(v) for v in idx] + [repr(float(field.data[idx]))]) + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ppsg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate coefficients from a signal file")
    p_est.add_argument("--input", required=True, help="signal file (PPSG binary)")
    p_est.add_argument("--degrees", required=True, help="JSON array of degree arrays")
    p_est.add_argument("--averaging", default="circular", choices=tuple(_AVERAGING_NAMES))
    p_est.add_argument("--lags", default=None, help="JSON array of lag arrays")
    p_est.add_argument(
        "--basis", default="binomial", choices=("binomial", "monomial", "both")
    )
    p_est.add_argument("--out", default=None)
    p_est.set_defaults(handler=_cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo sweep from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_crb = sub.add_parser("crb", help="CRB diagonal and reconstruction bound vs SNR")
    p_crb.add_argument("--degrees", required=True)
    p_crb.add_argument("--window", required=True)
    p_crb.add_argument(
        "--snr-db-range",
        required=True,
        help="start:stop:step, inclusive; write a negative start as --snr-db-range=-10:10:2.5",
    )
    p_crb.add_argument("--out", default=None)
    p_crb.set_defaults(handler=_cmd_crb)

    p_w = sub.add_parser("weights", help="dump an averaging weight field as CSV")
    p_w.add_argument("--degree", required=True, help="JSON multi-index, e.g. [1]")
    p_w.add_argument("--lag", default=None, help="JSON multi-index lag")
    p_w.add_argument("--window", required=True)
    p_w.add_argument("--out", default=None)
    p_w.set_defaults(handler=_cmd_weights)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except CliValidationError as exc:
        print(f"ppsg: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"ppsg: internal error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main(sys.argv[1:]))
