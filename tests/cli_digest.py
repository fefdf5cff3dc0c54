"""Digest the fixed-seed outputs of the ``ppsg`` CLI.

Runs ``simulate``, ``crb``, ``weights`` and ``estimate`` through
``ppsg.cli.main`` with fixed seeds on small windows, in a temporary
directory, and prints the sha256 of each output file, sorted by name.  The
sidecar's ``version`` field names the checkout, so it is left out.  Two trees
that print the same lines write byte-identical outputs.  ``--keep DIR`` also
writes the outputs to DIR, so two trees that differ can be compared number
by number: ``--compare DIR_A DIR_B`` prints, for each output, the largest
absolute difference between the numbers of its two copies, read in order.

The digest listing starts with a header naming the Python and numpy
versions, which the bytes depend on.  ``cli_digest.golden`` holds the
committed listing, which the tests compare against under those versions; a
change that moves the outputs on purpose rewrites it with the second command.

    PYTHONPATH=src python tests/cli_digest.py [--keep DIR]
    PYTHONPATH=src python tests/cli_digest.py > tests/cli_digest.golden
    PYTHONPATH=src python tests/cli_digest.py --compare DIR_A DIR_B
"""

import argparse
import hashlib
import json
import math
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from ppsg.basis import BINOMIAL, CoefficientVector
from ppsg.cli import main
from ppsg.degrees import build_total_order
from ppsg.signal import add_noise, synthesize, write_signal

_KINDS = ("linear", "circular")

_SIMULATE = {
    "simulate-1d-circular": {
        "degrees": [[0], [1], [2]],
        "window": [32],
        "snr_db_grid": [0.0, 10.0],
        "trials": 20,
        "parameter_mode": "uniform_cell",
        "averaging": "circular",
        "master_seed": 3,
    },
    "simulate-2d-linear-lags": {
        "degrees": [[0, 0], [0, 1], [1, 0]],
        "window": [10, 9],
        "snr_db_grid": [5.0],
        "trials": 10,
        "parameter_mode": "uniform_cell",
        "averaging": "linear",
        "lags": [[1, 1], [2, 2]],
        "master_seed": 4,
    },
    "simulate-fixed-non-closed": {
        "degrees": [[0], [2]],
        "window": [16],
        "snr_db_grid": [10.0],
        "trials": 10,
        "parameter_mode": "fixed",
        "fixed_coefficients": [0.1, -0.2],
        "master_seed": 5,
    },
}

_CRB = {
    "crb-1d": ["--degrees", "[[0],[1],[2]]", "--window", "[32]", "--snr-db-range=-10:20:5"],
    "crb-2d": ["--degrees", "[[0,0],[0,1],[1,0]]", "--window", "[8,7]", "--snr-db-range", "0:5:5"],
    # Its Gram sums pass 2^53, so this pins the exactly rounded Fisher matrix.
    "crb-1d-2e20": [
        "--degrees", "[[0],[1],[2],[3]]", "--window", "[1048576]", "--snr-db-range", "0:30:10"
    ],
}

_WEIGHTS = {
    "weights-1d": ["--degree", "[2]", "--window", "[16]"],
    "weights-2d-lag": ["--degree", "[1,1]", "--lag", "[2,1]", "--window", "[8,7]"],
}

# name: (degrees, window, coefficients, extra estimate flags)
_SIGNALS = {
    "1d-lags": (
        [(0,), (1,), (2,)],
        (64,),
        [0.3, -0.2, 0.05],
        ["--basis", "both", "--lags", "[[1],[2],[4]]"],
    ),
    "2d-lags": (
        [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)],
        (12, 10),
        [0.25, -0.3, 0.1, 0.02, -0.04, 0.03],
        ["--lags", "[[1,1],[2,2]]"],
    ),
    "non-closed": ([(0,), (2,)], (32,), [-0.4, 0.07], []),
}


def _run(*args: str) -> None:
    code = main(list(args))
    if code:
        raise RuntimeError(f"ppsg {' '.join(args)} exited {code}")


def _outputs(work: Path) -> dict[str, bytes]:
    out: dict[str, bytes] = {}
    for name, config in _SIMULATE.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(config))
        _run("simulate", "--config", str(path), "--out", str(work / f"{name}.csv"))
        out[f"{name}.csv"] = (work / f"{name}.csv").read_bytes()
        sidecar = json.loads((work / f"{name}.csv.meta.json").read_text())
        del sidecar["version"]
        out[f"{name}.csv.meta.json"] = json.dumps(sidecar, indent=2).encode()
    for command, cases in (("crb", _CRB), ("weights", _WEIGHTS)):
        for name, args in cases.items():
            _run(command, *args, "--out", str(work / f"{name}.csv"))
            out[f"{name}.csv"] = (work / f"{name}.csv").read_bytes()
    for seed, (name, (degrees, window, values, flags)) in enumerate(_SIGNALS.items()):
        M = build_total_order(degrees)
        clean = synthesize(CoefficientVector(np.array(values), BINOMIAL, M), window)
        signal = work / f"{name}.ppsg"
        with open(signal, "wb") as fh:
            write_signal(add_noise(clean, 10.0, np.random.default_rng(seed)), fh)
        args = ["estimate", "--input", str(signal), "--degrees", json.dumps(degrees), *flags]
        for kind in _KINDS:
            est = work / f"estimate-{name}-{kind}.json"
            _run(*args, "--averaging", kind, "--out", str(est))
            out[est.name] = est.read_bytes()
    return out


def digests(keep: Path | None = None) -> dict[str, str]:
    """The sha256 of every output, by output name; ``keep`` is a directory
    that also receives each output under its name."""
    with tempfile.TemporaryDirectory() as work:
        outputs = _outputs(Path(work))
    if keep is not None:
        keep.mkdir(parents=True, exist_ok=True)
        for name, data in outputs.items():
            (keep / name).write_bytes(data)
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())}


GOLDEN = Path(__file__).with_name("cli_digest.golden")


def environment() -> str:
    """The header line of a digest listing."""
    return f"# python {platform.python_version()} numpy {np.__version__}"


def read_golden() -> tuple[str, dict[str, str]]:
    """The header and the digests, by output name, of :data:`GOLDEN`."""
    header, *lines = GOLDEN.read_text().splitlines()
    return header, {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf|NaN|Infinity)\b")


def max_abs_difference(a: str, b: str) -> float | None:
    """The largest |x - y| over the numbers of two texts, paired in order
    (inf where one is NaN and the other is not), or None when the texts
    differ outside their numbers."""
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return None
    pairs = zip(_NUMBER.findall(a), _NUMBER.findall(b))
    gaps = [0.0 if x == y else abs(float(x) - float(y)) for x, y in pairs]
    return max((math.inf if math.isnan(g) else g for g in gaps), default=0.0)


def compare(first: Path, second: Path) -> dict[str, str]:
    """For each output name in either tree, its largest number difference,
    ``text differs`` or the tree it is missing from."""
    out = {}
    for name in sorted({p.name for p in first.iterdir()} | {p.name for p in second.iterdir()}):
        a, b = first / name, second / name
        if not (a.exists() and b.exists()):
            out[name] = f"missing from {second if a.exists() else first}"
            continue
        gap = max_abs_difference(a.read_text(), b.read_text())
        out[name] = "text differs" if gap is None else f"{gap:.3g}"
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Digest the fixed-seed CLI outputs.")
    parser.add_argument("--keep", type=Path, metavar="DIR", help="also write the outputs to DIR")
    parser.add_argument(
        "--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
        help="print each output's largest number difference between two --keep trees",
    )
    args = parser.parse_args()
    if args.compare:
        for name, gap in compare(*args.compare).items():
            sys.stdout.write(f"{gap}  {name}\n")
    else:
        sys.stdout.write(environment() + "\n")
        for name, digest in digests(args.keep).items():
            sys.stdout.write(f"{digest}  {name}\n")
