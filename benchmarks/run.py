"""Benchmark for ppsg: three closed-loop workloads, timed end to end, with a
traced mode that times each library layer from outside.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep_64 --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
operation untraced and traced in turn, checks that both give byte-identical
outputs, and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full record (machine
block, sample counts, the tail percentile used, accuracy figures).  Both are
also written under ``.bench_out/``.  The exit code is 0 only when every
check passed.  See ``benchmarks/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Bounded in BENCHMARK.json.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
# Printed in the record by name and unit, not bounded: between runs on a
# host whose speed drifts they spread wider than any allowed bound, or
# (failed_frac) they read 0 at the baseline.  See benchmarks/README.md.
RECORD_ONLY_UNITS = {
    "trials_per_s": "1/s",
    "latency_p50_ms": "ms",
    "recon_mse_over_bound": "ratio",
    "failed_frac": "ratio",
}

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
SETTLE_SECONDS = 1.0  # untimed repeats of operation 0 before the timed loop
SETUP_SAMPLES = 5  # this process plus four fresh processes


@dataclass(frozen=True)
class Workload:
    kind: str  # "sweep" or "estimate"
    degrees: tuple
    window: tuple
    snr_db: tuple  # the SNR grid of a sweep, or the single SNR of an estimate
    quality_ops: int  # operations averaged for recon_mse_over_bound
    lags: tuple = ()
    trials: int = 0  # trials per SNR point in one run_sweep call
    noise_free_tol: float = 0.0  # cycles, max |b_hat - b| on a noise-free input


TOTAL_DEGREE_2 = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))

WORKLOADS = {
    "sweep_64": Workload(
        "sweep", ((0,), (1,)), (64,), (0.0, 5.0, 10.0), quality_ops=50, trials=100
    ),
    "estimate_1d_2e20": Workload(
        "estimate", ((0,), (1,), (2,)), (1 << 20,), (30.0,), quality_ops=16,
        noise_free_tol=5e-5,
    ),
    "estimate_2d_multilag": Workload(
        "estimate", TOTAL_DEGREE_2, (512, 512), (30.0,), quality_ops=32,
        lags=((1, 1), (2, 2), (4, 4)), noise_free_tol=1e-9,
    ),
}

# Shrunken sizes for benchmarks/selftest.py; same code paths.
TINY = {
    "sweep_64": {"trials": 20, "quality_ops": 10},
    "estimate_1d_2e20": {"window": (1 << 12,), "quality_ops": 4},
    "estimate_2d_multilag": {"window": (32, 32), "quality_ops": 4},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true", help="shrunken sizes for the self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be in [0, 2**63)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_to_one_cpu() -> list[int]:
    """Pin this process (and the processes it starts) to one CPU."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def load_library():
    """Import ppsg from this checkout's ``src``; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "ppsg" / "__init__.py").is_file():
        print(f"benchmark: no ppsg sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import numpy as np
    import ppsg

    if Path(ppsg.__file__).resolve().parent != (src / "ppsg").resolve():
        print(f"benchmark: imported ppsg from {ppsg.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return np, ppsg


# --------------------------------------------------------------------------
# Workload runners.  Each has: warm_up() (the set-up operation), prepare(i)
# (untimed input generation for operation i), call(op) (the timed library
# call), check(i, op, out) (untimed; returns failure messages), finish()
# (checks over the whole run), fingerprint(out) and quality().


class SweepRunner:
    root_span = "harness.run_sweep"

    def __init__(self, np, ppsg, spec: Workload, seed: int) -> None:
        self.np, self.ppsg, self.spec, self.seed = np, ppsg, spec, seed
        self.M = ppsg.build_total_order(spec.degrees)
        self.est_cfg = ppsg.EstimatorConfig(self.M)
        self.trials_per_op = spec.trials * len(spec.snr_db)
        self.wrap_counts = [0.0] * len(spec.snr_db)
        self.ratios = []

    def config(self, master_seed: int, trials: int):
        return self.ppsg.ExperimentConfig(
            degree_set=self.M,
            window=self.spec.window,
            snr_db_grid=self.spec.snr_db,
            trials=trials,
            parameter_mode="zero",
            estimator_config=self.est_cfg,
            master_seed=master_seed,
        )

    def warm_up(self) -> tuple[float, list[str]]:
        t0 = time.perf_counter()
        self.ppsg.run_sweep(self.config(self.seed, 1), workers=1)
        return time.perf_counter() - t0, []

    def prepare(self, i: int):
        # Sweep 0 uses the benchmark seed itself; later sweeps derive theirs.
        if i == 0:
            return self.config(self.seed, self.spec.trials)
        state = self.np.random.SeedSequence([self.seed, i]).generate_state(2, self.np.uint32)
        return self.config(int(state[0]) << 32 | int(state[1]), self.spec.trials)

    def call(self, cfg):
        return self.ppsg.run_sweep(cfg, workers=1)

    def fingerprint(self, result) -> bytes:
        return repr(result.records).encode()

    def check(self, i: int, cfg, result) -> list[str]:
        problems = []
        for rec in result.records:
            p = rec.wrap_probability
            if not (math.isfinite(rec.mse_mean) and math.isfinite(rec.crb_bound)):
                problems.append(f"non-finite MSE at {rec.snr_db} dB")
            elif 0.0 < p < 1.0:
                combined = p * rec.mse_given_wrap + (1.0 - p) * rec.mse_given_nowrap
                if not math.isclose(combined, rec.mse_mean, rel_tol=1e-9):
                    problems.append(f"MSE decomposition broken at {rec.snr_db} dB")
            else:
                part = rec.mse_given_wrap if p == 1.0 else rec.mse_given_nowrap
                if not math.isclose(part, rec.mse_mean, rel_tol=1e-12):
                    problems.append(f"MSE decomposition broken at {rec.snr_db} dB")
        if i < self.spec.quality_ops:
            for j, rec in enumerate(result.records):
                self.wrap_counts[j] += rec.wrap_probability * self.spec.trials
            top = result.records[-1]  # the 10 dB point
            self.ratios.append(top.mse_mean / top.crb_bound)
        return problems

    def finish(self) -> list[str]:
        c = self.wrap_counts
        if all(a > b for a, b in zip(c, c[1:])):
            return []
        return [f"wrap counts {c} do not strictly decrease over the SNR grid"]

    def quality(self) -> dict:
        return {
            "recon_mse_over_bound": statistics.fmean(self.ratios) if self.ratios else math.nan,
            "recon_mse_over_bound_at_snr_db": self.spec.snr_db[-1],
            "quality_ops": len(self.ratios),
            "wrap_probability": [
                n / (max(len(self.ratios), 1) * self.spec.trials) for n in self.wrap_counts
            ],
        }


@dataclass
class EstimateOp:
    clean: object
    observed: object


class EstimateRunner:
    root_span = "estimator.estimate"
    trials_per_op = 1

    def __init__(self, np, ppsg, spec: Workload, seed: int) -> None:
        self.np, self.ppsg, self.spec, self.seed = np, ppsg, spec, seed
        self.M = ppsg.build_total_order(spec.degrees)
        self.cfg = ppsg.EstimatorConfig(self.M, lags=spec.lags)
        self.snr = 10.0 ** (spec.snr_db[0] / 10.0)
        self.bound = len(self.M) / (2.0 * self.snr)
        self._block, self._strata = -1, None
        self.ratios = []
        self.noise_free_error = None

    def _design(self, block: int):
        """Latin-hypercube sample of the cell: every coefficient is uniform on
        [-1/2, 1/2), and each of the quality_ops strata holds one draw."""
        if block != self._block:
            np = self.np
            q = self.spec.quality_ops
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0, block]))
            strata = np.stack([rng.permutation(q) for _ in range(len(self.M))], axis=1)
            self._block, self._strata = block, (strata + rng.random(strata.shape)) / q - 0.5
        return self._strata

    def _coefficients(self, values):
        return self.ppsg.CoefficientVector(values, self.ppsg.BINOMIAL, self.M)

    def warm_up(self) -> tuple[float, list[str]]:
        """Estimate one noise-free input; it must be recovered to the tolerance."""
        np = self.np
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        b = self._coefficients(rng.uniform(-0.5, 0.5, len(self.M)))
        clean = self.ppsg.synthesize(b, self.spec.window)
        t0 = time.perf_counter()
        est = self.ppsg.estimate(clean, self.cfg)
        seconds = time.perf_counter() - t0
        err = np.abs(self.ppsg.wrap_to_cell(est.binomial.values - b.values)).max()
        self.noise_free_error = float(err)
        if not err <= self.spec.noise_free_tol:
            tol = self.spec.noise_free_tol
            return seconds, [f"noise-free input recovered to {err:.3e}, tolerance {tol:.0e}"]
        return seconds, []

    def prepare(self, i: int) -> EstimateOp:
        np = self.np
        block, j = divmod(i, self.spec.quality_ops)
        b = self._coefficients(self._design(block)[j])
        clean = self.ppsg.synthesize(b, self.spec.window)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2, i]))
        return EstimateOp(clean, self.ppsg.add_noise(clean, self.snr, rng))

    def call(self, op: EstimateOp):
        return self.ppsg.estimate(op.observed, self.cfg)

    def fingerprint(self, est) -> bytes:
        return est.binomial.values.tobytes() + repr(sorted(est.diagnostics.items())).encode()

    def check(self, i: int, op: EstimateOp, est) -> list[str]:
        np = self.np
        v = est.binomial.values
        if not np.all(np.isfinite(v)):
            return [f"operation {i}: non-finite estimate {v}"]
        if np.any((v < -0.5) | (v >= 0.5)):
            return [f"operation {i}: estimate {v} left the cell"]
        if i < self.spec.quality_ops:
            recon = self.ppsg.synthesize(est.binomial, self.spec.window).data
            err = float(np.sum(np.abs(recon - op.clean.data) ** 2))
            self.ratios.append(err / self.bound)
        return []

    def finish(self) -> list[str]:
        return []

    def quality(self) -> dict:
        return {
            "recon_mse_over_bound": statistics.fmean(self.ratios) if self.ratios else math.nan,
            "quality_ops": len(self.ratios),
            "noise_free_max_error": self.noise_free_error,
            "noise_free_tolerance": self.spec.noise_free_tol,
        }


# --------------------------------------------------------------------------


def setup(spec: Workload, seed: int):
    """Import, configure and run one warm-up operation.

    Returns (np, ppsg, runner, set-up seconds, failures).  Input generation
    for the warm-up is not counted.
    """
    t0 = time.perf_counter()
    np, ppsg = load_library()
    runner_cls = SweepRunner if spec.kind == "sweep" else EstimateRunner
    runner = runner_cls(np, ppsg, spec, seed)
    configured = time.perf_counter() - t0
    warm, failures = runner.warm_up()
    return np, ppsg, runner, configured + warm, failures


def setup_in_fresh_process(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe",
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def cache_counts(ppsg) -> dict:
    axis = ppsg.weights._weight_axis.cache_info()
    field = ppsg.basis._binomial_field_cached.cache_info()
    return {
        "weights.axis_cache": {"hits": axis.hits, "misses": axis.misses},
        "basis.field_cache": {"hits": field.hits, "misses": field.misses},
    }


def cache_delta(before: dict, after: dict) -> dict:
    return {
        name: {k: after[name][k] - before[name][k] for k in before[name]} for name in before
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile).  With too few samples it is the maximum,
    reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_operation(runner, i, op, call):
    """Time one call; returns (seconds, output or None, failure messages)."""
    t0 = time.perf_counter()
    try:
        out = call(op)
    except Exception as exc:  # a library error is a failed operation, not a crash
        return time.perf_counter() - t0, None, [f"operation {i} raised {exc!r}"]
    return time.perf_counter() - t0, out, []


def settle(runner) -> list[str]:
    """Repeat operation 0, untimed, for SETTLE_SECONDS and at least twice, so
    that allocator pools and interpreter caches are warm before timing.
    Every repeat must return the same output bytes."""
    op = runner.prepare(0)
    outputs = set()
    start = time.perf_counter()
    repeats = 0
    while repeats < 2 or time.perf_counter() - start < SETTLE_SECONDS:
        _, out, problems = run_operation(runner, 0, op, runner.call)
        if problems:
            return problems
        outputs.add(runner.fingerprint(out))
        repeats += 1
    return [] if len(outputs) == 1 else ["operation 0 gave different outputs on repeats"]


def measure(runner, seconds: float, min_ops: int) -> dict:
    """Closed loop for ``seconds`` (and at least ``min_ops`` operations)."""
    latencies, failures, failed_ops = [], [], 0
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        i = 0
        while i < min_ops or time.perf_counter() - start < seconds:
            op = runner.prepare(i)
            dt, out, problems = run_operation(runner, i, op, runner.call)
            if out is not None:
                latencies.append(dt)
                problems += runner.check(i, op, out)
            if problems:
                failed_ops += 1
                failures += problems
            i += 1
            del op, out
    finally:
        gc.enable()
    return {
        "ops": i, "failed_ops": failed_ops, "latencies": latencies, "failures": failures,
        "checks": [],
    }


def measure_traced(runner, ppsg, seconds: float, min_ops: int) -> dict:
    """Each operation runs untraced and traced, alternating which goes first."""
    modules = {name: getattr(ppsg, name) for name in ("harness", "signal", "estimator")}
    tracer = spans.Tracer(modules)
    traced_call = tracer.wrap(runner.root_span, runner.call)
    plain_times, traced_times, deltas, failures, failed_ops = [], [], [], [], 0
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        i = 0
        while i < min_ops or time.perf_counter() - start < seconds:
            op = runner.prepare(i)
            results = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    before = cache_counts(ppsg)
                    with tracer.instrument(i):
                        results[traced] = run_operation(runner, i, op, traced_call)
                    deltas.append(cache_delta(before, cache_counts(ppsg)))
                else:
                    results[traced] = run_operation(runner, i, op, runner.call)
            (t_plain, plain, p_plain), (t_traced, traced_out, p_traced) = results[False], results[True]
            problems = p_plain + p_traced
            if plain is not None and traced_out is not None:
                plain_times.append(t_plain)
                traced_times.append(t_traced)
                problems += runner.check(i, op, plain)
                if runner.fingerprint(plain) != runner.fingerprint(traced_out):
                    problems.append(f"operation {i}: traced output differs from untraced")
            if problems:
                failed_ops += 1
                failures += problems
            i += 1
            del op, results, plain, traced_out
    finally:
        gc.enable()
    leftover = tracer.not_restored()
    restore_check = [f"attributes not restored after tracing: {leftover}"] if leftover else []
    overhead = (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0
        if plain_times else 0.0
    )
    metrics = tracer.summarize(i, deltas)
    metrics["trace.overhead_frac"] = overhead
    return {
        "ops": i, "failed_ops": failed_ops, "failures": failures, "tracer": tracer,
        "metrics": metrics, "latencies": plain_times, "missing_hooks": tracer.missing,
        "checks": [restore_check],
    }


def machine_block(np, seed: int, affinity: list[int]) -> dict:
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                             env={**os.environ, "LC_ALL": "C"}).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if "cache" in key:
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        describe = git.stdout.strip() if git.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        describe = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_describe": describe,
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.tiny:
        spec = replace(spec, **TINY[args.workload])
    affinity = pin_to_one_cpu()
    np, ppsg, runner, setup_s, setup_failures = setup(spec, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    settle_failures = settle(runner)
    if args.trace:
        run = measure_traced(runner, ppsg, args.seconds, min_ops=spec.quality_ops)
    else:
        run = measure(runner, args.seconds, min_ops=spec.quality_ops)
    # Each whole-run check counts as one attempted operation.
    checks = [setup_failures, settle_failures, runner.finish(), *run["checks"]]
    attempted = run["ops"] + len(checks)
    failed = run["failed_ops"] + sum(1 for c in checks if c)
    failures = run["failures"] + [f for c in checks for f in c]

    latencies = run["latencies"] or [math.nan]
    p50 = statistics.median(latencies)
    tail_value, tail_pct = tail(latencies)
    quality = runner.quality()
    reported = {
        "trials_per_s": runner.trials_per_op / p50,
        "latency_p50_ms": p50 * 1e3,
        "recon_mse_over_bound": quality["recon_mse_over_bound"],
        "failed_frac": failed / attempted,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine_block(np, args.seed, affinity),
        "operations": run["ops"],
        "trials_per_operation": runner.trials_per_op,
        "failures": failures[:20],
        "reported": {k: {"value": v, "unit": RECORD_ONLY_UNITS[k]} for k, v in reported.items()},
        "latency_samples": len(run["latencies"]),
        "latency_tail_percentile": tail_pct,
        "latencies_ms": [t * 1e3 for t in run["latencies"]],
        **quality,
    }
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        values, units = run["metrics"], spans.PER_LAYER_UNITS
        record["missing_hooks"] = run["missing_hooks"]
        run["tracer"].save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        setup_samples = [setup_s] + [
            setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)
        ]
        record["setup_samples_s"] = setup_samples
        values = {
            "setup_s": statistics.median(setup_samples),
            "latency_tail_ms": tail_value * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    record["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
