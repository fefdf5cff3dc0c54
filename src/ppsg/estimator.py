"""Sequential coefficient estimators for polynomial phase signals.

One private kernel, :func:`_sequential`, holds the estimation loop.  It takes
a batch of signals, shape (B, *N) with the trial axis leading, and walks
stages (m, tau), degrees in descending total order and lags inner.  It runs
in the phase domain: one ``arctan2`` per sample at entry turns the batch
into int64 phases in units of 2^-64 cycle, whose wrapping arithmetic is
arithmetic modulo one cycle.  Each stage collapses the phases the degree
started with to near-constant fields by composed lagged differences, plain
integer subtractions, and averages them with the closed-form
minimum-variance weights one axis at a time, each expanded from the short
prefix that :mod:`~ppsg.weights` caches.  The lag passes of a degree
cancel the increments of the earlier lags by subtracting one scalar per
signal, since the m-th difference at lag tau of C(n, m) is the constant
tau^m.  Each degree then subtracts its summed term over the full window
once, before the next degree, and only over the axes the degree touches,
by :func:`~ppsg.basis.apply_term`, which splits the increment once and
subtracts block by block, the routine that also synthesizes and scores
every phase.  Both cancellations take exact turns
from :func:`~ppsg.basis._turns`, however large C(n, m) grows, but for a
float64 remainder below one turn from a coefficient fraction below 2^-12
cycle.  Past the entry the only trig is the CIRCULAR anchor's float32
``cos`` and ``sin`` of at most ``_ANCHOR_SAMPLES`` (4096) gathered samples
per field and stage, taken relative to the first, so the anchor rotates
with its field exactly.  The turns are the one window-sized array the
kernel holds.  Every pass over them runs in blocks of at most
``basis._BLOCK_SAMPLES`` (2^15) samples per signal cut along the first window
axis, so its temporaries stay in cache, and a stage differences each block
once.
:func:`estimate` cancels binomial fields C(n, m), under any lag schedule;
:func:`estimate_coefficients_direct` cancels monomials n^m / m! and maps back
to the binomial basis by back substitution.  The degree set picks the
route: a set that is not downward closed is estimated over its closure,
then projected with Fisher weights, solved exactly once per window.

A noise-free phase given exactly, as :func:`~ppsg.signal.synthesize` gives
it, is recovered exactly with CIRCULAR averaging, whose anchor reads a
constant field exactly, and under a lag schedule such as 1/16/256, whose
later lags take up the first one's rounding.  LINEAR on the unit lag alone
rounds each increment in float64, by up to 2.2e-16 cycle, and cancelling it
carries that rounding times C(n, m) down to the lower degrees: with degrees
0-3, 3e-4 to 7e-4 cycle at 2^16 samples and 0.2 to 0.4 at 2^20.

A single signal is the batch of one.  :func:`estimate_batch` estimates many
signals in one pass, and row t of its result equals ``estimate`` of signal t
bit for bit: every step is elementwise or a reduction that sums each row
exactly as a lone signal is summed, which the blocks keep
(:func:`_mean_phase`).  All estimators are pure functions of (signal,
config); a run is inherently sequential across degrees.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import _projection
from .basis import _TURN, _block_rows, _blocks, _fold, _int64, _split, _turns, apply_term
from .basis import BINOMIAL, MONOMIAL, CoefficientVector, binomial_to_monomial_matrix, wrap_to_cell
from .basis import binomial_field  # noqa: F401  not called; benchmarks/spans.py rebinds it
from .degrees import (
    DegreeSet,
    MultiIndex,
    as_lag,
    diff_window,
    downward_closure,
    validate_degree_set,  # noqa: F401  not called; benchmarks/spans.py rebinds it
)
from .signal import Signal, _difference
from .signal import phase_diff_multi  # noqa: F401  not called; benchmarks/spans.py rebinds it
from .weights import WeightField, weight_prefixes, weight_rows
from .weights import weight_multi  # noqa: F401  not called; benchmarks/spans.py rebinds it

TWO_PI = 2.0 * np.pi

# Per (degree, lag) stage, the increment of every signal of a batch, shape (B,).
Diagnostics = dict[tuple[MultiIndex, MultiIndex], np.ndarray]


class AveragingKind(enum.Enum):
    """Averaging operators for the collapsed phase-difference field.

    CIRCULAR commutes with global phase rotations; LINEAR averages raw
    arguments against a fixed branch cut and is kept as the classical
    baseline.
    """

    LINEAR = "linear"
    CIRCULAR = "circular"


def average(kind: AveragingKind, s: Signal, u: WeightField) -> complex:
    """Weighted average of a near-constant field, projected to the unit circle.

    LINEAR averages the arguments against the branch cut at -pi; CIRCULAR
    recenters them around the circular mean before averaging, which moves
    the branch cut away from the data.
    """
    if not isinstance(kind, AveragingKind):
        raise ValueError(f"kind must be an AveragingKind, got {kind!r}")
    if s.window != u.window:
        raise ValueError(f"window mismatch: {s.window} vs {u.window}")
    flat = s.data.reshape(1, -1)
    turns = _phase_turns(flat.real, flat.imag).astype(np.int64)
    mean = _mean_phase(kind, turns, (0,), (1,), np.zeros(1, np.int64), [u.data.ravel()])
    return complex(np.exp(1j * TWO_PI * mean[0]))


# The CIRCULAR anchor reads at most this many samples of a field.
_ANCHOR_SAMPLES = 4096


def _phase_turns(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The argument of re + j*im as turns in one float temporary, for the
    caller to convert to int64; a zero sample has phase 0.

    ``arctan2`` reads the two parts as they are, so any finite sample has
    its phase, however large or small.  It returns +-pi for +-0 over -0, so
    adding +0.0 to the real part sends every zero sample to +-0 over +0.
    One division scales radians to turns: 2*pi*2^-64 is a power of two
    times 2*pi, so it rounds as a division by 2*pi and a scaling would.
    """
    return _arg_turns(im, re + 0.0)


def _arg_turns(im: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`_phase_turns` from ``im`` and ``x``, the real part plus +0.0,
    which it overwrites."""
    np.arctan2(im, x, out=x)
    x /= TWO_PI * _TURN
    return _fold(x)


def _entry_turns(data: np.ndarray, rows: int) -> np.ndarray:
    """The batch as int64 turns, written block by block into one array; a
    non-finite sample raises before its block is converted.

    Each block's parts are copied into two contiguous buffers reused across
    blocks, the real part plus +0.0, so the finiteness check and
    ``arctan2`` read contiguous arrays."""
    turns = np.empty(data.shape, np.int64)
    size = len(data) * min(rows, data.shape[1]) * math.prod(data.shape[2:])
    dtype = np.result_type(data.real.dtype, 0.0)  # that of re + 0.0
    re_buf, im_buf = np.empty(size, dtype), np.empty(size, dtype)
    for a, b in _blocks(data.shape[1], rows):
        block = data[:, a:b]
        re = np.add(block.real, 0.0, out=re_buf[: block.size].reshape(block.shape))
        im = im_buf[: block.size].reshape(block.shape)
        np.copyto(im, block.imag)
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ValueError("signal has non-finite samples")
        turns[:, a:b] = _arg_turns(im, re)
    return turns


def _piece_sums(f: np.ndarray, wd: np.ndarray, piece: int) -> np.ndarray:
    """``einsum`` of the last axis of ``f`` with ``wd`` over each run of
    ``piece`` samples, from the first: shape (..., pieces)."""
    n = f.shape[-1]
    cut = n - n % piece
    sums = []
    if cut:
        runs = f[..., :cut].reshape(f.shape[:-1] + (-1, piece))
        sums.append(np.einsum("...pn,pn->...p", runs, wd[:cut].reshape(-1, piece)))
    if cut < n:
        sums.append(np.einsum("...n,n->...", f[..., cut:], wd[cut:])[..., None])
    return np.concatenate(sums, axis=-1) if len(sums) > 1 else sums[0]


def _in_order(sums: np.ndarray) -> np.ndarray:
    """The sum of the last axis, left to right."""
    return np.cumsum(sums, axis=-1)[..., -1]


def _sum_rows(f: np.ndarray, wd: np.ndarray, in_one_pass: bool, piece: int) -> np.ndarray:
    """``einsum`` of the last axis of ``f`` with ``wd``, each row summed in
    one pass or, if not ``in_one_pass``, in pieces of ``piece`` samples.

    ``einsum`` itself sums a row longer than its buffer in one pass when the
    call holds more than one row, and in pieces added in order when it holds
    one, so a lone row that must be summed in one pass is given a twin.
    """
    if f.shape[-1] > piece:
        if not in_one_pass:
            return _in_order(_piece_sums(f, wd, piece))
        if f.size == f.shape[-1]:
            return np.einsum("...n,n->...", np.broadcast_to(f, (2,) + f.shape), wd)[0]
    return np.einsum("...n,n->...", f, wd)


def _anchor_samples(turns: np.ndarray, m: MultiIndex, tau: MultiIndex) -> np.ndarray:
    """The (m, tau) differences of a batch of int64 turns at flat stride
    ``ceil(size / _ANCHOR_SAMPLES)`` over the differenced window, shape
    (B, K), C-ordered: each differences its prod(m_d + 1) stencil samples
    n + j * tau, gathered by ``np.take``, at unit lag, bitwise as the whole
    field does."""
    N, D = turns.shape[1:], len(m)
    L = [Nd - td * md for Nd, td, md in zip(N, tau, m)]
    rest = np.arange(0, math.prod(L), -(-math.prod(L) // _ANCHOR_SAMPLES))
    base, stencil, stride = 0, 0, 1
    # By hand: np.unravel_index and np.ravel_multi_index read 90-157 against
    # 64-119 us per 512x512 gather (one pinned Xeon CPU, medians of 8).
    for d in reversed(range(D)):  # unravel over the differenced window, ravel over N
        q = rest // L[d]  # a floor division by a scalar is vectorized; % is not
        base = base + (rest - q * L[d]) * stride
        j = np.arange(m[d] + 1).reshape((1,) * d + (-1,) + (1,) * (D - d))
        stencil = stencil + j * (tau[d] * stride)
        rest, stride = q, stride * N[d]
    idx = base + stencil  # shape (m_0 + 1, ..., m_{D-1} + 1, K)
    gathered = np.take(turns.reshape(len(turns), -1), idx, axis=1)
    return _difference(gathered, m, (1,) * D, np.subtract).reshape(len(turns), -1)


def _anchor(turns: np.ndarray, m: MultiIndex, tau: MultiIndex, shift: np.ndarray) -> np.ndarray:
    """The CIRCULAR anchor of the (m, tau) differences of each field of a
    batch of int64 turns, less ``shift`` (int64 per field), shape
    (B, *N) -> (B,), in int64 turns.

    It is the argument of the resultant of the :func:`_anchor_samples`,
    summed in float64 from float32 ``cos`` and ``sin``, taken relative to
    each field's first gathered sample and added back to it as an integer;
    a zero resultant anchors at that sample.  The relative phases are
    wrapping integer differences, unchanged bit for bit when a field is
    rotated, so the anchor rotates with the field exactly.
    """
    sub = _anchor_samples(turns, m, tau) - shift[:, None]
    first = sub[:, 0].copy()
    sub -= first[:, None]
    x = (sub * (TWO_PI * _TURN)).astype(np.float32)
    resultant = (f(x).sum(axis=-1, dtype=float) for f in (np.cos, np.sin))
    return first + _phase_turns(*resultant).astype(np.int64)


def _mean_phase(
    kind: AveragingKind,
    turns: np.ndarray,
    m: MultiIndex,
    tau: MultiIndex,
    shift: np.ndarray,
    w: list[np.ndarray],
) -> np.ndarray:
    """Weighted mean phase of the (m, tau) differences of each field of a
    batch of int64 turns, less ``shift`` (int64 per field), shape
    (B, *N) -> (B,), in cycles in [-1/2, 1/2).  ``turns`` is never written.
    ``w`` holds each axis's weights as a :func:`~ppsg.weights.weight_rows`
    prefix; a whole axis is its own prefix.

    LINEAR reads the turns as they are, so its branch cut sits at -pi.
    CIRCULAR adds to the shift, as an integer, a per-field :func:`_anchor`,
    which rotates with the field exactly; the contraction is then unchanged
    bit for bit by a rotation, and the mean moves with it up to the final
    float64 rounding.

    Each block of :func:`_block_rows` slices of the first axis is
    differenced once, from its slices plus the ``m[0] * tau[0]`` after them
    (the halo), then shifted by a wrapping int64 subtraction that converts
    into a float buffer reused across blocks, and contracted while in
    cache.  The weights of the axes after the first are expanded once per
    call; those of the first are expanded block by block in 1-D, into one
    reused buffer, and whole otherwise.

    ``einsum``, not BLAS, whose threads reorder sums, contracts ``w`` one
    axis at a time, the last first.  Every sum is formed as ``einsum`` forms
    it over the whole differenced field of one signal, so the blocks change
    no bit and a batch row equals its lone estimate: a block contracts each
    axis after the first row by row, each row in one pass unless the axes
    before it hold one sample (:func:`_sum_rows`), and the first axis is
    summed in ``np.getbufsize()`` pieces added in order, which the 1-D
    blocks never split.
    """
    B, N = len(turns), turns.shape[1:]
    L = [Nd - td * md for Nd, td, md in zip(N, tau, m)]
    piece = np.getbufsize()  # einsum's buffer, which sets how it splits a sum
    spans = _blocks(L[0], _block_rows(N, piece))
    circular = kind is AveragingKind.CIRCULAR
    anchor = _anchor(turns, m, tau, shift) if circular else np.zeros(B, np.int64)
    shift = (shift + anchor).reshape((-1,) + (1,) * len(N))
    pieces = len(N) == 1  # a 1-D stage sums its own pieces
    rest = [weight_rows(wd, Ld) for wd, Ld in zip(w[1:], L[1:])]
    first = np.empty(spans[0][1]) if pieces else weight_rows(w[0], L[0])
    buf = np.empty(B * spans[0][1] * math.prod(L[1:]))
    parts = []
    for a, b in spans:
        d = _difference(turns[:, a : b + m[0] * tau[0]], m, tau, np.subtract)  # with the halo
        f = buf[: d.size].reshape(d.shape)
        np.subtract(d, shift, out=f, dtype=np.int64, casting="unsafe")
        del d  # so the next block's differences do not meet it
        for k in range(len(N) - 1, 0, -1):
            f = _sum_rows(f, rest[k - 1], math.prod(L[:k]) > 1, piece)
        parts.append(_piece_sums(f, weight_rows(w[0], L[0], a, b, first), piece) if pieces else f)
    partials = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    total = _in_order(partials) if pieces else _sum_rows(partials, first, False, piece)
    return wrap_to_cell((anchor + total) * _TURN)


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator parameterization.

    ``lags`` is an ascending schedule of per-dimension lags; the first entry
    must be all ones so the full coefficient cell stays identifiable, and
    later entries refine with shrunken cells.  A degree set that is not
    downward closed is estimated over its closure and projected, which needs
    the unit lag alone; a lag schedule with such a set is rejected here.
    """

    degree_set: DegreeSet
    averaging: AveragingKind = AveragingKind.CIRCULAR
    lags: tuple[MultiIndex, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.averaging, AveragingKind):
            raise ValueError(f"averaging must be an AveragingKind, got {self.averaging!r}")
        dim = self.degree_set.dim
        lags = tuple(as_lag(tau, dim) for tau in self.lags or ((1,) * dim,))
        if lags[0] != (1,) * dim:
            raise ValueError(f"first lag must be all ones, got {lags[0]}")
        for prev, nxt in zip(lags, lags[1:]):
            if not all(n > p for p, n in zip(prev, nxt)):
                raise ValueError(
                    f"lags must be strictly ascending componentwise: {prev} -> {nxt}"
                )
        object.__setattr__(self, "lags", lags)
        if not (self.degree_set.is_downward_closed() or self.single_unit_lag):
            raise ValueError("degrees that are not downward closed need the unit lag alone")

    @property
    def single_unit_lag(self) -> bool:
        return len(self.lags) == 1


@dataclass(frozen=True)
class Estimate:
    """Estimated coefficients plus per-stage diagnostics.

    ``binomial`` always lies in the cell [-1/2, 1/2)^|M|.  ``diagnostics``
    maps (degree, lag) to the increment contributed by that stage, so
    experiments can attribute error to lag passes.
    """

    binomial: CoefficientVector
    monomial: CoefficientVector | None = None
    diagnostics: dict[tuple[MultiIndex, MultiIndex], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_cell(self.binomial.values)

    @classmethod
    def from_batch(cls, M: DegreeSet, values: np.ndarray, diagnostics: Diagnostics) -> Estimate:
        """The first signal's estimate in an :func:`estimate_batch` result."""
        return cls(CoefficientVector(values[0], BINOMIAL, M), None, _first(diagnostics))

    def to_json(self) -> dict:
        return {
            "binomial": self.binomial.to_json(),
            "monomial": self.monomial.to_json() if self.monomial else None,
            "diagnostics": [
                {"degree": list(m), "lag": list(tau), "increment": v}
                for (m, tau), v in self.diagnostics.items()
            ],
        }


def _first(diagnostics: Diagnostics) -> dict[tuple[MultiIndex, MultiIndex], float]:
    return {key: float(delta[0]) for key, delta in diagnostics.items()}


def _check_cell(values: np.ndarray) -> None:
    if not np.all((values >= -0.5) & (values < 0.5)):  # NaN fails too
        raise ValueError(f"binomial estimate left the cell [-1/2, 1/2): {values}")


def _sequential(
    data: np.ndarray, cfg: EstimatorConfig, basis: str = BINOMIAL
) -> tuple[np.ndarray, Diagnostics]:
    """The sequential loop shared by every estimator, over a batch (B, *N).

    The batch enters as int64 turns, one ``arctan2`` per sample; a zero
    sample, of either sign, has phase 0.  Degrees run in descending order,
    and each degree m runs the lags of the schedule in turn on the turns it
    started with.  A lag stage differences them by wrapping subtraction,
    averages the differences, divides the mean by tau^m and adds the
    increments to the coefficient of m.  The m-th difference at lag tau of
    C(n, m) is the constant tau^m, so the increments ``acc`` of the earlier
    lags are cancelled from the differenced field by one scalar per signal,
    the turns of ``acc * tau^m``, which are 0 on the first lag.  After
    the last lag the degree subtracts the turns of its term in ``basis``
    once, by :func:`~ppsg.basis.apply_term`, block by block and of length 1
    along the axes where m_d = 0, since the field is constant along them;
    the last degree skips it, since nothing reads the turns after it.  Both
    cancellations take exact turns from an integer factor modulo 2^64
    (:func:`_turns`) and subtract integers.  The term's factor is C(n, m)
    with coefficient ``acc`` for the binomial basis, exact but for a
    remainder below 2^-64 cycle, and n^m with coefficient ``acc / m!`` for
    the monomial basis, rounded in float64.

    The turns are the one window-sized array: a total-degree-2 estimate at
    512x512 under lags 1/2/4 traces 2.9 MiB, its 2 MiB of turns and a few
    blocks.  The entry, which rejects a non-finite sample, each stage
    (:func:`_mean_phase`, whose CIRCULAR anchor takes the only trig past the
    entry) and each cancellation run over the turns in blocks of
    :func:`_block_rows`, and every sum is the one the whole window gives.
    Nothing is kept between calls, and the window rule is checked once, up
    front.

    The weight prefixes are resolved first, so a cold build's temporaries
    never share memory with the batch.  Returns the coefficients, shape
    (B, |M|), wrapped to the cell under a lag schedule (a single lag's
    increments lie in it), and each stage's increments.
    """
    M = cfg.degree_set
    N = data.shape[1:]
    # The last lag is the largest in every dimension, so it bounds the window.
    diff_window(N, M.max_degree, cfg.lags[-1])
    weights = {(m, tau): weight_prefixes(m, tau, N) for m in M.degrees for tau in cfg.lags}
    turns = _entry_turns(data, _block_rows(N, np.getbufsize()))
    values = np.zeros((len(data), len(M)))
    diagnostics: Diagnostics = {}
    for i, m in enumerate(reversed(M.degrees)):
        acc = np.zeros(len(data))
        for tau in cfg.lags:
            tau_pow = math.prod(td**md for td, md in zip(tau, m))
            shift = _turns(_split(acc), _int64(tau_pow), float(tau_pow))
            delta = _mean_phase(cfg.averaging, turns, m, tau, shift, weights[m, tau]) / tau_pow
            acc += delta
            diagnostics[(m, tau)] = delta
        values[:, M.position(m)] = acc
        if i < len(M) - 1:
            apply_term(turns, acc, m, basis, np.subtract)
    return (values if cfg.single_unit_lag else wrap_to_cell(values)), diagnostics


def _general(data: np.ndarray, cfg: EstimatorConfig) -> tuple[np.ndarray, Diagnostics]:
    """Closure estimate, then the Fisher-weighted projection r_M + P r_R of
    each row r over the rows M of the set and R of the rest, P = J_MM^-1 J_MR
    from :func:`~ppsg.analysis._projection`; it restores the constrained CRB
    (zeroing would not).  ``einsum`` sums each row alike, where BLAS ``@``
    need not; the result is wrapped to the cell."""
    closure = downward_closure(cfg.degree_set)
    rows, rest, P = _projection(cfg.degree_set, closure, data.shape[1:])
    values, diagnostics = _sequential(data, replace(cfg, degree_set=closure))
    projected = values[:, rows] + np.einsum("br,mr->bm", values[:, rest], P)
    return wrap_to_cell(projected), diagnostics


def estimate_coefficients_direct(y: Signal, cfg: EstimatorConfig) -> Estimate:
    """Monomial-basis variant: the shared loop cancels n^m / m! instead.

    With CIRCULAR averaging the reconstruction matches the two-stage path
    (binomial estimation followed by the lattice basis change) exactly.  The
    returned binomial vector is the monomial output mapped back through the
    change of basis and wrapped to the cell.
    """
    if not cfg.single_unit_lag:
        raise ValueError("direct estimation supports only the unit lag")
    if not cfg.degree_set.is_downward_closed():
        raise ValueError("direct estimation needs a downward-closed degree set")
    values, diagnostics = _sequential(y.data[None], cfg, MONOMIAL)
    M = cfg.degree_set
    T = binomial_to_monomial_matrix(M).matrix
    b = values[0].copy()
    for i in reversed(range(len(M))):  # back substitution; T is unit upper triangular
        b[i] -= T[i, i + 1 :] @ b[i + 1 :]
    binomial = CoefficientVector(wrap_to_cell(b), BINOMIAL, M)
    return Estimate(binomial, CoefficientVector(values[0], MONOMIAL, M), _first(diagnostics))


def estimate_batch(data: np.ndarray, cfg: EstimatorConfig) -> tuple[np.ndarray, Diagnostics]:
    """:func:`estimate` of every signal of a batch, shape (B, *N).

    Returns the binomial coefficients, shape (B, |M|), every row checked to
    lie in the cell, and each (degree, lag) stage's increments, shape (B,).
    Row t equals ``estimate(Signal(N, data[t]), cfg)`` bit for bit.
    """
    route = _sequential if cfg.degree_set.is_downward_closed() else _general
    values, diagnostics = route(data, cfg)
    _check_cell(values)
    return values, diagnostics


def estimate(y: Signal, cfg: EstimatorConfig) -> Estimate:
    """:func:`estimate_batch` of one signal; the degree set picks the route."""
    return Estimate.from_batch(cfg.degree_set, *estimate_batch(y.data[None], cfg))
