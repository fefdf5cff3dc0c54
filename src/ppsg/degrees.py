"""Multi-index arithmetic and degree sets.

A multi-index is a plain tuple of ints of length D (the dimensionality).
Degree sets are finite collections of nonnegative multi-indices stored
together with an explicit total order that refines the componentwise
partial order; estimators and coefficient vectors index into that order.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

MultiIndex = tuple[int, ...]


def partial_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise partial order: a <= b in every dimension."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(ad <= bd for ad, bd in zip(a, b))


def _integer(value) -> int:
    # operator.index reads True as 1; numpy 2's bool has no __index__.
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def as_index(values: Iterable[int]) -> MultiIndex:
    """Integer multi-index from Python or numpy integers, else ValueError.

    The package's one reader of integer indices: booleans, floats (even
    8.0) and strings are rejected, never truncated.
    """
    try:
        return tuple(map(_integer, values))
    except TypeError as exc:
        raise ValueError(f"expected a sequence of integers, got {values!r}") from exc


def as_int(value, name: str = "value") -> int:
    """One integer, read as :func:`as_index` reads an entry; errors name ``name``."""
    try:
        return _integer(value)
    except TypeError as exc:
        raise ValueError(f"{name} must be an integer, got {value!r}") from exc


def _check_degree(m: Sequence[int], dim: int) -> MultiIndex:
    t = as_index(m)
    if len(t) != dim:
        raise ValueError(f"degree {t} has length {len(t)}, expected {dim}")
    if any(v < 0 for v in t):
        raise ValueError(f"degree {t} has a negative entry")
    return t


@dataclass(frozen=True)
class DegreeSet:
    """An ordered set of polynomial degrees.

    ``degrees`` is stored in a total order compatible with the componentwise
    partial order: whenever m' <= m componentwise and m' != m, m' appears
    before m.  Use :func:`build_total_order` to construct one with the
    default ordering; the constructor accepts any compatible order and
    rejects incompatible ones.
    """

    degrees: tuple[MultiIndex, ...]

    def __post_init__(self) -> None:
        if not self.degrees:
            raise ValueError("degree set must be nonempty")
        dim = len(self.degrees[0])
        if dim < 1:
            raise ValueError("dimensionality must be >= 1")
        seen = set()
        cleaned = tuple(_check_degree(m, dim) for m in self.degrees)
        object.__setattr__(self, "degrees", cleaned)
        for m in cleaned:
            if m in seen:
                raise ValueError(f"duplicate degree {m}")
            seen.add(m)
        for i, mi in enumerate(cleaned):
            for mj in cleaned[i + 1 :]:
                if partial_leq(mj, mi):
                    raise ValueError(
                        f"stored order is incompatible: {mj} follows {mi}"
                    )

    @property
    def dim(self) -> int:
        return len(self.degrees[0])

    def __len__(self) -> int:
        return len(self.degrees)

    def __iter__(self):
        return iter(self.degrees)

    def __contains__(self, m) -> bool:
        return tuple(m) in self._positions

    @cached_property
    def _positions(self) -> dict[MultiIndex, int]:
        return {m: i for i, m in enumerate(self.degrees)}

    def position(self, m: Sequence[int]) -> int:
        """Index of degree ``m`` in the stored total order."""
        return self._positions[tuple(m)]

    @cached_property
    def max_degree(self) -> MultiIndex:
        """Highest degree along each dimension; the window must exceed it."""
        return tuple(map(max, zip(*self.degrees)))

    def is_downward_closed(self) -> bool:
        return self._downward_closed

    @cached_property
    def _downward_closed(self) -> bool:
        return all(ell in self._positions for m in self.degrees for ell in _below(m))

    def to_json(self) -> list[list[int]]:
        """JSON form: array of integer arrays in the stored total order."""
        return [list(m) for m in self.degrees]

    @classmethod
    def from_json(cls, data: Iterable[Sequence[int]]) -> "DegreeSet":
        return build_total_order(data)


def _below(m: MultiIndex) -> Iterable[MultiIndex]:
    """All multi-indices componentwise <= m (the box [m+1])."""
    return itertools.product(*(range(md + 1) for md in m))


def build_total_order(degrees: Iterable[Sequence[int]]) -> DegreeSet:
    """Arrange degrees in a total order compatible with the partial order.

    Repeatedly extracts a minimal element, breaking ties by smallest total
    degree |m| and then lexicographically.  Sorting by (|m|, m) realizes
    exactly that sequence, because the (|m|, m)-smallest remaining element
    is always minimal: anything strictly below it would have smaller |m|.
    """
    unique = set(map(as_index, degrees))
    ordered = sorted(unique, key=lambda m: (sum(m), m))
    return DegreeSet(tuple(ordered))


@dataclass(frozen=True)
class DegreeSetReport:
    window_ok: bool
    downward_closed: bool


def validate_degree_set(M: DegreeSet, N: Sequence[int]) -> DegreeSetReport:
    """Check the observation-window and downward-closure conditions.

    ``window_ok`` holds iff N >= m+1 componentwise for every degree,
    i.e. the window provides at least max-degree-plus-one samples per
    dimension.  ``downward_closed`` holds iff every degree's lower box is
    contained in the set.
    """
    N = as_index(N)
    if len(N) != M.dim:
        raise ValueError(f"window length {len(N)} does not match dim {M.dim}")
    try:
        diff_window(N, M.max_degree)
        window_ok = True
    except ValueError:
        window_ok = False
    return DegreeSetReport(window_ok=window_ok, downward_closed=M.is_downward_closed())


def as_lag(lag: Sequence[int] | int, dim: int) -> tuple[int, ...]:
    """Per-dimension lag from an integer or a sequence; entries must be >= 1."""
    try:
        iter(lag)
    except TypeError:  # not a sequence: one integer applies to every dimension
        lag = (lag,) * dim
    tau = as_index(lag)
    if len(tau) != dim:
        raise ValueError(f"lag {tau} does not match dimensionality {dim}")
    if min(tau, default=1) < 1:
        raise ValueError(f"lag {tau} has entries < 1")
    return tau


def diff_window(
    N: Sequence[int], k: Sequence[int], lag: Sequence[int] | int = 1
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Window and lag left after k_d differences at lag tau_d along each dim d.

    This is the package's one window rule: every dimension must keep a
    sample, N_d >= tau_d * k_d + 1 (for unit lags, more samples than the
    degree), else ValueError.  Returns (N - tau*k, tau).
    """
    if len(k) != len(N):
        raise ValueError(f"index {tuple(k)} does not match the {len(N)}-d window {tuple(N)}")
    if min(k, default=0) < 0:
        raise ValueError(f"negative order in {tuple(k)}")
    tau = as_lag(lag, len(N))
    window = tuple([Nd - td * kd for Nd, td, kd in zip(N, tau, k)])
    if min(window, default=1) < 1:
        raise ValueError(
            f"window {tuple(N)} too small for order {tuple(k)} at lag {tau}: "
            "need N >= lag*order + 1 in every dimension"
        )
    return window, tau


def downward_closure(M: DegreeSet) -> DegreeSet:
    """Smallest downward-closed degree set containing M."""
    closed = set()
    for m in M.degrees:
        closed.update(_below(m))
    return build_total_order(closed)
