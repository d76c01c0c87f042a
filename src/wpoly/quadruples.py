"""Weight quadruples (w0, w1, w2, d) and their validity tests.

A quadruple describes curves of degree d in a plane whose coordinates
carry the weights w0, w1, w2.  A quadruple is *good* when the weights are
pairwise coprime, d exceeds every weight, and for every axis the degree
admits both a monomial of the shape x_i^k * x_j (condition (i)) and a
monomial avoiding x_i entirely (condition (ii)).  Good quadruples have an
integer genus computed from the degree and weights in exact arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import InvariantViolation, PreconditionError

# Hard ceiling on the degree accepted anywhere in the package.  All
# arithmetic is arbitrary precision; the cap only bounds running time.
D_MAX_CAP = 200_000

# Hard ceiling on the genus accepted by wpolytope.build() and by
# enumerate_g_good, whose quadruples group_by_class builds.  By Scott's
# bound n <= 3g + 7 it holds a polytope to 300007 points, near the 200003
# of (1,1,199999;200000), the largest genus-0 polytope under the degree
# cap (timings in README).
GENUS_CAP = 100_000

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
        for name, value in (("w0", self.w0), ("w1", self.w1), ("w2", self.w2), ("d", self.d)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.d > D_MAX_CAP:
            raise ValueError(f"d={self.d} exceeds the degree cap {D_MAX_CAP}")

    @property
    def weights(self) -> tuple[int, int, int]:
        return (self.w0, self.w1, self.w2)

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


def _condition_i_witness(weights: tuple[int, int, int], d: int, axis: int) -> Witness1 | None:
    """Smallest-j witness (k, j) with k*w_axis + w_j == d and k >= 1."""
    wi = weights[axis]
    for j in range(3):
        rest = d - weights[j]
        if rest >= wi and rest % wi == 0:
            return (rest // wi, j)
    return None


def _condition_ii_witness(weights: tuple[int, int, int], d: int, axis: int) -> Witness2 | None:
    """Smallest-e_j witness monomial of degree d using only the other two
    axes j < k.

    e_j*w_j + e_k*w_k = d with e_k >= 0 asks for e_j*w_j = d (mod w_k)
    and e_j*w_j <= d.  The congruence is solvable only when h =
    gcd(w_j, w_k) divides d, and then exactly by the class of
    e = (d/h)(w_j/h)^-1 mod w_k/h; e, taken in [0, w_k/h), is its least
    member >= 0.  Every other solution is larger, so it is the least e_j
    of a witness, and there is a witness iff e*w_j <= d.
    """
    j, k = (1, 2) if axis == 0 else (0, 2) if axis == 1 else (0, 1)
    wj, wk = weights[j], weights[k]
    h = gcd(wj, wk)
    if d % h:
        return None
    step = wk // h
    ej = d // h * pow(wj // h, -1, step) % step
    if ej * wj > d:
        return None
    return ((j, ej), (k, (d - ej * wj) // wk))


def _genus_parts(w0: int, w1: int, w2: int, d: int) -> tuple[int, int]:
    """raw_genus's formula as (numerator, 2*w0*w1*w2), not reduced."""
    prod = w0 * w1 * w2
    numerator = (
        d * (d - w0 - w1 - w2)
        + gcd(w0, d) * w1 * w2
        + gcd(w1, d) * w0 * w2
        + gcd(w2, d) * w0 * w1
        - prod
    )
    return numerator, 2 * prod


def raw_genus(q: Quadruple) -> Fraction:
    """Genus formula evaluated exactly; not necessarily an integer.

    Returns ((d(d - w0 - w1 - w2)) / (w0 w1 w2)
             + sum_i gcd(w_i, d)/w_i - 1) / 2.
    """
    return Fraction(*_genus_parts(q.w0, q.w1, q.w2, q.d))


def _integral_genus(w0: int, w1: int, w2: int, d: int) -> int:
    """The genus of a good quadruple, the integer quotient of
    _genus_parts; a remainder raises InvariantViolation, since a good
    quadruple's genus is integral."""
    numerator, denominator = _genus_parts(w0, w1, w2, d)
    g, rest = divmod(numerator, denominator)
    if rest:
        raise InvariantViolation(
            f"genus of good quadruple ({w0},{w1},{w2};{d}) is not an integer: "
            f"{Fraction(numerator, denominator)}"
        )
    return g


def validate(q: Quadruple) -> ValidityReport:
    """Run every goodness test and collect witnesses.

    The tests: the weights are pairwise coprime; d exceeds each weight
    (degree_dominates); each axis i has a condition (i) witness x_i^k*x_j
    and a condition (ii) witness avoiding x_i; and, for the report, which
    weights divide d.  A quadruple that passes the first three is good,
    and its genus is `_integral_genus`.
    """
    w0, w1, w2, d = q.w0, q.w1, q.w2, q.d
    w = (w0, w1, w2)
    coprime = gcd(w0, w1) == 1 and gcd(w0, w2) == 1 and gcd(w1, w2) == 1
    dominates = d > w0 and d > w1 and d > w2
    cond_i = (
        _condition_i_witness(w, d, 0),
        _condition_i_witness(w, d, 1),
        _condition_i_witness(w, d, 2),
    )
    cond_ii = (
        _condition_ii_witness(w, d, 0),
        _condition_ii_witness(w, d, 1),
        _condition_ii_witness(w, d, 2),
    )
    good = coprime and dominates and None not in cond_i and None not in cond_ii
    return ValidityReport(
        quadruple=q,
        pairwise_coprime=coprime,
        degree_dominates=dominates,
        condition_i=cond_i,
        condition_ii=cond_ii,
        divides=(d % w0 == 0, d % w1 == 0, d % w2 == 0),
        is_good=good,
        genus=_integral_genus(w0, w1, w2, d) if good else None,
    )


def _good_genus(w0: int, w1: int, w2: int, d: int) -> int | None:
    """validate(Quadruple(w0, w1, w2, d)).genus for pairwise coprime
    weights, with no report: the same tests on the same kernels, stopping
    at the first that fails."""
    w = (w0, w1, w2)
    if d <= w0 or d <= w1 or d <= w2:
        return None
    for axis in (0, 1, 2):
        if _condition_i_witness(w, d, axis) is None or _condition_ii_witness(w, d, axis) is None:
            return None
    return _integral_genus(w0, w1, w2, d)


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


def _congruent(a: int, b: int, m: int, lo: int, hi: int) -> range:
    """The t in [lo, hi] with a*t = b (mod m): none unless h = gcd(a, m)
    divides b, else the class of (b/h)(a/h)^-1 mod m/h."""
    h = gcd(a, m)
    if b % h:
        return range(0)
    step = m // h
    return range(lo + (b // h * pow(a // h, -1, step) - lo) % step, hi + 1, step)


def _case_candidates(g: int, d_max: int):
    """(case tag, u0, u1, u2, d) with d <= d_max for every parameter value
    of the seven determinant cases at genus g.

    Each case fixes the shape of its distinguished rows (the pure power
    x_i^(d/u_i) when u_i divides d, else a monomial x_i^e * x_j) in slots
    0, 1, 2, as its wpolytope.CASE_MAPS entry says where each slot's row
    points; the case's genus identity then leaves at most two free
    integers, listed here.  The candidates are unchecked and may repeat.
    """
    m = 2 * g + 1
    # a.i, no weight divides d: rows (a,1,0), (0,b,1), (1,0,c), so
    # a*u0 + u1 = b*u1 + u2 = c*u2 + u0 = d and abc + 1 = (2g+1)d, whence
    # (2g+1)u0 = bc - c + 1, (2g+1)u1 = ca - a + 1, (2g+1)u2 = ab - b + 1.
    # Integral weights need a, b, c >= 2; rotating (a, b, c) rotates the
    # weights, so a is the least of the three, and a*u0 + u1 = d bounds it
    # by d_max.  Integral u2, then u0, fix b, then c, mod 2g+1; then abc =
    # (b - 1)c = -1 and b(ca - a + 1) = abc - ab + b = 0, so u1 and d follow.
    n = m * d_max - 1
    a = 2
    while a * a * a <= n and a < d_max:
        for b in _congruent(a - 1, -1, m, a, n // (a * a)):
            for c in _congruent(b - 1, -1, m, a, n // (a * b)):
                u = ((b * c - c + 1) // m, (c * a - a + 1) // m, (a * b - b + 1) // m)
                yield "a.i", *u, (a * b * c + 1) // m
        a += 1
    # a.ii, no weight divides d: rows (a,1,0), (0,b,1), (0,1,c) with
    # a = l*u2, b = k*u2 + 1, c = k*u1 + 1 = l*u0 and l(k*u2 + 1) = 2g+1+k,
    # so k <= 2g, u2 <= 2g/k + 1 and l = (2g+1+k)/(k*u2 + 1); u1 is free,
    # with k*u1 = -1 (mod l), and d = (k*u2 + 1)u1 + u2 >= (k + 1)u2 + 1.
    for k in range(1, min(2 * g, d_max - 2) + 1):
        for u2 in range(1, min(2 * g // k + 1, (d_max - 1) // (k + 1)) + 1):
            if (m + k) % (k * u2 + 1):
                continue
            l = (m + k) // (k * u2 + 1)
            for u1 in _congruent(k, -1, l, 1, (d_max - u2) // (k * u2 + 1)):
                yield "a.ii", (k * u1 + 1) // l, u1, u2, (k * u2 + 1) * u1 + u2
    # b.i, b.ii and b.iii: only u0 divides d, row (d/u0, 0, 0), k divides
    # 2g, and d >= k + 1 in each.
    for k in range(1, min(2 * g, d_max) + 1):
        if (2 * g) % k:
            continue
        s = 2 * g // k
        # b.i: rows (0,b,1), (0,1,c) with b = k*u2 + 1, c = k*u1 + 1,
        # d = (k*u1 + 1)u2 + u1 and 2g = k(d/u0 - 1), so d = 0 (mod s+1);
        # swapping u1 and u2 swaps b and c, so u1 <= u2 and k*u1^2 < d.
        for u1 in range(1, isqrt(d_max // k) + 1):
            for u2 in _congruent(k * u1 + 1, -u1, s + 1, u1, (d_max - u1) // (k * u1 + 1)):
                d = k * u1 * u2 + u1 + u2
                yield "b.i", d // (s + 1), u1, u2, d
        # b.ii: rows (1,b,0), (0,1,c) with b = k*u0, d = (k*u1 + 1)u0,
        # d = c*u2 + u1 and 2g = k(c - 1), so d = u1 (mod s+1).
        for u1 in range(1, (d_max - 1) // k + 1):
            for u0 in _congruent(k * u1 + 1, u1, s + 1, 1, d_max // (k * u1 + 1)):
                d = (k * u1 + 1) * u0
                yield "b.ii", u0, u1, (d - u1) // (s + 1), d
        # b.iii: rows (1,b,0), (1,0,c) with d = (k*u1*u2 + 1)u0 and
        # 2g = k(d - u1 - u2); u0 >= 1 bounds u1 by 2g/k + 1 and u2 by
        # (u1 + 2g/k - 1)/(k*u1 - 1), or by 2g/k when k*u1 = 1 (u2 + 1 then
        # divides 2g/k), and d = u1 + u2 + 2g/k <= d_max bounds them too.
        for u1 in range(1, min(s + 1, d_max - s - 1) + 1):
            for u2 in range(1, min(d_max - s - u1, (u1 + s - 1) // max(k * u1 - 1, 1)) + 1):
                d = u1 + u2 + s
                if d % (k * u1 * u2 + 1) == 0:
                    yield "b.iii", d // (k * u1 * u2 + 1), u1, u2, d
    # c, u0 and u1 divide d: rows (d/u0,0,0), (0,d/u1,0), (1,0,c) with
    # d/u0 = k*u1 = l*u2 + 1, d = k*u0*u1 and 2g + k + l - 1 = k*l*u0,
    # so (k - 1)(l - 1) <= 2g, k <= 2g + 1 and l = 1 - 2g (mod k), while
    # d/u0 <= d_max gives k <= d_max and l < d_max; u2 is free, with
    # l*u2 = -1 (mod k).
    for k in range(1, min(m, d_max) + 1):
        for l in _congruent(1, 1 - 2 * g, k, 1, min(2 * g // max(k - 1, 1) + 1, d_max - 1)):
            if (2 * g + k + l - 1) % (k * l):
                continue
            u0 = (2 * g + k + l - 1) // (k * l)
            for u2 in _congruent(l, -1, k, 1, (d_max // u0 - 1) // l):
                yield "c", u0, (l * u2 + 1) // k, u2, u0 * (l * u2 + 1)
    # d, every weight divides d: d = k*u0*u1*u2 and k(d - u0 - u1 - u2)
    # = 2g - 2, so u2(k*u0*u1 - 1) = u0 + u1 + (2g - 2)/k.  The equation
    # is symmetric, so u0 <= u1 <= u2, and k <= 2g + 1, k*u0*u1^2 <= d_max.
    for k in range(1, min(m, d_max) + 1):
        if (2 * g - 2) % k:
            continue
        s = (2 * g - 2) // k
        u0 = 1
        while (k * u0 * u0 - 1) * u0 <= 2 * u0 + s and k * u0 ** 3 <= d_max:
            u1 = u0
            while (k * u0 * u1 - 1) * u1 <= u0 + u1 + s and k * u0 * u1 * u1 <= d_max:
                den = k * u0 * u1 - 1
                if den > 0 and (u0 + u1 + s) % den == 0:
                    u2 = (u0 + u1 + s) // den
                    if k * u0 * u1 * u2 <= d_max:
                        yield "d", u0, u1, u2, k * u0 * u1 * u2
                u1 += 1
            u0 += 1


def enumerate_g_good(g: int, d_max: int) -> list[Quadruple]:
    """All good quadruples with genus g, ascending weights, and d <= d_max.

    Sorted by (d, w0, w1, w2).  The list comes from the seven determinant
    cases, not from a scan of the degrees.  It is complete: the
    distinguished rows of every good quadruple of genus g >= 1 take one
    of the seven shapes in wpolytope.CASE_MAPS, and their determinant and
    the case's genus identity equal the case's formulas (the paper's case
    lemma, which wpolytope.verify_case_identities checks on every
    polytope it is given).  `_case_candidates` lists every parameter
    value of every case that those equations allow at genus g with
    d <= d_max, so each such quadruple is among the candidates, in some
    order of its weights.  Each candidate is sorted to ascending weights, deduplicated,
    dropped at once unless its weights are pairwise coprime (most rejected
    candidates fail there), and kept only if `_good_genus`, validate's
    tests without its report, finds it good (conditions (i)/(ii) on all
    three axes, integral genus) with genus g.  Callers may rely on that: group_by_class builds each
    listed polytope without validating it again.

    For fixed g there are O(d_max log^2 d_max) candidates, most of them
    from cases a.i, a.ii, b.i, b.ii and c, and the walk is one serial
    pass: g = 1, 2, 3 together take about 0.005 s at d_max = 120 and
    0.011 s at d_max = 240, and g = 1 alone about 0.016 s at d_max = 800.
    Every loop is bounded by d_max and each free parameter walks only its
    residue class (_congruent), so a large g costs little more: g = 2000
    takes about 0.27 s at d_max = 100000, and g = GENUS_CAP, above which g
    is refused, 0.1 ms at d_max = 10 and 1.2 s at 200000 (best of 2-20
    in-process runs; Python 3.11, 2-core Xeon).
    """
    if g < 1:
        raise PreconditionError(f"g must be >= 1, got {g}")
    if g > GENUS_CAP:
        raise PreconditionError(f"g={g} exceeds the genus cap {GENUS_CAP}")
    if d_max < 1:
        raise PreconditionError(f"d_max must be >= 1, got {d_max}")
    if d_max > D_MAX_CAP:
        raise PreconditionError(f"d_max={d_max} exceeds the cap {D_MAX_CAP}")
    keys = {(d, *sorted(u)) for _, *u, d in _case_candidates(g, d_max)}
    found = []
    for d, w0, w1, w2 in sorted(keys):
        if gcd(w0, w1) != 1 or gcd(w0, w2) != 1 or gcd(w1, w2) != 1:
            continue
        if _good_genus(w0, w1, w2, d) == g:
            found.append(Quadruple(w0, w1, w2, d))
    return found
