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
from math import gcd

from .errors import InvariantViolation, PreconditionError

# Hard ceiling on the degree accepted anywhere in the package.  All
# arithmetic is arbitrary precision; the cap only bounds running time.
D_MAX_CAP = 200_000

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

    e_j*w_j + e_k*w_k = d needs h = gcd(w_j, w_k) to divide d; then
    e_j = (d/h)(w_j/h)^-1 mod (w_k/h) is the least e_j >= 0 leaving a
    remainder divisible by w_k, and it is a witness when e_j*w_j <= d.
    """
    j, k = [a for a in range(3) if a != axis]
    wj, wk = weights[j], weights[k]
    h = gcd(wj, wk)
    if d % h:
        return None
    ej = d // h * pow(wj // h, -1, wk // h) % (wk // h)
    if ej * wj > d:
        return None
    return ((j, ej), (k, (d - ej * wj) // wk))


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
    # weights, so a is the least of the three.
    n = m * d_max - 1
    a = 2
    while a * a * a <= n:
        for b in range(a, n // (a * a) + 1):
            ab = a * b
            if gcd(ab, m) != 1:
                continue
            c_first = a + (-pow(ab, -1, m) - a) % m  # least c >= a with abc = -1 mod m
            for c in range(c_first, n // ab + 1, m):
                x, y, z = b * c - c + 1, c * a - a + 1, ab - b + 1
                if x % m == 0 and y % m == 0 and z % m == 0:
                    yield "a.i", x // m, y // m, z // m, (ab * c + 1) // m
        a += 1
    # a.ii, no weight divides d: rows (a,1,0), (0,b,1), (0,1,c) with
    # a = l*u2, b = k*u2 + 1, c = k*u1 + 1 = l*u0 and l(k*u2 + 1) = 2g+1+k,
    # so k <= 2g; u1 is free and d = (k*u2 + 1)u1 + u2.
    for k in range(1, 2 * g + 1):
        for l in range(1, m + k + 1):
            if (m + k) % l or ((m + k) // l - 1) % k or (m + k) // l <= k:
                continue
            u2 = ((m + k) // l - 1) // k
            for u1 in range(1, (d_max - u2) // (k * u2 + 1) + 1):
                if (k * u1 + 1) % l == 0:
                    yield "a.ii", (k * u1 + 1) // l, u1, u2, (k * u2 + 1) * u1 + u2
    # b.i, b.ii and b.iii: only u0 divides d, row (d/u0, 0, 0), and k
    # divides 2g.
    for k in range(1, 2 * g + 1):
        if (2 * g) % k:
            continue
        s = 2 * g // k
        # b.i: rows (0,b,1), (0,1,c) with b = k*u2 + 1, c = k*u1 + 1,
        # d = k*u1*u2 + u1 + u2 and 2g = k(d/u0 - 1); swapping u1 and u2
        # swaps b and c, so u1 <= u2.
        u1 = 1
        while k * u1 * u1 + 2 * u1 <= d_max:
            for u2 in range(u1, (d_max - u1) // (k * u1 + 1) + 1):
                d = k * u1 * u2 + u1 + u2
                if d % (s + 1) == 0:
                    yield "b.i", d // (s + 1), u1, u2, d
            u1 += 1
        # b.ii: rows (1,b,0), (0,1,c) with b = k*u0, d = (k*u1 + 1)u0,
        # d = c*u2 + u1 and 2g = k(c - 1).
        for u1 in range(1, (d_max - 1) // k + 1):
            for u0 in range(1, d_max // (k * u1 + 1) + 1):
                d = (k * u1 + 1) * u0
                if (d - u1) % (s + 1) == 0:
                    yield "b.ii", u0, u1, (d - u1) // (s + 1), d
        # b.iii: rows (1,b,0), (1,0,c) with d = (k*u1*u2 + 1)u0 and
        # 2g = k(d - u1 - u2); u0 >= 1 bounds u1 and u2 by 2g/k + 1.
        for u1 in range(1, s + 2):
            for u2 in range(1, s + 2):
                d = u1 + u2 + s
                if d <= d_max and d % (k * u1 * u2 + 1) == 0:
                    yield "b.iii", d // (k * u1 * u2 + 1), u1, u2, d
    # c, u0 and u1 divide d: rows (d/u0,0,0), (0,d/u1,0), (1,0,c) with
    # d/u0 = k*u1 = l*u2 + 1, d = k*u0*u1 and 2g + k + l - 1 = k*l*u0,
    # so (k - 1)(l - 1) <= 2g and k, l <= 2g + 1; u2 is free.
    for k in range(1, m + 1):
        for l in range(1, m + 1):
            if (2 * g + k + l - 1) % (k * l):
                continue
            u0 = (2 * g + k + l - 1) // (k * l)
            for u2 in range(1, (d_max // u0 - 1) // l + 1):
                if (l * u2 + 1) % k == 0:
                    yield "c", u0, (l * u2 + 1) // k, u2, u0 * (l * u2 + 1)
    # d, every weight divides d: d = k*u0*u1*u2 and k(d - u0 - u1 - u2)
    # = 2g - 2, so u2(k*u0*u1 - 1) = u0 + u1 + (2g - 2)/k.  The equation
    # is symmetric, so u0 <= u1 <= u2, and k <= 2g + 1.
    for k in range(1, m + 1):
        if (2 * g - 2) % k:
            continue
        s = (2 * g - 2) // k
        u0 = 1
        while (k * u0 * u0 - 1) * u0 <= 2 * u0 + s:
            u1 = u0
            while (k * u0 * u1 - 1) * u1 <= u0 + u1 + s:
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
    candidates fail there), and kept only if `validate` finds it good
    (coprimality, conditions (i)/(ii) on all three axes, integral genus)
    with genus g.  Callers may rely on that: group_by_class builds each
    listed polytope without validating it again.

    For fixed g there are O(d_max log^2 d_max) candidates, most of them
    from cases a.i, a.ii, b.i, b.ii and c, and the walk is one serial
    pass: g = 1, 2, 3 together take about 0.02 s at d_max = 120 and
    0.04 s at d_max = 240, and g = 1 alone about 0.1 s at d_max = 800
    (Python 3.11, Intel Xeon).
    """
    if g < 1:
        raise PreconditionError(f"g must be >= 1, got {g}")
    if d_max < 1:
        raise PreconditionError(f"d_max must be >= 1, got {d_max}")
    if d_max > D_MAX_CAP:
        raise PreconditionError(f"d_max={d_max} exceeds the cap {D_MAX_CAP}")
    keys = {(d, *sorted(u)) for _, *u, d in _case_candidates(g, d_max)}
    found = []
    for d, w0, w1, w2 in sorted(keys):
        if gcd(w0, w1) != 1 or gcd(w0, w2) != 1 or gcd(w1, w2) != 1:
            continue
        q = Quadruple(w0, w1, w2, d)
        if validate(q).genus == g:
            found.append(q)
    return found
