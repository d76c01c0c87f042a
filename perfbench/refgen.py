"""Reference arithmetic for the benchmark, written apart from wpoly.

Nothing here imports the program.  The checks compare the program's
outputs with these computations:

- a divisor-driven generator of good quadruples (the largest weight must
  divide d, d - w0 or d - w1, by condition (i) on its axis), with its own
  coprimality test, conditions (i)/(ii) and genus formula;
- lattice point counts of a quadruple's polytope;
- Pick's formula on a plane lattice polygon;
- 3x3 determinants and seeded affine unimodular maps of the plane.
"""
from __future__ import annotations

import random
from fractions import Fraction

# Class counts of lattice polygons with exactly g interior points, up to
# affine unimodular equivalence: Castryck, "Moving out the edges of a
# lattice polygon", Discrete Comput. Geom. 47 (2012), Table 1.
CASTRYCK_COUNTS = {1: 16, 2: 45, 3: 120, 4: 211, 5: 403, 6: 714}


def _gcd(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def coprime(a: int, b: int) -> bool:
    return _gcd(a, b) == 1


def cond_i(w: tuple[int, int, int], d: int, axis: int) -> bool:
    """Some monomial x_axis^k * x_j (k >= 1) has weighted degree d."""
    wi = w[axis]
    return any((d - wj) >= wi and (d - wj) % wi == 0 for wj in w)


def cond_ii(w: tuple[int, int, int], d: int, axis: int) -> bool:
    """Some monomial of weighted degree d avoids x_axis."""
    j, k = [w[a] for a in range(3) if a != axis]
    return any((d - e * j) % k == 0 for e in range(d // j + 1))


def genus_value(w: tuple[int, int, int], d: int) -> Fraction:
    """(d(d - w0 - w1 - w2)/(w0 w1 w2) + sum gcd(w_i, d)/w_i - 1) / 2."""
    w0, w1, w2 = w
    value = Fraction(d * (d - w0 - w1 - w2), w0 * w1 * w2)
    value += sum(Fraction(_gcd(wi, d), wi) for wi in w) - 1
    return value / 2


def is_good(w: tuple[int, int, int], d: int) -> bool:
    return (
        coprime(w[0], w[1]) and coprime(w[0], w[2]) and coprime(w[1], w[2])
        and all(d > wi for wi in w)
        and all(cond_i(w, d, a) and cond_ii(w, d, a) for a in range(3))
    )


def _divisors(m: int) -> list[int]:
    out = []
    k = 1
    while k * k <= m:
        if m % k == 0:
            out.append(k)
            out.append(m // k)
        k += 1
    return out


def good_quadruples(g_lo: int, g_hi: int, d_max: int) -> list[tuple[int, int, int, int, int]]:
    """Every good (w0, w1, w2, d) with w0 <= w1 <= w2, d <= d_max and genus
    in [g_lo, g_hi], as (w0, w1, w2, d, g) sorted by (d, w0, w1, w2).

    The genus formula with each gcd(w_i, d)/w_i in (0, 1] confines w2 to
    d(d-w0-w1)/((2g_hi+1)w0w1 + d) < w2 <= d(d-w0-w1)/((2g_lo-2)w0w1 + d);
    once that upper end drops below w1 the w1 loop stops.
    """
    if g_lo < 1 or g_hi < g_lo:
        raise ValueError(f"genus range [{g_lo}, {g_hi}] must lie in g >= 1")
    out = []
    for d in range(3, d_max + 1):
        for w0 in range(1, d):
            for w1 in range(w0, d):
                if not coprime(w0, w1):
                    continue
                a = d * (d - w0 - w1)
                b = w0 * w1
                if a <= 0:
                    break
                hi = min(d - 1, a // ((2 * g_lo - 2) * b + d))
                if hi < w1:
                    break
                lo = max(w1, a // ((2 * g_hi + 1) * b + d) + 1)
                cands = set()
                for m in (d, d - w0, d - w1):
                    cands.update(v for v in _divisors(m) if lo <= v <= hi)
                for w2 in sorted(cands):
                    w = (w0, w1, w2)
                    if not is_good(w, d):
                        continue
                    gv = genus_value(w, d)
                    if gv.denominator == 1 and g_lo <= gv <= g_hi:
                        out.append((w0, w1, w2, d, int(gv)))
    return out


def polytope_size(w: tuple[int, int, int], d: int) -> int:
    """Number of (a, b, c) >= 0 with a*w0 + b*w1 + c*w2 == d."""
    w0, w1, w2 = w
    return sum(
        1
        for a in range(d // w0 + 1)
        for b in range((d - a * w0) // w1 + 1)
        if (d - a * w0 - b * w1) % w2 == 0
    )


def interior_size(w: tuple[int, int, int], d: int) -> int:
    """Polytope points with every coordinate >= 1."""
    rest = d - sum(w)
    return polytope_size(w, rest) if rest >= 0 else 0


def det3(r0, r1, r2) -> int:
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def pick(vertices) -> tuple[int, int]:
    """(interior, boundary) lattice counts of a convex polygon by Pick."""
    k = len(vertices)
    area2 = abs(sum(
        vertices[j][0] * vertices[(j + 1) % k][1] - vertices[(j + 1) % k][0] * vertices[j][1]
        for j in range(k)
    ))
    boundary = sum(
        _gcd(vertices[(j + 1) % k][0] - vertices[j][0], vertices[(j + 1) % k][1] - vertices[j][1])
        for j in range(k)
    )
    return (area2 - boundary + 2) // 2, boundary


def unimodular_map(rng: random.Random):
    """A random affine map x -> L x + t with integer L and det L = +-1:
    three factors drawn from the unit shears, the axis swap and the mirror,
    so images stay small."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(3):
        kind = rng.randrange(4)
        s = rng.choice((-1, 1))
        if kind == 0:    # x += s*y
            a, b = a + s * c, b + s * d
        elif kind == 1:  # y += s*x
            c, d = c + s * a, d + s * b
        elif kind == 2:  # swap x and y
            a, b, c, d = c, d, a, b
        else:            # y -> -y
            c, d = -c, -d
    tx, ty = rng.randint(-5, 5), rng.randint(-5, 5)
    return lambda p: (a * p[0] + b * p[1] + tx, c * p[0] + d * p[1] + ty)
