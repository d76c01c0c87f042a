"""Brute-force lattice checks shared by the polygon and acceptance tests."""
from collections import Counter
from math import gcd


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _edges(cycle):
    return [(cycle[k], cycle[(k + 1) % len(cycle)]) for k in range(len(cycle))]


def on_boundary(p, cycle):
    """Whether p lies on some edge of the vertex cycle, edge by edge."""
    for a, b in _edges(cycle):
        if _cross(a, b, p) == 0:
            if min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]):
                return True
    return False


def tiling_faults(poly, tris):
    """Ways the pieces fail to triangulate the polygon edge to edge; empty
    when the corners are exactly the polygon's lattice points, every
    primitive boundary segment is a piece edge once in the cycle's
    direction, and every other directed piece edge is used once with its
    reverse used by exactly one other piece."""
    faults = []
    corners = {p for t in tris for p in t}
    if corners != set(poly.lattice_points):
        faults.append(f"piece corners differ from the lattice points by {corners ^ set(poly.lattice_points)}")
    boundary = set()
    for (px, py), (qx, qy) in _edges(poly.vertices):
        g = gcd(abs(qx - px), abs(qy - py))
        sx, sy = (qx - px) // g, (qy - py) // g
        boundary.update(
            ((px + j * sx, py + j * sy), (px + (j + 1) * sx, py + (j + 1) * sy)) for j in range(g)
        )
    used = Counter((t[j], t[(j + 1) % 3]) for t in tris for j in range(3))
    for (u, v), count in used.items():
        if count != 1:
            faults.append(f"directed edge {u}->{v} used {count} times")
        elif (v, u) in boundary:
            faults.append(f"edge {u}->{v} runs against the boundary")
        elif (u, v) not in boundary and used[(v, u)] != 1:
            faults.append(f"inner edge {u}->{v} has its reverse in {used[(v, u)]} pieces")
    unused = boundary - set(used)
    if unused:
        faults.append(f"boundary segments no piece has as an edge: {sorted(unused)}")
    return faults
