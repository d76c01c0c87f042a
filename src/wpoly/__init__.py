"""Exact-arithmetic toolkit for weighted plane curve quadruples.

A quadruple (w0, w1, w2; d) of positive integer weights and a degree
determines the lattice polytope of degree-d monomials in three weighted
variables.  This package validates quadruples, builds their polytopes,
verifies the determinant and counting identities these polytopes
satisfy, projects them to plane lattice polygons, canonicalizes the
polygons under affine unimodular equivalence, and classifies all
quadruples of a fixed genus into finitely many polygon classes.
"""
from .classify import (
    BasisChange,
    ClassAtlas,
    ClassEntry,
    StabilizationReport,
    WeightedCurve,
    basis_change,
    enumerate_classes,
    group_by_class,
    make_curve,
    map_curve,
)
from .errors import (
    DegenerateInputError,
    InvariantViolation,
    PreconditionError,
    WPolyError,
)
from .polygon2d import (
    LatticePolygon,
    UnimodularAffineMap,
    canonical_form,
    convex_hull,
    equivalent,
)
from .quadruples import (
    D_MAX_CAP,
    Quadruple,
    ValidityReport,
    enumerate_g_good,
    family_quadruple,
    raw_genus,
    validate,
)
from .render import render_polygon_svg
from .wpolytope import (
    CaseReport,
    WeightedPolytope,
    build,
    find_unimodular_triple,
    minor_det,
    project,
    projection_coordinates,
    verify_case_identities,
)

__version__ = "0.1.0"

__all__ = [
    "BasisChange",
    "CaseReport",
    "ClassAtlas",
    "ClassEntry",
    "D_MAX_CAP",
    "DegenerateInputError",
    "InvariantViolation",
    "LatticePolygon",
    "PreconditionError",
    "Quadruple",
    "StabilizationReport",
    "UnimodularAffineMap",
    "ValidityReport",
    "WPolyError",
    "WeightedCurve",
    "WeightedPolytope",
    "basis_change",
    "build",
    "canonical_form",
    "convex_hull",
    "enumerate_classes",
    "enumerate_g_good",
    "equivalent",
    "family_quadruple",
    "find_unimodular_triple",
    "group_by_class",
    "make_curve",
    "map_curve",
    "minor_det",
    "project",
    "projection_coordinates",
    "raw_genus",
    "render_polygon_svg",
    "validate",
    "verify_case_identities",
]
