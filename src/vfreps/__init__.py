"""Exact counting of representations of virtually free groups over finite
fields, and E-polynomials of the associated character varieties.

The package is organized along the pipeline:

  groupgraph  graphs of finite groups (data model, presets, JSON files)
  dimmonoid   dimension-vector monoid, Euler form, symmetry orbits
  orbits      the automorphism group of the graph data, orbit quotient
  exactalg    exact polynomials and rational functions over Q
  series      truncated graded series and the counting-polynomial pipeline
  fforacle    independent brute-force checks over small finite fields
  cli         command-line interface
"""

from .exactalg import Poly, RatFunc, gl_count, mobius, prime_power
from .groupgraph import (
    Edge,
    FiniteGroupData,
    GraphOfGroups,
    RestrictionMap,
    ValidationError,
    is_suitable_prime_power,
    load,
    preset,
    save,
    validate,
)
from .dimmonoid import (
    DimVector,
    SymmetryGroupDescriptor,
    correction_y,
    dimvector,
    enumerate_dimvectors,
    euler_form,
    format_dimvector,
    parse_dimvector,
    shift_exponent,
    symmetry_descriptor,
    symmetry_orbits,
)
from .series import (
    GradedSeries,
    NonPolynomialCoefficient,
    build_F,
    compute_absim,
    compute_sim,
    compute_ss,
    invert,
    mul,
    plethystic,
    rep_space_count,
    shift,
    unit_series,
)

__version__ = "0.1.0"
