"""Exact combinatorics of minimal degrees on G/P and the so7 model of G2.

Everything is integer or Gaussian-integer arithmetic: root systems built
from Cartan data, Weyl group elements with Hecke products and Bruhat order,
greedy decompositions and minimal degrees, cascades of strongly orthogonal
roots, tangent-direction sets with the key inequality and quasi-homogeneity
verdicts, and a bit-exact 7x7 matrix model of the G2-inside-so7 embedding.
"""

from .cascade import MinimalDegreeRecord, cascade_roots, full_cascade, minimal_degree_records
from .curve_nbhd import (
    borel, curve_neighborhood_element, greedy_decomposition, is_minimal_degree,
    is_p_cosmall, lifting, maximal_roots, minimal_degrees, point_class_degree,
)
from .parabolic import Parabolic, c1_pairing, dim_x, project_coroot
from .root_system import (
    Root, RootSystem, SimpleType, bilinear, build_root_system, coroot_pairing,
    reflect, root_leq, strongly_orthogonal,
)
from .tangent_directions import (
    KeyInequalityReport, QuasiHomogeneityVerdict, key_inequality,
    quasi_homogeneity_verdict, tangent_direction_sets,
)
from .weyl import (
    WeylElement, bruhat_leq, center_elements, compose, hecke_product,
    longest_element, reduced_word,
)

__all__ = [
    "SimpleType", "Root", "RootSystem", "build_root_system", "bilinear",
    "coroot_pairing", "reflect", "root_leq",
    "WeylElement", "compose", "longest_element", "bruhat_leq", "hecke_product",
    "center_elements", "reduced_word",
    "Parabolic", "project_coroot", "c1_pairing", "dim_x",
    "borel", "maximal_roots", "greedy_decomposition", "is_p_cosmall",
    "curve_neighborhood_element", "is_minimal_degree", "point_class_degree",
    "minimal_degrees", "minimal_degree_records", "lifting", "MinimalDegreeRecord",
    "cascade_roots", "full_cascade", "strongly_orthogonal",
    "tangent_direction_sets", "key_inequality", "quasi_homogeneity_verdict",
    "KeyInequalityReport", "QuasiHomogeneityVerdict",
]
