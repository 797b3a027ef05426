"""Exact combinatorics of extended affine Weyl groups with a twist.

The package computes, entirely in integer and rational arithmetic (root
data and class invariants are built in integers; ``Fraction`` holds only
rational views for reports and tests: rho, the fundamental weights and
coweights, and Newton points as ``newton_point`` and
``ClassInvariant.newton`` give them):

* root data over a chosen coweight lattice (`root_datum`),
* the extended affine Weyl group with its length function, length-zero
  elements and twist action (`affine_weyl`),
* twisted conjugation: cyclic shifts, minimal length tests, Newton and
  Kottwitz points, straightness (`conjugacy`),
* reduction trees with typed edges and replayable witnesses
  (`reduction_tree`),
* the ranked poset of class invariants with chain lengths, defects and
  class intervals (`bg_poset`), read off length-zero elements of Levi
  subgroups (`levi`), and the straight-element enumeration,
* Coxeter-type classification with the closed dimension and path-length
  formulas, cross-checked against tree enumeration (`classifier`),
* corpus-wide invariant suites (`checks`) and a deterministic CLI with a
  content-addressed result cache (`cli`).
"""

__version__ = "0.1.0"

from .affine_weyl import (
    AffineElement,
    affine_reflection,
    affine_simple_roots,
    descents,
    format_element,
    identity,
    length,
    multiply,
    omega_element,
    parse_element,
    sigma_act,
    simple_reflection,
    translation,
)
from .bg_poset import (
    ClassRecord,
    chain_length,
    defect,
    enumerate_straight,
    essential_gap,
    extrema,
    interval,
    iter_elements,
    leq,
    sort_classes,
)
from .classifier import (
    ClassificationReport,
    MinCoxWitness,
    classify,
    coset_decompose,
    dim_formula,
    ell1_formula,
    ell2_formula,
    is_geometric_coxeter_type,
    is_minimal_coxeter_type,
    is_twisted_coxeter,
    mct_inequality,
    purity_report,
    report_to_dict,
    strong_multiplicity_one,
)
from .conjugacy import (
    ClassInvariant,
    ShiftMove,
    class_invariant,
    cyclic_shift,
    is_min_len,
    is_straight,
    kottwitz_point,
    newton_point,
    reflection_length,
    same_class,
    shift_class,
)
from .reduction_tree import (
    ReductionPath,
    ReductionTree,
    bgw,
    build_tree,
    enumerate_paths,
    export_tree,
    find_reduction_move,
)
from .root_datum import CartanSpec, RootDatum, build_root_datum, parse_spec

__all__ = [
    "AffineElement",
    "CartanSpec",
    "ClassInvariant",
    "ClassRecord",
    "ClassificationReport",
    "MinCoxWitness",
    "ReductionPath",
    "ReductionTree",
    "RootDatum",
    "ShiftMove",
    "affine_reflection",
    "affine_simple_roots",
    "bgw",
    "build_root_datum",
    "build_tree",
    "chain_length",
    "class_invariant",
    "classify",
    "coset_decompose",
    "cyclic_shift",
    "defect",
    "descents",
    "dim_formula",
    "ell1_formula",
    "ell2_formula",
    "enumerate_paths",
    "enumerate_straight",
    "essential_gap",
    "export_tree",
    "extrema",
    "find_reduction_move",
    "format_element",
    "identity",
    "interval",
    "is_geometric_coxeter_type",
    "is_min_len",
    "is_minimal_coxeter_type",
    "is_straight",
    "is_twisted_coxeter",
    "iter_elements",
    "kottwitz_point",
    "length",
    "leq",
    "mct_inequality",
    "multiply",
    "newton_point",
    "omega_element",
    "parse_element",
    "parse_spec",
    "purity_report",
    "reflection_length",
    "report_to_dict",
    "same_class",
    "shift_class",
    "sigma_act",
    "simple_reflection",
    "sort_classes",
    "strong_multiplicity_one",
    "translation",
]
