"""Exact Hochschild and cyclic homology of monogenic Ore quotients.

A = K[x, alpha] / (f) for a finite-dimensional algebra K over Q or a
cyclotomic field, an algebra endomorphism alpha, and a monic f whose
coefficients satisfy the twisting conditions.  The package builds the
small complex computing the Hochschild homology of A relative to K, the
mixed complex carrying its cyclic homology, and checks everything against
a brute-force normalized-complex oracle in exact arithmetic.
"""

from .algebra import (
    AlgebraEndomorphism,
    AlgebraError,
    BaseAlgebra,
    BimoduleData,
    MonogenicData,
    character_endomorphism,
    check_collapse,
    divide_by_f,
    eigen_split,
    group_algebra,
    regular_bimodule,
    twisted_commutator_subspace,
    validate_monogenic,
    verify_lambda_breve,
)
from .bar import BarComplex, BarResolution, InducedComparison
from .complexes import ChainComplex, HomologyReport, homology, homology_dims
from .cyclic import (
    BCTotal,
    MixedComplexData,
    bc_total,
    build_mixed,
    build_mixed_components,
    connes_D,
    hc,
    hc_closed_form,
    hc_rank_one,
    sbi_check,
    transfer_D,
)
from .fields import CycScalar, Field, cyclotomic_polynomial, make_field
from .linalg import ColMap, Matrix, SubquotientSpace, kernel_basis, rref, sparse_rank, subquotient
from .perturbation import DeformationRetract, build_cyclic_retract, perturb, vanishing_check
from .small_complex import (
    HypothesisError,
    build_cs,
    build_cs_collapsed,
    decompose,
    hh_closed_form,
    hh_rank_one,
    periodicity_check,
)
from .spec_io import EXAMPLE_NAMES, build_example, parse_spec
from .workspace import Workspace

__version__ = "0.1.0"
