"""Exact symbolic engine for Hopf algebras and principal comodule algebras,
with a numerical verifier for the multipullback constructions it models."""

from .scalars import GaussRat, Scalar, S_ONE, S_ZERO
from .ncpoly import Alphabet, NCPoly
from .rewrite import RewriteSystem, OrderViolation, SizeLimitError
from .tensors import Tensor
from .maps import LinearMap, gens_map
from .hopf import (
    HopfAlgebra,
    HopfIdeal,
    check_hopf_axioms,
    quotient_hopf,
)
from .comodule import (
    CleavingMap,
    ComoduleAlgebra,
    SmashProduct,
    StrongConnection,
    canonical_map,
    smash_product,
    verify_strong_connection,
)
from .pullback import (
    Covering,
    Trivialisation,
    cotensor_membership,
    pair_differences,
    piece_glue,
    prolong,
    reducibility_check,
)
from . import builtin

__version__ = "0.1.0"
