"""Exact engine for the deformed product on the symmetric algebra of a
structure-constant Lie algebra, with seminorm estimate experiments."""

from .bch import (
    bch_ab,
    bch_tilde,
    bernoulli_star,
    carlitz_check,
    dynkin_bracket,
    exp_product_check,
    goldberg_coefficient,
    kernel_K,
    log_expansion,
    nfold_star,
    star_bch,
    star_linear,
)
from .exprs import format_element, parse_element
from .hopf import (
    SymTensorElement,
    WeylElement,
    antipode,
    coproduct,
    counit,
    tensor_pR,
    verify_hopf,
    weyl_mul,
    weyl_project,
)
from .liealg import (
    LieAlgebra,
    LieHom,
    abelian,
    bracket,
    check_hom,
    filiform4,
    heisenberg,
    load_algebra,
    make_algebra,
    make_hom,
    nilpotency_index,
    sl2,
    validate,
)
from .pbw import PbwElement, lift_hom, pbw_mul, q_z, q_z_inv, star, star_graded, star_pbw
from .sym import (
    Seminorm,
    SymElement,
    exp_truncated,
    pR_norm,
    pR_norm_exact,
    pn_norm,
    submultiplicative_scale,
    sym_mul,
)
from .zpoly import PolyZ

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
