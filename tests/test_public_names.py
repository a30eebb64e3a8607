"""The package's public API is this literal set: adding or dropping a name
is a deliberate edit here."""

import types

import guttstar

PUBLIC_NAMES = {
    "LieAlgebra",
    "LieHom",
    "PbwElement",
    "PolyZ",
    "Seminorm",
    "SymElement",
    "SymTensorElement",
    "WeylElement",
    "abelian",
    "antipode",
    "bch_ab",
    "bch_tilde",
    "bernoulli_star",
    "bracket",
    "carlitz_check",
    "check_hom",
    "coproduct",
    "counit",
    "dynkin_bracket",
    "exp_product_check",
    "exp_truncated",
    "filiform4",
    "format_element",
    "goldberg_coefficient",
    "heisenberg",
    "kernel_K",
    "lift_hom",
    "load_algebra",
    "log_expansion",
    "make_algebra",
    "make_hom",
    "nfold_star",
    "nilpotency_index",
    "parse_element",
    "pR_norm",
    "pR_norm_exact",
    "pbw_mul",
    "pn_norm",
    "q_z",
    "q_z_inv",
    "sl2",
    "star",
    "star_bch",
    "star_graded",
    "star_linear",
    "star_pbw",
    "submultiplicative_scale",
    "sym_mul",
    "tensor_pR",
    "validate",
    "verify_hopf",
    "weyl_mul",
    "weyl_project",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name in guttstar.__all__
        if not isinstance(getattr(guttstar, name), types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
