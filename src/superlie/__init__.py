"""Exact toolkit for Lie superalgebras, root supersystems, and affinizations."""

from .scalars import GaussianRational, Rat, scalar_from_string, scalar_to_string
from .abelian import SymmetricGroupForm, form_eval, radical_member
from .algebra import (
    LieSuperalgebra,
    RootDatum,
    even_part,
    structural_root_checks,
    verify_form,
    verify_superalgebra,
    weight_decomposition,
)
from .osp12 import (
    Osp12Module,
    Sl2SuperTriple,
    decompose,
    direct_sum,
    generated_g0_submodule,
    h_spectrum,
    irreducible_module,
    osp12_standard,
    scramble,
    verify_triple,
)
from .rootsys import (
    RootSupersystem,
    check_axioms,
    classify,
    from_root_datum,
    ratio_check,
    reflect,
    root_string,
)
from .affinize import (
    AffinizedAlgebra,
    CocycleTorus,
    GradedLoopElement,
    affinized_roots,
    torus_mul,
    trivial_torus,
    verify_affinized,
    verify_cocycle,
    verify_eals,
    window_box,
)
from .matrixsuper import (
    SharpOperator,
    SuperIndexSet,
    TwistedAlgebra,
    TwistedElement,
    diamond,
    matrix_affinization,
    plain_index_set,
    sharp,
    sharp_eigenspaces,
    sl_superalgebra,
    supertrace,
    twisted_affinize,
    verify_twisted,
)
from .reports import Report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
