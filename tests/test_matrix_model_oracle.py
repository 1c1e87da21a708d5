"""Cross-check the affinized algebra against the raw matrix-over-torus model.

The library builds the supertraceless loop algebra as (base-field sl) ⊗
(torus); this oracle recomputes brackets, the form, and the # image
directly on matrices with torus-element entries and compares, entry for
entry, including the cocycle twist and the central V-valued term.
"""

import itertools

from test_kernel import form
from test_sharp_layer import sharp_apply

from superlie import CocycleTorus, linalg, trivial_torus
from superlie.abelian import gadd
from superlie.affinize import loop_term
from superlie.matrixsuper import (SharpOperator, SuperIndexSet, basis_matrices,
                                  matrix_affinization, plain_index_set, sharp,
                                  supertrace, tm_parity)
from superlie.scalars import Rat, super_sign

BC11 = SuperIndexSet(i_dot=1, j_dot=1, with_zero_i=True)
SIGN_TORUS = CocycleTorus(rank=1, qmatrix=((Rat(-1),),))


def torus_mul(x, y, torus):
    """The product of torus matrices: entries multiply through the torus,
    t^a t^b = theta(a, b) t^{a+b}."""
    out = {}
    for (r, c, deg), v in x.items():
        for (r2, c2, deg2), v2 in y.items():
            if r2 == c:
                linalg.add_entry(out, (r, c2, gadd(deg, deg2)), v * v2 * torus.theta(deg, deg2))
    return out


def torus_supercomm(x, y, idx, torus):
    sign = super_sign(tm_parity(x, idx), tm_parity(y, idx))
    return linalg.vsub(torus_mul(x, y, torus), linalg.vscale(sign, torus_mul(y, x, torus)))


def lift(mats, b, deg):
    """Basis element b placed at torus degree deg, as a torus matrix."""
    return {(r, c, deg): v for (r, c, _), v in mats[b].items()}


def realize(mats, gle):
    """Loop part of a graded element as a torus matrix."""
    out = {}
    for (b, deg), coeff in gle.loop.items():
        for (r, c, _), v in mats[b].items():
            key = (r, c, deg)
            s = out.get(key, 0) + coeff * v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def model_pairing(m1, m2, idx, torus, rank):
    """(x, y) = coefficient of t^0 in str(x y)."""
    return supertrace(torus_mul(m1, m2, torus), idx).get((0,) * rank, Rat(0))


def check_algebra(idx, torus, degs, star_signs=None, field="Q"):
    aff = matrix_affinization(idx, torus, field=field)
    mats = basis_matrices(idx)
    rank = torus.rank
    for b1, b2 in itertools.product(range(aff.base.dim), repeat=2):
        for s_deg, t_deg in itertools.product(degs, repeat=2):
            x, y = loop_term(b1, s_deg), loop_term(b2, t_deg)
            got = aff.bracket(x, y)
            m1, m2 = lift(mats, b1, s_deg), lift(mats, b2, t_deg)
            assert realize(mats, got) == torus_supercomm(m1, m2, idx, torus)
            pairing = model_pairing(m1, m2, idx, torus, rank)
            expected_v = {k: pairing * d for k, d in enumerate(s_deg)
                          if pairing and d}
            assert got.v == expected_v, (b1, b2, s_deg, t_deg)
            assert form(aff, x, y) == pairing
    if idx.barred:
        sh = SharpOperator(idx, aff, star_signs=star_signs)
        for b in range(aff.base.dim):
            for deg in degs:
                image = sharp_apply(sh, loop_term(b, deg))
                assert realize(mats, image) == sharp(lift(mats, b, deg), idx,
                                                     star_signs=star_signs)


def test_plain_sl12_against_matrix_model():
    check_algebra(plain_index_set(1, 2), trivial_torus(1), [(-1,), (0,), (2,)])


def test_plain_sl12_sign_cocycle_against_matrix_model():
    check_algebra(plain_index_set(1, 2), SIGN_TORUS, [(-1,), (0,), (1,)])


def test_barred_bc11_with_sharp_against_matrix_model():
    check_algebra(BC11, SIGN_TORUS, [(-1,), (0,), (1,)], field="Qi")


def test_barred_bc11_with_entry_involution():
    check_algebra(BC11, trivial_torus(1), [(-1,), (0,), (1,), (2,)],
                  star_signs=(-1,), field="Qi")
