import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from superlie import (decompose, direct_sum, h_spectrum, irreducible_module,
                      linalg, osp12_standard, scramble, verify_triple)
from superlie.osp12 import (ModuleError, Osp12Module, TripleError, _certify_summand,
                            _half_h_tops, check_representation, generated_g0_submodule)
from superlie.algebra import even_part
from superlie.scalars import GaussianRational, Rat


def decomposition_multiset(m: Osp12Module) -> list[int]:
    """The highest weights of the summands of decompose(m), largest first."""
    return sorted((lam for lam, _ in decompose(m)), reverse=True)


def idx(label):
    from superlie.osp12 import OSP_LABELS
    return OSP_LABELS.index(label)


def basis_vec(i, c=1):
    return {i: Rat(c)}


def scaled_rows(mat, n, c):
    """Nested rows of c * mat, read entry by entry."""
    return [[c * mat[i, j] for j in range(n)] for i in range(n)]


# --- the standard algebra's defining relations


def test_odd_squares_hit_the_even_raising_and_lowering():
    L = osp12_standard()
    assert L.bracket_basis(idx("F+"), idx("F+")) == {idx("E+"): Rat(1)}
    assert L.bracket_basis(idx("F-"), idx("F-")) == {idx("E-"): Rat(1)}


def test_derived_even_triple_relations():
    L = osp12_standard()
    Ep = L.bracket_basis(idx("F+"), idx("F+"))
    Em = L.bracket_basis(idx("F-"), idx("F-"))
    assert L.bracket({idx("H"): Rat(1)}, Ep) == {idx("E+"): Rat(4)}
    assert L.bracket(Ep, Em) == {idx("H"): Rat(-8)}
    assert L.bracket(Ep, {idx("F+"): Rat(1)}) == {}


def test_verify_triple_standard_osp():
    L = osp12_standard()
    t = verify_triple(L, {idx("F+"): Rat(1)}, {idx("F-"): Rat(1)}, {idx("H"): Rat(1)})
    assert t.kind == "osp"


def test_verify_triple_derived_sl2_in_even_part():
    ev = even_part(osp12_standard())
    labels = ev.basis_labels
    ep, em, h = labels.index("E+"), labels.index("E-"), labels.index("H")
    t = verify_triple(ev, {ep: Rat(1, 4)}, {em: Rat(-1, 4)}, {h: Rat(1, 2)})
    assert t.kind == "sl2"


def test_verify_triple_rejects_bad_pair():
    L = osp12_standard()
    with pytest.raises(TripleError):
        verify_triple(L, {idx("F+"): Rat(1)}, {idx("F+"): Rat(1)}, {idx("H"): Rat(1)})


# --- irreducible modules


def test_trivial_module_has_zero_actions():
    m = irreducible_module(0)
    assert m.dim == 1
    assert not m.act_e[0, 0] and not m.act_f[0, 0] and not m.act_h[0, 0]
    assert check_representation(m) is None


def test_v2_action_table():
    m = irreducible_module(2)
    assert m.dim == 3
    assert h_spectrum(m) == [2, 0, -2]
    assert m.act_e[0, 1] == Rat(2)      # e.v1 = 2 v0
    assert m.act_e[1, 2] == Rat(-2)     # e.v2 = -2 v1
    assert m.act_f[1, 0] == Rat(1) and m.act_f[2, 1] == Rat(1)
    assert linalg.mat_vec(m.act_f, basis_vec(2)) == {}  # f.v2 = 0


def test_v4_action_coefficient():
    m = irreducible_module(4)
    assert m.dim == 5
    assert h_spectrum(m) == [4, 2, 0, -2, -4]
    assert m.act_e[2, 3] == Rat(2)      # e.v3 = (4 - 2) v2


def test_odd_or_negative_highest_weight_rejected():
    with pytest.raises(ModuleError):
        irreducible_module(3)
    with pytest.raises(ModuleError):
        irreducible_module(-2)


def test_direct_sum_spectrum_oracle():
    m = direct_sum([irreducible_module(2), irreducible_module(2)])
    assert h_spectrum(m) == [2, 2, 0, 0, -2, -2]


def test_spectrum_rejects_wrong_h():
    m = irreducible_module(2)
    bad = Osp12Module(m.parity, m.act_e, m.act_f, scaled_rows(m.act_h, 3, Rat(1, 2)))
    with pytest.raises(ModuleError):
        h_spectrum(bad)


def test_representation_property_against_structure_constants():
    """All fifteen basis-pair identities, straight from the bracket tensor."""
    L = osp12_standard()
    mods = [irreducible_module(2), irreducible_module(4, 1),
            scramble(direct_sum([irreducible_module(2), irreducible_module(0, 1)]), 3)]
    for m in mods:
        rho = {b: m.action(L.basis_labels[b]) for b in range(5)}
        for a in range(5):
            for b in range(5):
                sign = -1 if (L.parity[a] and L.parity[b]) else 1
                for j in range(m.dim):
                    lhs = linalg.vsub(linalg.mat_vec(rho[a], rho[b][j]),
                                      linalg.vscale(sign, linalg.mat_vec(rho[b], rho[a][j])))
                    rhs: dict = {}
                    for k, c in L.bracket_basis(a, b).items():
                        linalg.vaxpy_inplace(rhs, c, rho[k][j])
                    assert lhs == rhs, (L.basis_labels[a], L.basis_labels[b], j)


def test_lowering_chain_bound_from_highest_vectors():
    # an h-eigenvector y of eigenvalue 2k killed by e dies after exactly 2k+1 steps
    for lam in (0, 2, 6):
        m = irreducible_module(lam)
        cur = basis_vec(0)
        for _ in range(lam):
            cur = linalg.mat_vec(m.act_f, cur)
        assert cur
        assert not linalg.mat_vec(m.act_f, cur)


# --- the generated even-part submodule


def test_generated_submodule_v2_top():
    m = irreducible_module(2)
    vecs = generated_g0_submodule(m, basis_vec(0), 2)
    span = linalg.Echelon()
    for v in vecs:
        span.add(v)
    assert span.rank == 1
    assert span.contains(basis_vec(1))


def test_generated_submodule_degenerate_zero():
    m = irreducible_module(0, 1)
    assert generated_g0_submodule(m, basis_vec(0), 0) == []


def test_generated_submodule_v4_matches_closure():
    m = irreducible_module(4)
    vecs = generated_g0_submodule(m, basis_vec(0), 4)
    span = linalg.Echelon()
    for v in vecs:
        span.add(v)
    assert span.rank == 2  # v1 and v3: the odd part of V(4)
    assert span.contains(basis_vec(1)) and span.contains(basis_vec(3))


def test_generated_submodule_rejects_minus_two():
    one = Osp12Module((1,), [[0]], [[0]], [[-2]])
    with pytest.raises(ModuleError):
        generated_g0_submodule(one, basis_vec(0), -2)


def test_generated_submodule_rejects_non_eigenvector():
    m = irreducible_module(2)
    with pytest.raises(ModuleError):
        generated_g0_submodule(m, basis_vec(0), 0)


# --- decomposition


def test_decompose_irreducible_is_identity():
    out = decompose(irreducible_module(2))
    assert [lam for lam, _ in out] == [2]
    assert len(out[0][1]) == 3


def test_decompose_scrambled_pairs():
    m = scramble(direct_sum([irreducible_module(2), irreducible_module(0)]), 17)
    assert decomposition_multiset(m) == [2, 0]
    m = scramble(direct_sum([irreducible_module(4), irreducible_module(2),
                             irreducible_module(2)]), 23)
    assert decomposition_multiset(m) == [4, 2, 2]


def test_decompose_round_trip_random_multisets():
    rng = random.Random(99)
    for trial in range(6):
        lams = sorted((rng.choice([0, 2, 4, 6]) for _ in range(rng.randint(1, 4))),
                      reverse=True)
        mods = [irreducible_module(l, rng.randint(0, 1)) for l in lams]
        m = scramble(direct_sum(mods), seed=1000 + trial)
        assert decomposition_multiset(m) == lams


def test_decompose_certificates():
    m = scramble(direct_sum([irreducible_module(4, 1), irreducible_module(2)]), 5)
    out = decompose(m)
    total = sum(lam + 1 for lam, _ in out)
    assert total == m.dim
    for lam, chain in out:
        assert lam % 2 == 0 and (lam + 1) % 2 == 1
        for k, v in enumerate(chain):
            assert linalg.mat_vec(m.act_h, v) == linalg.vscale(lam - 2 * k, v)


def test_decompose_rejects_non_representation():
    m = irreducible_module(2)
    bad = Osp12Module(m.parity, m.act_e, m.act_f, scaled_rows(m.act_h, 3, 3))
    with pytest.raises(ModuleError):
        decompose(bad)


def test_half_h_tops_counts_summands():
    # even parts: V(4) gives the weight-2 even chain, V(2) the weight-1 one
    m = direct_sum([irreducible_module(4), irreducible_module(2)])
    tops = _half_h_tops(m)
    assert sorted(lam for lam, _ in tops) == [1, 2]


def _sympy_kernel_dim(m, mu) -> int:
    """dim ker(h - mu) from sympy's exact rank, independent of superlie.linalg."""
    h = sympy.Matrix(m.dim, m.dim, lambda i, j: sympy.Rational(str(m.act_h[i, j])))
    shifted = DomainMatrix.from_Matrix(h - mu * sympy.eye(m.dim)).convert_to(sympy.QQ)
    return m.dim - shifted.rank()


# multisets of highest weights (with top parities) of total dimension <= 40
_PLANS = st.lists(st.tuples(st.sampled_from([0, 0, 2, 4, 6, 8, 10, 12]),
                            st.integers(0, 1)),
                  min_size=1, max_size=8).filter(
    lambda plan: sum(lam + 1 for lam, _ in plan) <= 40)


@settings(max_examples=25, deadline=None)
@given(plan=_PLANS, seed=st.integers(0, 10 ** 6))
def test_decompose_multiset_agrees_with_spectrum_counting(plan, seed):
    """Independent oracle: mult(lam) = dim ker(h-lam) - dim ker(h-lam-2).

    The kernel dimensions come from sympy ranks of the scrambled h matrix,
    not from the elimination engine under test.
    """
    m = scramble(direct_sum([irreducible_module(lam, par) for lam, par in plan]), seed)
    top = max(lam for lam, _ in plan)
    kernel = {mu: _sympy_kernel_dim(m, mu) for mu in range(0, top + 4, 2)}
    derived = []
    for lam in range(top, -1, -2):
        derived.extend([lam] * (kernel[lam] - kernel[lam + 2]))
    assert derived == sorted((lam for lam, _ in plan), reverse=True)
    assert decomposition_multiset(m) == derived
    planted = [lam - 2 * i for lam, _ in plan for i in range(lam + 1)]
    assert h_spectrum(m) == sorted(planted, reverse=True)


def _certify_cases():
    v4 = irreducible_module(4)
    chain = [basis_vec(i) for i in range(5)]
    v2 = irreducible_module(2)
    doubled_e = Osp12Module(v2.parity, scaled_rows(v2.act_e, 3, 2), v2.act_f, v2.act_h)
    mixed = direct_sum([irreducible_module(0), irreducible_module(0, 1)])
    return [
        (v4, 3, chain[:4], "is not an even nonnegative integer"),
        (v4, 4, chain[:4], "has 4 chain vectors"),
        (v4, 4, [chain[1]] + chain[1:], "chain vector 0 is not an h-eigenvector"),
        (v4, 4, chain[:2] + [basis_vec(2, 2)] + chain[3:], "f does not shift chain vector 1"),
        (doubled_e, 2, chain[:3], "e does not act with the expected coefficient at 1"),
        (mixed, 0, [{0: Rat(1), 1: Rat(1)}], "chain vector 0 is not homogeneous"),
    ]


def test_certify_summand_accepts_the_standard_chain():
    _certify_summand(irreducible_module(4), 4, [basis_vec(i) for i in range(5)])


@pytest.mark.parametrize("case", range(6))
def test_certify_summand_rejects_broken_chains(case):
    m, lam, chain, message = _certify_cases()[case]
    with pytest.raises(ModuleError, match=message):
        _certify_summand(m, lam, chain)


# --- malformed modules


@pytest.mark.parametrize("parity,act,message", [
    ((0, 7), [[0, 0], [0, 0]], "parity must list 0 or 1"),
    ((0, 1), [[0, 1], [0]], "act_e is not a 2x2 matrix"),
    ((0, 1), [[0, 1]], "act_e is not a 2x2 matrix"),
    ((0, 1), [[0, GaussianRational(Rat(1, 2), 1)], [0, 0]], "act_e entry (0,1) is not rational"),
])
def test_module_constructor_rejects_malformed_input(parity, act, message):
    zero = [[0, 0], [0, 0]]
    with pytest.raises(ModuleError, match=message.replace("(", r"\(").replace(")", r"\)")):
        Osp12Module(parity, act, zero, zero)
