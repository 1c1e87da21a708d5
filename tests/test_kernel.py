"""The integer kernel of the affinized and twisted brackets and forms.

AffinizedAlgebra and TwistedAlgebra compute brackets and forms on integers
over one denominator.  The scalar versions they replaced are kept here as
the reference (they read the structure constants, the Gram matrix and the
torus directly, not the compiled tables or the theta memo), and every
result must equal them: on the configurations of acceptance criteria 6 and
7 on small windows, on hypothesis-drawn elements with fractional rational
and Gaussian coefficients and V, V*, c and d parts, and on tori whose theta
is not an integer.  Results must hold Rat values, or GaussianRational ones
with a nonzero imaginary part, and never an int or a float.  The scalar
form of two elements, the scaling of an element and the iterated kernel
bracket of ad-nilpotency, which the library no longer uses, are helpers
here (form, scaled, ad_nilpotent_on); ad_nilpotent_on must give the
verdicts of the scalar iteration.
"""

import ast
import dataclasses
import itertools
import json
import pathlib
import random

from hypothesis import given, settings, strategies as st

from superlie import (AffinizedAlgebra, CocycleTorus, linalg, osp12_standard,
                      trivial_torus, verify_affinized, verify_twisted,
                      weight_decomposition, window_box)
from superlie.abelian import gadd
from superlie.affinize import GradedLoopElement, d_term, loop_term, v_term
from superlie.linalg import add_entry
from superlie.matrixsuper import (SharpOperator, SuperIndexSet, TwistedAlgebra,
                                  TwistedElement, matrix_affinization,
                                  plain_index_set, sl_superalgebra, tw_c, tw_d,
                                  twisted_affinize, twisted_weight_spaces)
from superlie.scalars import IUNIT, GaussianRational, Rat, scalar_over

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "superlie"
BC11 = SuperIndexSet(i_dot=1, j_dot=1, with_zero_i=True)


# ---------------------------------------------------------------------------
# the reference: the scalar bracket and form


def ref_bracket(alg, x, y):
    out_loop, out_v = {}, {}
    zero = (0,) * alg.rank
    for (b1, d1), c1 in x.loop.items():
        for (b2, d2), c2 in y.loop.items():
            coeff = c1 * c2 * alg.torus.theta(d1, d2)
            deg = gadd(d1, d2)
            for k, cv in alg.base.bracket_basis(b1, b2).items():
                add_entry(out_loop, (k, deg), coeff * cv)
            if deg == zero:
                fval = alg.base.gram[b1][b2]
                if fval:
                    for i, di in enumerate(d1):
                        if di:
                            add_entry(out_v, i, coeff * fval * di)
    for i, s in x.d.items():
        for (b, deg), c in y.loop.items():
            if deg[i]:
                add_entry(out_loop, (b, deg), s * c * deg[i])
    for (b, deg), c in x.loop.items():
        for i, s in y.d.items():
            if deg[i]:
                add_entry(out_loop, (b, deg), -(s * c * deg[i]))
    return GradedLoopElement(loop=out_loop, v=out_v, d={})


def ref_form(alg, x, y):
    total = Rat(0)
    for (b1, d1), c1 in x.loop.items():
        for (b2, d2), c2 in y.loop.items():
            if any(a + b for a, b in zip(d1, d2)):
                continue
            fval = alg.base.gram[b1][b2]
            if fval:
                total = total + c1 * c2 * alg.torus.theta(d1, d2) * fval
    for i, c in x.v.items():
        s = y.d.get(i)
        if s:
            total = total + c * s
    for i, c in x.d.items():
        s = y.v.get(i)
        if s:
            total = total + c * s
    return total


def scaled(x, k):
    """k x for a GradedLoopElement or a TwistedElement."""
    if not k:
        return type(x)()
    if isinstance(x, TwistedElement):
        return TwistedElement({i: scaled(p, k) for i, p in x.parts.items()}, k * x.c, k * x.d)
    parts = (x.loop, x.v, x.d)
    return GradedLoopElement(*({key: k * c for key, c in p.items()} for p in parts))


def form(alg, x, y):
    """(x, y) in an AffinizedAlgebra or a TwistedAlgebra, through its kernel."""
    (X, sx), (Y, sy) = alg.kernel(x), alg.kernel(y)
    n, s = alg.kernel_form(X, Y)
    return scalar_over(n, sx * sy * s)


def vadd(u, v):
    """u + v for sparse vectors, the keys whose sums cancel dropped."""
    return linalg.vsum([*u.items(), *v.items()])


def loop_sum(x, y):
    """x + y for affinized elements."""
    return GradedLoopElement(vadd(x.loop, y.loop), vadd(x.v, y.v), vadd(x.d, y.d))


def _add_part(parts, i, x):
    if not x:
        return
    merged = loop_sum(parts[i], x) if i in parts else x
    if merged:
        parts[i] = merged
    else:
        parts.pop(i)


def ref_tw_bracket(tw, x, y):
    parts = {}
    cval = Rat(0)
    for i, xi in x.parts.items():
        for j, yj in y.parts.items():
            _add_part(parts, i + j, ref_bracket(tw.aff, xi, yj))
            if i and i == -j:
                val = ref_form(tw.aff, xi, yj)
                if val:
                    cval = cval + i * val
    if x.d:
        for j, yj in y.parts.items():
            if j:
                _add_part(parts, j, scaled(yj, x.d * j))
    if y.d:
        for i, xi in x.parts.items():
            if i:
                _add_part(parts, i, scaled(xi, -(y.d * i)))
    return TwistedElement(parts, cval, Rat(0))


def ref_tw_form(tw, x, y):
    total = Rat(0)
    for i, xi in x.parts.items():
        yj = y.parts.get(-i)
        if yj is not None:
            total = total + ref_form(tw.aff, xi, yj)
    return total + x.c * y.d + x.d * y.c


def ref_ad_nilpotent(bracket, x, targets, cap):
    for y in targets:
        for _ in range(cap):
            y = bracket(x, y)
            if not y:
                break
        if y:
            return False
    return True


def ad_nilpotent_on(alg, x, targets, cap: int) -> bool:
    """For every y in targets, ad_x^k y = 0 for some 1 <= k <= cap, in the
    integer kernel: alg has kernel and kernel_bracket, and targets are kernel
    elements (alg.kernel(y)[0]).  Each iterate is a nonzero integer multiple
    of ad_x^k y.  verify_eals ran axiom 2 through it on the base's rank-0
    affinization before it read the integer tables."""
    X = alg.kernel(x)[0]
    for y in targets:
        for _ in range(cap):
            y = alg.kernel_bracket(X, y)[0]
            if not any(y):
                break
        if any(y):
            return False
    return True


# ---------------------------------------------------------------------------
# comparison helpers


def assert_scalar(value):
    """A kernel result leaves as Rat, or as Q(i) with a nonzero i part."""
    assert type(value) is type(Rat(0)) or (
        isinstance(value, GaussianRational) and value.im), repr(value)


def assert_loop_scalars(x):
    for part in (x.loop, x.v, x.d):
        for value in part.values():
            assert_scalar(value)


def assert_same_bracket(alg, x, y):
    got = alg.bracket(x, y)
    assert got == ref_bracket(alg, x, y), (str(x), str(y), str(got))
    assert_loop_scalars(got)
    return got


def assert_same_form(alg, x, y):
    got = form(alg, x, y)
    assert got == ref_form(alg, x, y), (str(x), str(y), got)
    assert_scalar(got)


def assert_same_tw_bracket(tw, x, y):
    got = tw.bracket(x, y)
    assert got == ref_tw_bracket(tw, x, y)
    for part in got.parts.values():
        assert part
        assert_loop_scalars(part)
    assert_scalar(got.c)
    assert_scalar(got.d)
    return got


def assert_same_tw_form(tw, x, y):
    got = form(tw, x, y)
    assert got == ref_tw_form(tw, x, y)
    assert_scalar(got)


def sample_element(alg, rng, degrees):
    """A random homogeneous monomial of the window: a loop term, or a V or
    V* term, with a coefficient from a fixed list."""
    coeffs = [Rat(1), Rat(-1), Rat(2), Rat(1, 2), Rat(-3, 2)]
    kind = rng.random()
    if kind < 0.7 or alg.rank == 0:
        b = rng.randrange(alg.base.dim)
        deg = rng.choice(degrees)
        return loop_term(b, deg, rng.choice(coeffs))
    if kind < 0.85:
        return v_term(rng.randrange(alg.rank), rng.choice(coeffs))
    return d_term(rng.randrange(alg.rank), rng.choice(coeffs))


def sign_torus(rank):
    return CocycleTorus(rank=rank, qmatrix=tuple(
        tuple(Rat(-1) for _ in range(rank)) for _ in range(rank)))


def two_thirds_torus():
    """A bimultiplicative torus with q = 2/3: theta is not an integer."""
    q = ((Rat(2, 3), Rat(-1, 2)), (Rat(-1, 2), Rat(3)))
    return CocycleTorus(rank=2, qmatrix=q)


def table_torus():
    """A table torus of rank 1 on degrees -3..3 with theta = (2/3)^(ab)."""
    degrees = [(a,) for a in range(-3, 4)]
    q = CocycleTorus(rank=1, qmatrix=((Rat(2, 3),),))
    return CocycleTorus(rank=1, table={(a, b): q.theta(a, b)
                                       for a in degrees for b in degrees})


def fractional_base():
    """osp(1,2) with structure constants halved and the Gram matrix thirded:
    a bilinear table whose compiled denominator D is 6."""
    L = osp12_standard()
    structure = {pair: {k: Rat(1, 2) * c for k, c in row.items()}
                 for pair, row in L.structure.items()}
    gram = tuple(tuple(Rat(1, 3) * g for g in row) for row in L.gram)
    return dataclasses.replace(L, structure=structure, gram=gram)


def window_basis(alg, degrees):
    out = [loop_term(b, deg) for deg in degrees for b in range(alg.base.dim)]
    return out + [v_term(i) for i in range(alg.rank)] + [d_term(i) for i in range(alg.rank)]


# ---------------------------------------------------------------------------
# compiled tables


def test_integer_tables_of_the_fixtures_have_denominator_one():
    for L in (osp12_standard(), sl_superalgebra(plain_index_set(1, 2))):
        rows, gram, D = L.integer_tables
        assert D == 1
        for (i, j), row in L.structure.items():
            assert dict(rows[i][j]) == {k: c for k, c in row.items() if c}
        assert all(type(n) is int for row in rows for entry in row for _, n in entry)
        assert [list(r) for r in gram] == [list(r) for r in L.gram]
        assert L.integer_tables is L.integer_tables


def test_integer_tables_of_a_fractional_base():
    L = fractional_base()
    rows, gram, D = L.integer_tables
    assert D == 6
    for (i, j), row in L.structure.items():
        assert {k: Rat(n, D) for k, n in rows[i][j]} == row
    assert all(Rat(gram[i][j], D) == L.gram[i][j]
               for i in range(L.dim) for j in range(L.dim))


# ---------------------------------------------------------------------------
# the configurations of criteria 6 and 7 on small windows


def criterion6_algebras():
    for L in (osp12_standard(), sl_superalgebra(plain_index_set(1, 2))):
        datum = weight_decomposition(L)
        for rank in (1, 2):
            for torus in (trivial_torus(rank), sign_torus(rank)):
                yield AffinizedAlgebra(L, datum, torus)


def test_affinized_kernel_matches_reference_on_criterion_6_windows():
    rng = random.Random(6)
    for alg in criterion6_algebras():
        degrees = window_box(alg.rank, 1)
        basis = window_basis(alg, degrees)
        pairs = list(itertools.product(basis, repeat=2))
        if alg.rank == 2:
            pairs = rng.sample(pairs, 400)
        for x, y in pairs:
            assert_same_bracket(alg, x, y)
            assert_same_form(alg, x, y)
        for _ in range(60):
            x, y, z = (sample_element(alg, rng, degrees) for _ in range(3))
            xy = assert_same_bracket(alg, x, y)
            assert_same_bracket(alg, xy, z)
            assert_same_form(alg, xy, z)


def test_affinized_ad_nilpotency_matches_reference():
    for alg in criterion6_algebras():
        if alg.rank == 2:
            continue
        degrees = window_box(1, 1)
        targets = window_basis(alg, degrees)
        kernel_targets = [alg.kernel(y)[0] for y in targets]
        cap = alg.base.dim + 2
        verdicts = set()
        for x in targets:
            want = ref_ad_nilpotent(lambda a, b: ref_bracket(alg, a, b), x, targets, cap)
            assert ad_nilpotent_on(alg, x, kernel_targets, cap) == want
            verdicts.add(want)
        assert verdicts == {True, False}


def criterion7_twisted():
    aff = matrix_affinization(BC11, trivial_torus(1), field="Qi")
    return twisted_affinize(aff, SharpOperator(BC11, aff))


def test_twisted_kernel_matches_reference_on_criterion_7_window():
    tw = criterion7_twisted()
    spaces = twisted_weight_spaces(tw, window_box(1, 1), range(-2, 3))
    vectors = [x for basis in spaces.values() for x in basis]
    assert any(isinstance(c, GaussianRational) and c.im
               for x in vectors for part in x.parts.values() for c in part.loop.values())
    rng = random.Random(7)
    pairs = rng.sample(list(itertools.product(vectors, repeat=2)), 500)
    for x, y in pairs:
        xy = assert_same_tw_bracket(tw, x, y)
        assert_same_tw_form(tw, x, y)
        z = rng.choice(vectors)
        assert_same_tw_bracket(tw, xy, z)
        assert_same_tw_form(tw, xy, z)
    targets = vectors + [tw_c(), tw_d()]
    kernel_targets = [tw.kernel(y)[0] for y in targets]
    verdicts = set()
    for x in rng.sample(vectors, 6):
        want = ref_ad_nilpotent(lambda a, b: ref_tw_bracket(tw, a, b), x, targets, 8)
        assert ad_nilpotent_on(tw, x, kernel_targets, 8) == want
        verdicts.add(want)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# hypothesis-drawn elements


rationals = st.builds(lambda n, d: Rat(n, d), st.integers(-4, 4), st.integers(1, 6))
gaussians = st.builds(GaussianRational, rationals, rationals)
scalars = st.one_of(rationals, gaussians)


def loop_elements(dim, rank, radius):
    degree = st.tuples(*[st.integers(-radius, radius)] * rank)
    return st.builds(
        lambda loop, v, d: GradedLoopElement(
            {k: c for k, c in loop.items() if c}, {k: c for k, c in v.items() if c},
            {k: c for k, c in d.items() if c}),
        st.dictionaries(st.tuples(st.integers(0, dim - 1), degree), scalars, max_size=4),
        st.dictionaries(st.integers(0, rank - 1), scalars, max_size=rank),
        st.dictionaries(st.integers(0, rank - 1), scalars, max_size=rank))


AFFINIZED = {
    "osp12 sign": AffinizedAlgebra(osp12_standard(), weight_decomposition(osp12_standard()),
                                   sign_torus(2)),
    "sl12 q=2/3": AffinizedAlgebra(sl_superalgebra(plain_index_set(1, 2)),
                                   weight_decomposition(
                                       sl_superalgebra(plain_index_set(1, 2))),
                                   two_thirds_torus()),
    "fractional base q=2/3": AffinizedAlgebra(
        fractional_base(), weight_decomposition(osp12_standard()), two_thirds_torus()),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(AFFINIZED)), st.data())
def test_affinized_kernel_matches_reference_on_drawn_elements(name, data):
    alg = AFFINIZED[name]
    elements = loop_elements(alg.base.dim, alg.rank, 2)
    x, y, z = data.draw(elements), data.draw(elements), data.draw(elements)
    xy = assert_same_bracket(alg, x, y)
    assert_same_bracket(alg, y, x)
    assert_same_bracket(alg, xy, z)
    assert_same_form(alg, x, y)
    assert_same_form(alg, xy, z)


def test_two_thirds_torus_on_negative_degrees():
    alg = AFFINIZED["sl12 q=2/3"]
    degrees = [d for d in window_box(2, 2) if min(d) < 0]
    rng = random.Random(23)
    for _ in range(300):
        b1, b2 = rng.randrange(alg.base.dim), rng.randrange(alg.base.dim)
        d1, d2 = rng.choice(degrees), rng.choice(degrees)
        x = loop_term(b1, d1, Rat(rng.randint(1, 5), rng.randint(1, 4)))
        y = loop_sum(loop_term(b2, d2), loop_term(b1, tuple(-a for a in d1), Rat(-1, 3)))
        assert_same_bracket(alg, x, y)
        assert_same_form(alg, x, y)
        assert_same_form(alg, x, loop_term(b2, tuple(-a for a in d1)))


def test_table_torus_with_fractional_theta():
    L = osp12_standard()
    alg = AffinizedAlgebra(L, weight_decomposition(L), table_torus())
    basis = window_basis(alg, window_box(1, 1))
    for x, y in itertools.product(basis, repeat=2):
        assert_same_bracket(alg, scaled(x, Rat(3, 2)), y)
        assert_same_form(alg, x, scaled(y, Rat(-2, 5)))


def test_gaussian_torus():
    L = sl_superalgebra(plain_index_set(1, 2), field="Qi")
    alg = AffinizedAlgebra(L, weight_decomposition(L), CocycleTorus(rank=1, qmatrix=((IUNIT,),)))
    basis = window_basis(alg, window_box(1, 2))
    values = []
    for x, y in itertools.product(basis, repeat=2):
        values += assert_same_bracket(alg, x, y).loop.values()
        assert_same_form(alg, x, y)
    assert any(isinstance(c, GaussianRational) for c in values)


def twisted_elements(dim, radius):
    parts = st.dictionaries(st.integers(-3, 3), loop_elements(dim, 1, radius), max_size=3)
    zero_or = st.one_of(st.just(Rat(0)), scalars)
    return st.builds(
        lambda p, c, d: TwistedElement({i: x for i, x in p.items() if x}, c, d),
        parts, zero_or, zero_or)


TWISTED = {
    "trivial": criterion7_twisted(),
    "q=2/3": TwistedAlgebra(
        matrix_affinization(BC11, CocycleTorus(rank=1, qmatrix=((Rat(2, 3),),)), field="Qi"),
        criterion7_twisted().sh),
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(TWISTED)), st.data())
def test_twisted_kernel_matches_reference_on_drawn_elements(name, data):
    tw = TWISTED[name]
    elements = twisted_elements(tw.aff.base.dim, 2)
    x, y, z = data.draw(elements), data.draw(elements), data.draw(elements)
    xy = assert_same_tw_bracket(tw, x, y)
    assert_same_tw_bracket(tw, xy, z)
    assert_same_tw_form(tw, x, y)
    assert_same_tw_form(tw, xy, z)


# ---------------------------------------------------------------------------
# no floats


def assert_no_float(obj):
    if isinstance(obj, float):
        raise AssertionError("float in a result")
    if isinstance(obj, dict):
        for k, v in obj.items():
            assert_no_float(k)
            assert_no_float(v)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for v in obj:
            assert_no_float(v)
    elif isinstance(obj, GradedLoopElement):
        assert_no_float([obj.loop, obj.v, obj.d])
    elif isinstance(obj, TwistedElement):
        assert_no_float([obj.parts, obj.c, obj.d])
    elif isinstance(obj, GaussianRational):
        assert_no_float([obj.re, obj.im])


def test_no_float_in_kernel_results_or_reports():
    rng = random.Random(11)
    alg = AFFINIZED["sl12 q=2/3"]
    degrees = window_box(2, 1)
    for _ in range(50):
        x, y = (sample_element(alg, rng, degrees) for _ in range(2))
        X, Y = alg.kernel(x), alg.kernel(y)
        assert_no_float([X, Y, alg.kernel_bracket(X[0], Y[0]), alg.kernel_form(X[0], Y[0]),
                         alg.bracket(x, y), form(alg, x, y)])
    tw = TWISTED["q=2/3"]
    x = TwistedElement({1: loop_term(0, (1,), GaussianRational(Rat(1, 2), 3))}, Rat(1), Rat(2))
    y = TwistedElement({-1: loop_term(2, (-1,), Rat(1, 3))}, IUNIT, Rat(1, 5))
    X, Y = tw.kernel(x), tw.kernel(y)
    assert_no_float([X, Y, tw.kernel_bracket(X[0], Y[0]), tw.kernel_form(X[0], Y[0]),
                     tw.bracket(x, y), form(tw, x, y)])
    reports = [verify_affinized(alg, degrees, samples=20, seed=3),
               verify_twisted(criterion7_twisted(), BC11, window_box(1, 0), 1,
                              samples=10, seed=3)]
    for rep in reports:
        assert_no_float(rep.as_dict())
        json.loads(rep.to_json())


def test_kernel_code_has_no_true_division():
    """The kernel divides only exactly (//) on integers; a scalar quotient
    goes through the Rat constructor or scalar_over, never through /.
    That holds for the whole of linalg, whose elimination is fraction-free."""
    for name in ("affinize.py", "matrixsuper.py", "linalg.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        assert not [n for n in ast.walk(tree)
                    if isinstance(n, (ast.BinOp, ast.AugAssign))
                    and isinstance(n.op, ast.Div)], name
    tree = ast.parse((SRC / "scalars.py").read_text(encoding="utf-8"))
    kernel = {"GaussianInt", "common_denominator", "integer_over", "integers_over",
              "scalar_over", "scalars_over"}
    for node in tree.body:
        if getattr(node, "name", None) in kernel:
            assert not [n for n in ast.walk(node)
                        if isinstance(n, (ast.BinOp, ast.AugAssign))
                        and isinstance(n.op, ast.Div)], node.name


# ---------------------------------------------------------------------------
# eigen-relations: affinized_roots derives [h, x] = value x from the integer
# tables and theta; the loop through the public bracket is the reference


def root_value(alg, root, deg, gen_index):
    """Value of the functional root + deg on the gen_index-th Cartan generator.

    Generators are ordered as alg.cartan_generators(): base Cartan elements
    (where the value is the base weight), then V (value zero), then the dual
    derivations (where the value reads the degree coordinate).
    """
    m = len(alg.base.cartan)
    if gen_index < m:
        return root[gen_index]
    if gen_index < m + alg.rank:
        return Rat(0)
    return Rat(deg[gen_index - m - alg.rank])


def ref_affinized_roots(alg, degrees):
    degrees = [tuple(d) for d in degrees]
    zero_deg = (0,) * alg.rank
    zero_root = alg.datum.zero
    spaces = {}
    for deg in degrees:
        for root in alg.datum.roots:
            if root == zero_root and deg == zero_deg:
                spaces[(root, deg)] = alg.cartan_generators()
            else:
                spaces[(root, deg)] = [loop_term(b, deg) for b in alg.datum.spaces[root]]
    gens = alg.cartan_generators()
    for (root, deg), basis in spaces.items():
        for x in basis:
            for gi, h in enumerate(gens):
                want = scaled(x, root_value(alg, root, deg, gi))
                got = alg.bracket(h, x)
                if (root, deg) == (zero_root, zero_deg):
                    want = GradedLoopElement()
                if got != want:
                    raise ValueError(f"eigen-relation fails at root {root}, degree {deg}")
    return spaces


def eigen_verdict(roots_fn, alg, degrees):
    """("spaces", spaces) from roots_fn, or ("error", message) when it raises."""
    try:
        return "spaces", roots_fn(alg, degrees)
    except ValueError as exc:
        return "error", str(exc)


def eigen_algebras():
    yield from criterion6_algebras()
    yield from AFFINIZED.values()
    L = osp12_standard()
    yield AffinizedAlgebra(L, weight_decomposition(L), table_torus())
    L = sl_superalgebra(plain_index_set(1, 2), field="Qi")
    yield AffinizedAlgebra(L, weight_decomposition(L),
                           CocycleTorus(rank=1, qmatrix=((IUNIT,),)))


def test_eigen_relations_match_the_public_bracket_loop():
    from superlie.affinize import affinized_roots
    verdicts = []
    for alg in eigen_algebras():
        for degrees in (window_box(alg.rank, 1), window_box(alg.rank, 2)[:7]):
            want = eigen_verdict(ref_affinized_roots, alg, degrees)
            assert eigen_verdict(affinized_roots, alg, degrees) == want
            verdicts.append(want[0])
    # the fractional base halves [h, x] against its datum, so it must fail
    assert verdicts.count("error") == 2 and "spaces" in verdicts


def test_eigen_relations_read_theta_at_degree_zero():
    """theta(0, a) != 1 scales [h⊗1, x⊗t^a] away from root(h) x⊗t^a: the
    derived relations fail at degree a with the reference's message."""
    from superlie.affinize import affinized_roots
    L, degrees = osp12_standard(), window_box(1, 1)
    for value in (Rat(0), Rat(2), Rat(1, 2)):
        table = {(a, b): Rat(1) for a in degrees for b in degrees}
        table[(0,), (1,)] = value
        alg = AffinizedAlgebra(L, weight_decomposition(L), CocycleTorus(rank=1, table=table))
        want = eigen_verdict(ref_affinized_roots, alg, degrees)
        assert want[0] == "error" and want[1].endswith("degree (1,)")
        assert eigen_verdict(affinized_roots, alg, degrees) == want


def test_eigen_relations_check_the_zero_root_apart_from_the_cartan():
    """The (0, 0) space is the Cartan, a (0, a) space with a != 0 the datum's
    zero weight space, so the derived relations are read apart for the two
    even where theta(0, a) = theta(0, 0): a datum whose zero space also
    holds a root vector fails at (0, a) only, with degree 0 read first."""
    from superlie.affinize import affinized_roots
    L = osp12_standard()
    datum = weight_decomposition(L)
    b = next(b for b in range(L.dim) if b not in L.cartan)
    stale = dataclasses.replace(datum, spaces={**datum.spaces,
                                               datum.zero: (*datum.spaces[datum.zero], b)})
    alg, degrees = AffinizedAlgebra(L, stale, trivial_torus(1)), [(0,), (1,), (-1,)]
    want = eigen_verdict(ref_affinized_roots, alg, degrees)
    assert want == ("error", f"eigen-relation fails at root {datum.zero}, degree (1,)")
    assert eigen_verdict(affinized_roots, alg, degrees) == want


def perturbed_cartan_constant(L, scale, extra, l=0):
    """L with the first nonzero [h, b] (h the l-th Cartan element, b outside
    the Cartan) scaled by scale, plus extra times the next basis element."""
    h = L.cartan[l]
    b = next(b for b in range(L.dim) if b not in L.cartan and L.structure.get((h, b)))
    row = {k: scale * c for k, c in L.structure[(h, b)].items()}
    k = (b + 1) % L.dim
    row[k] = row.get(k, 0) + extra
    return dataclasses.replace(L, structure={**L.structure, (h, b): row})


def test_eigen_relations_catch_a_perturbed_cartan_constant():
    from superlie.affinize import affinized_roots
    for L in (osp12_standard(), sl_superalgebra(plain_index_set(1, 2))):
        datum = weight_decomposition(L)
        for scale, extra in ((Rat(2), Rat(0)), (Rat(1), Rat(1, 3)), (Rat(3, 2), Rat(-1))):
            broken = perturbed_cartan_constant(L, scale, extra)
            for torus in (trivial_torus(1), two_thirds_torus()):
                alg = AffinizedAlgebra(broken, datum, torus)
                degrees = window_box(torus.rank, 1)
                want = eigen_verdict(ref_affinized_roots, alg, degrees)
                assert want[0] == "error"
                assert eigen_verdict(affinized_roots, alg, degrees) == want
