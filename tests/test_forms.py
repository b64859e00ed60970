"""Binary cubic forms: discriminant, GL2 action, diagonalization, orbits."""

import itertools
import random
import time

import pytest

from conftest import F7, F13, Q, QW, rand_form, rand_gl2, rand_scalar
from oracles import (
    act_raw,
    encode,
    generator_images,
    gl2_generators,
    orbit_of,
    orbit_partition,
    orbit_table,
    scan_stabilizer,
)

from cubiclifford.errors import (
    DegenerateForm,
    SquareRootAbsent,
    UnsupportedField,
)
from cubiclifford.fields import (
    FieldSpec,
    cube_root_in_field,
    form_discriminant,
    hessian,
    nth_power_class,
    sixth_power_class_token,
)
from cubiclifford.forms import (
    BinaryCubicForm,
    GL2Element,
    _normal_form,
    act_gl2,
    diagonalize,
    discriminant,
    gl2_order,
    orbit_enumerate,
    orbit_equivalent,
    orbit_invariants,
    stabilizer,
)

# frozen F_7 regression data from the first brute-force enumeration:
# 9 nondegenerate orbits, and all 2016 nondegenerate forms
F7_ORBIT_TABLE = [
    # representative, size, stabilizer order
    ((0, 1, 0, 1), 336, 6),
    ((0, 1, 0, 2), 336, 6),
    ((0, 1, 0, 3), 112, 18),
    ((0, 1, 0, 4), 336, 6),
    ((0, 1, 0, 5), 112, 18),
    ((0, 1, 0, 6), 112, 18),
    ((1, 0, 0, 2), 224, 9),
    ((1, 0, 0, 3), 224, 9),
    ((1, 0, 3, 2), 224, 9),
]


def delta_int(a, b, c, d):
    """Independent oracle: the discriminant expansion over the integers."""
    return 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d


def test_discriminant_examples():
    assert discriminant(BinaryCubicForm(Q, (1, 0, 0, 1))) == Q.scalar(delta_int(1, 0, 0, 1))
    assert discriminant(BinaryCubicForm(Q, (1, 0, 0, 1))) == Q.scalar(-27)
    assert discriminant(BinaryCubicForm(Q, (1, 0, 0, 0))).is_zero()
    assert discriminant(BinaryCubicForm(Q, (0, 1, 1, 0))) == Q.one()
    rng = random.Random(30)
    for _ in range(30):
        coeffs = [rng.randint(-6, 6) for _ in range(4)]
        f = BinaryCubicForm(Q, coeffs)
        assert f.discriminant() == Q.scalar(delta_int(*coeffs))


def test_discriminant_equals_the_scalar_formula():
    # raw residues over F_p and Fractions over Q, against Delta on Scalars
    rng = random.Random(34)
    for field in (F7, FieldSpec.prime(18446744073709551427), Q, QW):
        for _ in range(100):
            f = rand_form(field, rng, nondegenerate=False)
            assert f.discriminant() == form_discriminant(f.coeffs), (field, f.coeffs)
            assert f.discriminant().field is field


def test_act_identity_swap_scaling():
    f = BinaryCubicForm(Q, (2, -1, 5, 3))
    assert act_gl2(GL2Element.identity(Q), f) == f
    assert act_gl2(GL2Element.swap(Q), f) == BinaryCubicForm(Q, (3, 5, -1, 2))
    g = GL2Element(Q, (2, 0, 0, 2))
    f2 = act_gl2(g, BinaryCubicForm(Q, (1, 0, 0, 1)))
    assert f2 == BinaryCubicForm(Q, (8, 0, 0, 8))
    assert g.det**6 == Q.scalar(4096)
    assert f2.discriminant() == Q.scalar(-27 * 4096)


def test_action_is_consistent_with_hand_expansion():
    # swap substitution expanded by hand: f(v, u) reverses the coefficients
    rng = random.Random(31)
    for _ in range(20):
        f = rand_form(F7, rng, nondegenerate=False)
        assert act_gl2(GL2Element.swap(F7), f).coeffs == f.coeffs[::-1]


def test_discriminant_covariance_500_per_field():
    rng = random.Random(32)
    for field in (F7, F13, QW):
        for _ in range(500):
            g = rand_gl2(field, rng)
            f = rand_form(field, rng, nondegenerate=False)
            assert act_gl2(g, f).discriminant() == g.det**6 * f.discriminant()


def test_action_composition_and_identity_laws():
    rng = random.Random(33)
    for _ in range(100):
        g, h = rand_gl2(F7, rng), rand_gl2(F7, rng)
        f = rand_form(F7, rng, nondegenerate=False)
        assert act_gl2(g, act_gl2(h, f)) == act_gl2(h.mul(g), f)
        assert act_gl2(GL2Element.identity(F7), f) == f
        assert act_gl2(g.inverse(), act_gl2(g, f)) == f
        for m in (h.mul(g), g.inverse()):  # each carries its det, computed from its factors
            assert m.det == GL2Element(F7, m.entries()).det


def test_diagonalize_already_diagonal():
    f = BinaryCubicForm(Q, (1, 0, 0, 1))
    g, d = diagonalize(f)
    assert g == GL2Element.identity(Q)
    assert d == f


def test_diagonalize_f7_example():
    f = BinaryCubicForm(F7, (0, 1, 1, 0))
    assert f.discriminant() == F7.one()
    # -108*Delta = 4 mod 7 and sqrt(4) = 2 exists
    g, d = diagonalize(f)
    assert d.is_diagonal() and d.is_nondegenerate()
    assert act_gl2(g, f) == d


def test_diagonalize_sum_of_cubes():
    # (1,3,3,2) = (u+v)^3 + v^3: -108*Delta = 2916 = 54^2, so it diagonalizes
    # (the spec example calling this a SquareRootAbsent case miscomputes)
    f = BinaryCubicForm(Q, (1, 3, 3, 2))
    assert Q.scalar(-108) * f.discriminant() == Q.scalar(2916)
    g, d = diagonalize(f)
    assert d == BinaryCubicForm(Q, (1, 0, 0, 1))


def test_diagonalize_square_root_absent():
    f = BinaryCubicForm(Q, (1, 1, 0, 1))
    assert f.discriminant() == Q.scalar(-31)
    with pytest.raises(SquareRootAbsent):
        diagonalize(f)


def test_diagonalize_r_zero_swap_fallback():
    # r = c0*c2/3 - c1^2/9 = 0 for (2,3,3,1); the swap retries with r != 0
    f = BinaryCubicForm(Q, (2, 3, 3, 1))
    g, d = diagonalize(f)
    assert d.is_diagonal()
    assert act_gl2(g, f) == d


def test_diagonalize_degenerate_rejected():
    with pytest.raises(DegenerateForm):
        diagonalize(BinaryCubicForm(Q, (1, 0, 0, 0)))


def test_diagonalize_random_f13():
    rng = random.Random(34)
    done = 0
    while done < 100:
        f = rand_form(F13, rng)
        try:
            g, d = diagonalize(f)
        except SquareRootAbsent:
            continue
        assert d.is_diagonal()
        assert act_gl2(g, f) == d
        done += 1


@pytest.mark.parametrize("field", [Q, QW, F13, FieldSpec.prime(18446744073709551427)], ids=str)
def test_one_split_decides_normal_form_and_diagonalize(field):
    # the Hessian splits exactly when -3*Delta (= 18^2*D) is a square: then
    # _normal_form is a diagonalizing pair and diagonalize returns it; else
    # diagonalize raises SquareRootAbsent and _normal_form is (0, a, 0, b) or None
    rng = random.Random(36)
    cases = [rand_form(field, rng) for _ in range(60)]
    cases += [f for f, _ in _moved_diagonal_forms(field, rng, 20)]
    split = 0
    for f in cases:
        assert f.require_nondegenerate() == f.discriminant()
        normal = _normal_form(f)
        if nth_power_class(-3 * f.discriminant(), 2):
            g, d = normal
            assert d.is_diagonal() and act_gl2(g, f) == d
            assert diagonalize(f) == normal
            split += 1
            continue
        if field.p:
            g, n = normal
            assert not n.is_diagonal() and n.coeffs[0] == n.coeffs[2] == 0
            assert act_gl2(g, f) == n
        else:
            assert normal is None
        with pytest.raises(SquareRootAbsent):
            diagonalize(f)
    assert 20 <= split < len(cases)


@pytest.mark.parametrize("p", [7, 13])
def test_r_vanishes_for_a_form_and_its_swap_only_on_diagonal_forms_and_cubes(p):
    # r = -h0/9 for f and -h2/9 for its swap: the swap in forms._split never meets r = 0 twice
    both = [
        c for c in itertools.product(range(p), repeat=4)
        if (c[1] or c[2]) and hessian(c)[0] % p == hessian(c)[2] % p == 0
    ]
    assert len(both) == (p - 1) ** 2  # c0*(u + k*v)^3 with c0, k nonzero
    assert all(form_discriminant(c) % p == 0 for c in both)


def test_stabilizer_orders_f7():
    st = stabilizer(BinaryCubicForm(F7, (1, 0, 0, 1)))
    assert st.order == 18  # 1/1 is a cube
    st = stabilizer(BinaryCubicForm(F7, (1, 0, 0, 3)))
    assert st.order == 9  # cubes mod 7 are {1, 6}
    assert {pow(x, 3, 7) for x in range(1, 7)} == {1, 6}


def test_stabilizer_qw_explicit_18():
    st = stabilizer(BinaryCubicForm(QW, (1, 0, 0, 1)))
    assert st.order == 18
    w = QW.omega()
    roots = [QW.one(), w, w * w]
    expected = {(u, QW.zero(), QW.zero(), v) for u in roots for v in roots} | {
        (QW.zero(), u, v, QW.zero()) for u in roots for v in roots
    }
    assert {g.entries() for g in st.elements} == expected
    # the listed elements really stabilize and form a group
    f = BinaryCubicForm(QW, (1, 0, 0, 1))
    for g in st.elements:
        assert act_gl2(g, f) == f
    pool = {g.entries() for g in st.elements}
    for g in st.elements:
        for h in st.elements:
            assert g.mul(h).entries() in pool


def test_stabilizer_formula_vs_enumeration_all_diagonal_f7():
    total = gl2_order(7)
    tuples = [
        (a, b, c, d)
        for a in range(7)
        for b in range(7)
        for c in range(7)
        for d in range(7)
        if (a * d - b * c) % 7
    ]
    assert len(tuples) == total
    for p in range(1, 7):
        for r in range(1, 7):
            f = (p, 0, 0, r)
            brute = {g for g in tuples if act_raw(g, f, 7) == f}
            formula = stabilizer(BinaryCubicForm(F7, f))
            got = {tuple(e.val for e in g.entries()) for g in formula.elements}
            assert got == brute
            want_order = 18 if cube_root_in_field(F7.scalar(r) / F7.scalar(p)) else 9
            assert formula.order == want_order


def test_stabilizer_unsupported_cases():
    with pytest.raises(UnsupportedField):
        stabilizer(BinaryCubicForm(Q, (1, 1, 1, 2)))
    with pytest.raises(DegenerateForm):
        stabilizer(BinaryCubicForm(Q, (1, 0, 0, 0)))


def test_stabilizer_nondiagonal_enumerated():
    f = BinaryCubicForm(F7, (1, 0, 3, 2))
    st = stabilizer(f)
    assert st.kind == "enumerated"
    assert st.order == 9  # frozen from the orbit table: 2016 / 224
    for g in st.elements:
        assert act_gl2(g, f) == f


def test_orbit_enumeration_frozen_f7():
    orbits = orbit_enumerate(F7)
    assert len(orbits) == 9  # frozen after the first brute-force run
    assert sum(o.size for o in orbits) == 2016
    table = [(o.representative, o.size, o.stabilizer_order) for o in orbits]
    assert table == F7_ORBIT_TABLE
    for o in orbits:
        assert o.size * o.stabilizer_order == gl2_order(7) == 2016
        assert not o.delta.is_zero()


def test_orbit_enumeration_frozen_f13():
    orbits = orbit_enumerate(F13)
    assert len(orbits) == 9  # frozen after the first brute-force run
    assert sum(o.size for o in orbits) == gl2_order(13) == 26208
    assert sorted(o.stabilizer_order for o in orbits) == [6, 6, 6, 9, 9, 9, 18, 18, 18]
    for o in orbits:
        assert o.size * o.stabilizer_order == 26208


def test_stabilizer_structure_labels():
    assert stabilizer(BinaryCubicForm(F7, (1, 0, 0, 1))).structure == "(Z/3 x Z/3) : Z/2"
    assert stabilizer(BinaryCubicForm(F7, (1, 0, 0, 3))).structure == "Z/3 x Z/3"
    assert stabilizer(BinaryCubicForm(F7, (1, 0, 3, 2))).structure == "order-9"


def test_stabilizer_structure_names_only_orders_18_and_9():
    # over Q the only cube root of 1 is 1: Stab(u^3 + v^3) is {1, swap}
    assert stabilizer(BinaryCubicForm(Q, (1, 0, 0, 1))).structure == "order-2"
    assert stabilizer(BinaryCubicForm(Q, (1, 0, 0, 2))).structure == "order-1"
    assert stabilizer(BinaryCubicForm(QW, (1, 0, 0, 2))).structure == "Z/3 x Z/3"


def _moved_diagonal_forms(field, rng, count):
    """``count`` seeded (g.d, d) with d = (c0, 0, 0, c3) and g.d not diagonal."""
    pairs = []
    while len(pairs) < count:
        c0, c3 = (rand_scalar(field, rng, nonzero=True) for _ in range(2))
        d = BinaryCubicForm(field, (c0, 0, 0, c3))
        f = act_gl2(rand_gl2(field, rng), d)
        if not f.is_diagonal():
            pairs.append((f, d))
    return pairs


@pytest.mark.parametrize("field", [Q, QW])
def test_stabilizer_of_a_split_nondiagonal_form_is_conjugated(field):
    # the Hessian of g.d splits as that of d does, so stab answers, with the order of Stab(d)
    for f, d in _moved_diagonal_forms(field, random.Random(28), 12):
        st = stabilizer(f)
        assert st.kind == "enumerated"
        assert st.order == stabilizer(d).order
        assert all(act_gl2(g, f) == f for g in st.elements)


@pytest.mark.parametrize("field", [Q, QW])
def test_orbit_equivalent_finds_a_witness_between_moved_diagonal_forms(field):
    rng = random.Random(29)
    for f, d in _moved_diagonal_forms(field, rng, 12):
        h = act_gl2(rand_gl2(field, rng), d)
        answer, witness = orbit_equivalent(f, h)
        assert answer is True
        assert act_gl2(witness, f) == h


def test_diagonal_forms_whose_cube_roots_tie_over_qw():
    # c3/c0 = k^3*(3 + 6w), whose two cube roots share their a-part -k
    rng = random.Random(35)
    for k in range(1, 41):
        c0 = rand_scalar(QW, rng, nonzero=True)
        f = BinaryCubicForm(QW, (c0, 0, 0, c0 * QW.scalar((3 * k**3, 6 * k**3))))
        st = stabilizer(f)
        assert st.order == len(st.elements) == 18
        assert all(act_gl2(g, f) == f for g in st.elements)
        h = act_gl2(rand_gl2(QW, rng), f)
        answer, witness = orbit_equivalent(f, h)
        assert answer is True and act_gl2(witness, f) == h


@pytest.mark.parametrize("field", [Q, QW])
def test_orbit_equivalent_refutes_diagonal_forms_of_equal_discriminant(field):
    # both discriminants are -432, and neither 2 nor 1/2 is a cube in Q(w)
    f = BinaryCubicForm(field, (1, 0, 0, 4))
    g = BinaryCubicForm(field, (2, 0, 0, 2))
    assert f.discriminant() == g.discriminant()
    assert orbit_equivalent(f, g) == (False, None)


def test_orbit_of_sum_of_cubes_has_size_112():
    _, size = orbit_of((1, 0, 0, 1), 7)
    assert size == 2016 // 18 == 112


def test_orbit_stabilizer_f13_spot_check():
    # a cheap spot check at the larger prime: orbit of the Fermat-type form
    _, size = orbit_of((1, 0, 0, 1), 13)
    assert gl2_order(13) % size == 0
    assert gl2_order(13) // size == stabilizer(BinaryCubicForm(F13, (1, 0, 0, 1))).order


def test_oracle_generator_images_are_the_action():
    p = 7
    for n in range(p**4):
        f = (n // p**3, n // p**2 % p, n // p % p, n % p)
        images = generator_images(f, p, gl2_generators(p)[2][0])
        assert images == tuple(act_raw(g, f, p) for g in gl2_generators(p))


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_orbit_enumerate_matches_the_bfs_oracle(p):
    field = FieldSpec.prime(p)
    for nondegenerate_only in (True, False):
        orbits = orbit_enumerate(field, nondegenerate_only)
        table = [(o.representative, o.size) for o in orbits]
        assert table == orbit_table(p, nondegenerate_only)
        assert len(orbits) == (9 if nondegenerate_only else 13)
        for o in orbits:
            assert o.size * o.stabilizer_order == gl2_order(p)
            delta = o.representative_form().discriminant()
            token = None if delta.is_zero() else sixth_power_class_token(delta)
            assert (o.delta, o.delta_class6) == (delta, token)


def test_stabilizer_matches_the_scan_on_every_nondegenerate_form_f7():
    p = 7
    for n in range(1, p**4):
        f = (n // p**3, n // p**2 % p, n // p % p, n % p)
        form = BinaryCubicForm(F7, f)
        if not form.is_nondegenerate():
            continue
        got = [tuple(e.val for e in g.entries()) for g in stabilizer(form).elements]
        want = scan_stabilizer(f, p)
        # a non-diagonal form lists its stabilizer in raw-entry order, as the scan does
        assert (got if not form.is_diagonal() else sorted(got)) == want


@pytest.mark.parametrize("p", [13, 19])
def test_stabilizer_matches_the_scan_on_random_forms(p):
    field = FieldSpec.prime(p)
    rng = random.Random(p)
    for _ in range(300):
        f = rand_form(field, rng)
        raw = tuple(c.val for c in f.coeffs)
        st = stabilizer(f)
        got = [tuple(e.val for e in g.entries()) for g in st.elements]
        assert sorted(got) == scan_stabilizer(raw, p)
        assert st.order * orbit_of(raw, p)[1] == gl2_order(p)


@pytest.mark.parametrize("p", [7, 13])
def test_orbit_equivalent_matches_the_bfs_oracle(p):
    field = FieldSpec.prime(p)
    ids, _ = orbit_partition(p)
    rng = random.Random(100 + p)
    answers = []
    for i in range(200):
        f = rand_form(field, rng)
        h = act_gl2(rand_gl2(field, rng), f) if i % 2 else rand_form(field, rng)
        raw_f, raw_h = (tuple(c.val for c in x.coeffs) for x in (f, h))
        answer, witness = orbit_equivalent(f, h)
        assert answer is (ids[encode(raw_f, p)] == ids[encode(raw_h, p)])
        if answer:
            assert act_gl2(witness, f) == h
        answers.append(answer)
    assert answers.count(True) > 100 and answers.count(False) > 50


def test_orbit_equivalent_by_construction():
    rng = random.Random(35)
    for _ in range(10):
        f = rand_form(F7, rng)
        g = rand_gl2(F7, rng)
        h = act_gl2(g, f)
        answer, witness = orbit_equivalent(f, h)
        assert answer is True
        assert act_gl2(witness, f) == h
    # over Q the search route needs the diagonalizability hypothesis
    from cubiclifford.fields import sqrt_in_field

    found = 0
    while found < 6:
        f = rand_form(Q, rng)
        if sqrt_in_field(Q.scalar(-108) * f.discriminant()) is None:
            continue
        found += 1
        g = rand_gl2(Q, rng)
        h = act_gl2(g, f)
        answer, witness = orbit_equivalent(f, h)
        assert answer is True
        assert act_gl2(witness, f) == h


# (1, 1, 0, c3) with r = 0, 1, 3 roots on P^1(F_p), so |Stab| = 9, 6, 18
FORMS_BY_ROOT_COUNT = {
    1000003: ((1, 1, 0, 1), (1, 1, 0, 2), (1, 1, 0, 4)),
    18446744073709551427: ((1, 1, 0, 5), (1, 1, 0, 1), (1, 1, 0, 4)),
}


@pytest.mark.parametrize("p", sorted(FORMS_BY_ROOT_COUNT))
def test_orbit_equivalent_and_stabilizer_at_large_primes(p):
    field = FieldSpec.prime(p)
    rng = random.Random(p)
    fs = [BinaryCubicForm(field, coeffs) for coeffs in FORMS_BY_ROOT_COUNT[p]]
    for f, order in zip(fs, (9, 6, 18)):
        h = act_gl2(rand_gl2(field, rng), f)
        start = time.perf_counter()
        answer, witness = orbit_equivalent(f, h)
        assert answer is True and act_gl2(witness, f) == h
        st = stabilizer(h)
        assert time.perf_counter() - start < 1
        assert st.order == order and all(act_gl2(g, h) == h for g in st.elements)
    assert orbit_equivalent(fs[0], fs[2]) == (False, None)


def test_orbit_equivalent_frozen_f7():
    answer, _ = orbit_equivalent(
        BinaryCubicForm(F7, (1, 0, 0, 1)), BinaryCubicForm(F7, (1, 0, 0, 3))
    )
    assert answer is False  # frozen: stabilizer orders 18 vs 9 already differ


def test_orbit_equivalent_q_sixth_power_obstruction():
    f = BinaryCubicForm(Q, (1, 0, 0, 1))
    g = BinaryCubicForm(Q, (2, 0, 0, 1))
    assert g.discriminant() / f.discriminant() == Q.scalar(4)
    answer, _ = orbit_equivalent(f, g)
    assert answer is False


def test_orbit_equivalent_q_with_witness():
    f = BinaryCubicForm(Q, (1, 0, 0, 1))
    g = BinaryCubicForm(Q, (8, 0, 0, 27))
    answer, witness = orbit_equivalent(f, g)
    assert answer is True
    assert act_gl2(witness, f) == g


def test_orbit_equivalent_unknown_over_qw():
    # a nondiagonalizable pair with equal discriminants (both -31): neither the
    # sixth-power class of the ratio nor diagonalizability separates them
    f = BinaryCubicForm(QW, (1, 1, 0, 1))
    g = BinaryCubicForm(QW, (1, 0, 1, 1))
    answer, _ = orbit_equivalent(f, g)
    assert answer is None


def test_orbit_equivalent_qw_refutes_an_irrational_ratio_that_is_no_sixth_power():
    # Delta(g.f) = det(g)^6 * Delta(f), and the ratio -31/(27 + 23w) is not a sixth power
    f = BinaryCubicForm(QW, (1, 1, 0, 1))
    g = BinaryCubicForm(QW, (1, 1, 0, QW.omega()))
    assert orbit_equivalent(f, g) == (False, None)


def test_orbit_invariants_constant_on_orbits():
    rng = random.Random(36)
    for _ in range(20):
        f = rand_form(F7, rng)
        base = orbit_invariants(f)
        for _ in range(50):
            g = rand_gl2(F7, rng)
            other = orbit_invariants(act_gl2(g, f))
            assert other.delta_class6 == base.delta_class6
            assert other.has_point == base.has_point is True


def test_orbit_invariants_delta_entry():
    inv = orbit_invariants(BinaryCubicForm(Q, (1, 0, 0, 1)))
    assert inv.delta == Q.scalar(-27)
    assert inv.delta_class6 is None  # no factorization-free token over Q
    assert inv.has_point is True


def test_form_json_threes_flag():
    blob = {"field": {"kind": "Q"}, "coeffs": [1, 1, 1, 1], "threes": True}
    f = BinaryCubicForm.from_json(blob)
    assert f == BinaryCubicForm(Q, (1, 3, 3, 1))
    blob["threes"] = False
    assert BinaryCubicForm.from_json(blob) == BinaryCubicForm(Q, (1, 1, 1, 1))
