
import pytest

from galerobust import (
    Binomial,
    ConsistencyError,
    DegenerateError,
    GradingError,
    IntegerMatrix,
    RankError,
    ZeroRowError,
    centrally_symmetric_hull,
    gale_transform,
    graver_basis,
    indispensable_set,
    is_strongly_robust,
    markov_basis,
    reduce_configuration,
    render_binomial,
)
from galerobust import toric
from galerobust.gale import GaleConfiguration, ReducedGaleConfiguration

from conftest import (
    EXAMPLE_BINOMIALS,
    binomial_from_gale,
    binomial_from_vector,
    full_turn,
    lawrence_lifting,
    random_valid_instances,
    reference_binomials,
    reference_half_turn,
)


def as_pairs(bins):
    return {(b.plus, b.minus) for b in bins}


def test_binomial_validation():
    with pytest.raises(ValueError):
        Binomial(plus=(1, 1, 0), minus=(0, 1, 2))  # overlapping support
    with pytest.raises(ValueError):
        Binomial(plus=(1, -1), minus=(0, 0))
    with pytest.raises(ValueError):
        Binomial(plus=(0, 0), minus=(0, 0))
    with pytest.raises(ValueError):
        Binomial(plus=(0, 1), minus=(1, 0))  # wrong sign order
    Binomial(plus=(1, 0), minus=(0, 1))


def test_from_vector_canonical_sign():
    z = (3, -1, -3, -1, 1, 2)
    b1 = binomial_from_vector(z)
    b2 = binomial_from_vector(tuple(-x for x in z))
    assert b1 == b2
    assert b1.plus == (3, 0, 0, 0, 1, 2)
    assert b1.minus == (0, 1, 3, 1, 0, 0)
    assert b1.vector == z


def test_from_vector_rejects_the_empty_vector():
    # The empty vector is the zero vector of length 0: no coordinate
    # lists, so the batch builder alone would return no binomial at all.
    with pytest.raises(ValueError, match="zero vector yields no binomial"):
        binomial_from_vector(())


def test_binomial_from_gale_point(example_matrix):
    b = gale_transform(example_matrix)
    bin11 = binomial_from_gale(b, (1, 1))
    assert bin11.vector == (3, -1, -3, -1, 1, 2)
    assert render_binomial(bin11, letters=True) == "a^3*e*f^2 - b*c^3*d"


def test_binomial_from_gale_generator(example_matrix):
    b = gale_transform(example_matrix)
    bin21 = binomial_from_gale(b, (-2, 1))
    assert bin21.plus == (0, 5, 0, 0, 0, 0)
    assert bin21.minus == (0, 0, 0, 1, 5, 4)
    assert render_binomial(bin21, letters=True) == "b^5 - d*e^5*f^4"


def test_binomial_from_gale_sign_invariance(example_matrix):
    b = gale_transform(example_matrix)
    for u in [(1, 0), (0, 1), (2, -1), (1, 1)]:
        assert binomial_from_gale(b, u) == binomial_from_gale(b, (-u[0], -u[1]))
    with pytest.raises(ValueError):
        binomial_from_gale(b, (0, 0))


def test_binomial_from_gale_rejects_a_zero_kernel_vector():
    collinear = GaleConfiguration(rows=((1, 0), (2, 0), (-3, 0)))
    with pytest.raises(ValueError, match="zero vector"):
        binomial_from_gale(collinear, (0, 5))


def test_indispensable_example(example_matrix):
    assert as_pairs(indispensable_set(example_matrix)) == EXAMPLE_BINOMIALS


def test_graver_equals_indispensable_on_example(example_matrix):
    assert graver_basis(example_matrix) == indispensable_set(example_matrix)


def test_twisted_cubic_strict_superset(twisted_cubic):
    indisp = indispensable_set(twisted_cubic)
    graver = graver_basis(twisted_cubic)
    assert indisp < graver
    assert len(indisp) == 3
    assert len(graver) == 5


def test_graver_superset_property():
    for m in random_valid_instances(20, seed=4242):
        assert indispensable_set(m) <= graver_basis(m)


def test_indispensable_two_block_matrix_agrees_with_fiber_oracle():
    from galerobust import is_indispensable_oracle

    m = IntegerMatrix([[1, 1, 0, 0], [0, 0, 1, 1]])
    b = gale_transform(m)
    indisp = indispensable_set(m)
    assert as_pairs(indisp) == {
        ((1, 0, 0, 0), (0, 1, 0, 0)),
        ((0, 0, 1, 0), (0, 0, 0, 1)),
    }
    graver = graver_basis(m)
    assert indisp == frozenset(x for x in graver if is_indispensable_oracle(b, x))


def test_markov_example(example_matrix):
    gens, ci = markov_basis(example_matrix)
    assert not ci
    assert as_pairs(gens) == EXAMPLE_BINOMIALS


def test_markov_complete_intersection():
    m = IntegerMatrix([[1, 1, 1]])
    gens, ci = markov_basis(m)
    assert ci and gens == frozenset()
    report = is_strongly_robust(m)
    assert report.complete_intersection
    assert not report.strongly_robust
    assert len(report.graver) == 3


def test_markov_twisted_cubic(twisted_cubic):
    gens, ci = markov_basis(twisted_cubic)
    assert not ci
    assert gens == indispensable_set(twisted_cubic)


def test_lawrence_lifting_small():
    lam = lawrence_lifting(IntegerMatrix([[1, 1]]))
    assert lam.rows == ((1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1))


def test_lawrence_lifting_example(example_matrix):
    from galerobust import kernel_lattice_basis, rank

    lam = lawrence_lifting(example_matrix)
    assert (lam.nrows, lam.ncols) == (10, 12)
    assert rank(lam) == 10
    k = kernel_lattice_basis(lam)
    for j in range(k.ncols):
        col = k.column(j)
        assert col[:6] == tuple(-x for x in col[6:])


def test_strongly_robust_example(example_matrix):
    report = is_strongly_robust(example_matrix)
    assert report.strongly_robust
    assert len(report.graver) == 6
    assert report.mixed_count == 2
    assert report.centrally_symmetric
    assert report.witness is None
    assert not report.complete_intersection


def test_strongly_robust_twisted_cubic(twisted_cubic):
    report = is_strongly_robust(twisted_cubic)
    assert not report.strongly_robust
    assert report.witness is not None
    # the witness is a reduced row whose negation is missing from the core
    assert report.witness in report.reduced.rows
    neg = (-report.witness[0], -report.witness[1])
    assert neg not in set(report.h_core)
    assert not report.centrally_symmetric


def test_strongly_robust_lawrence_type():
    lam = lawrence_lifting(IntegerMatrix([[1, 2, 3]]))
    report = is_strongly_robust(lam)
    assert report.strongly_robust
    assert report.centrally_symmetric
    assert report.mixed_count >= 2


def _report_fields(report):
    return {name: getattr(report, name) for name in toric.RobustnessReport.__slots__}


@pytest.mark.parametrize("name", ["example_matrix", "twisted_cubic"])
def test_report_rejects_a_verdict_against_the_set_comparison(name, request):
    fields = _report_fields(is_strongly_robust(request.getfixturevalue(name)))
    fields["strongly_robust"] = not fields["strongly_robust"]
    with pytest.raises(ConsistencyError, match="direct Graver comparison disagree"):
        toric.RobustnessReport(**fields)


def test_report_rejects_an_indispensable_set_outside_the_graver_basis(example_matrix):
    fields = _report_fields(is_strongly_robust(example_matrix))
    # B (2, 2) is twice a kernel vector, so no Graver element.
    fields["indispensable"] |= {binomial_from_gale(fields["gale"], (2, 2))}
    with pytest.raises(ConsistencyError, match="exceeds the Graver basis"):
        toric.RobustnessReport(**fields)


def test_hull_symmetry_example(example_matrix):
    reduced = reduce_configuration(gale_transform(example_matrix))
    assert centrally_symmetric_hull(reduced)
    from galerobust.planar import convex_hull

    assert set(convex_hull(reduced.rows)) == {(-2, 1), (1, 2), (2, -1), (-1, -2)}


def test_hull_symmetry_odd_triangle():
    reduced = ReducedGaleConfiguration(rows=((1, 0), (0, 1), (-1, -1)), angular_order=(0, 1, 2))
    assert not centrally_symmetric_hull(reduced)


def test_hull_symmetry_cross():
    reduced = ReducedGaleConfiguration(
        rows=((1, 0), (-1, 0), (0, 1), (0, -1)),
        angular_order=(0, 2, 1, 3),
    )
    assert centrally_symmetric_hull(reduced)


def test_hull_degenerate():
    reduced = ReducedGaleConfiguration(rows=((1, 0), (2, 0), (3, 0)), angular_order=(0, 1, 2))
    with pytest.raises(DegenerateError):
        centrally_symmetric_hull(reduced)


def test_circuits_have_zero_coordinate_and_are_primitive():
    for m in random_valid_instances(15, seed=777):
        b = gale_transform(m)
        reduced = reduce_configuration(b)
        graver = graver_basis(m)
        for i, row in enumerate(reduced.rows):
            circ = binomial_from_gale(b, row)
            assert circ.vector[i] == 0
            assert circ in graver


def test_graver_elements_are_kernel_vectors():
    for m in random_valid_instances(10, seed=888):
        for b in graver_basis(m):
            assert all(x == 0 for x in m.apply(b.vector))


def test_render_styles():
    b = Binomial(plus=(2, 0, 1), minus=(0, 3, 0))
    assert render_binomial(b) == "x1^2*x3 - x2^3"
    assert render_binomial(b, letters=True) == "a^2*c - b^3"
    one_sided = Binomial(plus=(1, 0, 0), minus=(0, 0, 0))
    assert render_binomial(one_sided) == "x1 - 1"


def test_pair_binomials_match_reference(acceptance_suite):
    # One Graver binomial per half-turn vector, each built from one side
    # of its +/- pair; the reference builds every vector of the union,
    # walked cone by cone on the symmetrized fan.
    for a in acceptance_suite:
        report = is_strongly_robust(a)
        half = reference_half_turn(report.reduced)
        assert report.graver == reference_binomials(report.gale, full_turn(half))
        assert len(report.graver) == len(half)
        assert report.indispensable == reference_binomials(report.gale, report.h_core)
        assert graver_basis(a) == report.graver
        assert indispensable_set(a) == report.indispensable


@pytest.mark.parametrize("name", ["example_matrix", "twisted_cubic"])
def test_core_pair_missing_from_graver_union_is_caught(name, request, monkeypatch):
    a = request.getfixturevalue(name)
    real = toric.symmetrized_half_turn

    def half_turn_without_a_core_pair(union):
        half = real(union)
        u = toric.symmetric_core(union)[0]
        pair = {u, (-u[0], -u[1])}
        assert len(pair & set(half)) == 1
        return [v for v in half if v not in pair]

    monkeypatch.setattr(toric, "symmetrized_half_turn", half_turn_without_a_core_pair)
    with pytest.raises(ConsistencyError):
        toric.is_strongly_robust(a)


def test_graver_element_from_a_gap_walk():
    # A = [1 1 2]: x1*x2 - x3 comes from a vector of the symmetrized fan
    # that is in neither the plain union nor its negation, so only the
    # walk across a gap of determinant > 1 finds it.
    from galerobust import (
        SHELL_WIDTH,
        fan_radius_bound,
        graver_bruteforce,
        is_indispensable_oracle,
    )

    report = is_strongly_robust(IntegerMatrix([[1, 1, 2]]))
    b, plain = report.gale, set(report.h_union.vectors)
    graver = {"x1 - x2", "x1^2 - x3", "x2^2 - x3", "x1*x2 - x3"}
    assert {render_binomial(g) for g in report.graver} == graver
    assert {render_binomial(g) for g in report.indispensable} == {"x1 - x2"}
    assert not report.strongly_robust
    walked = [
        u for u in toric.symmetrized_half_turn(report.h_union)
        if render_binomial(binomial_from_gale(b, u)) == "x1*x2 - x3"
    ]
    assert len(walked) == 1
    u = walked[0]
    assert u not in plain and (-u[0], -u[1]) not in plain
    radius = fan_radius_bound(report.reduced) + SHELL_WIDTH
    assert graver_bruteforce(b, radius) == report.graver
    assert report.indispensable == frozenset(
        g for g in report.graver if is_indispensable_oracle(b, g)
    )


@pytest.mark.parametrize(
    "rows, error",
    [
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), RankError),
        (((1, 0, 0, 0), (0, 1, 1, 1)), ZeroRowError),
        (((1, 0, -1, 0), (0, 1, 0, -1)), GradingError),
    ],
)
def test_views_fail_like_the_decision(rows, error):
    a = IntegerMatrix(rows)
    messages = set()
    for fn in (graver_basis, indispensable_set, markov_basis, is_strongly_robust):
        with pytest.raises(error) as info:
            fn(a)
        assert type(info.value) is error
        messages.add(str(info.value))
    assert len(messages) == 1
