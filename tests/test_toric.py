import random

import pytest

from galerobust import (
    Binomial,
    ConsistencyError,
    GradingError,
    IntegerMatrix,
    RankError,
    ZeroRowError,
    gale_transform,
    is_strongly_robust,
    render_binomial,
)
from galerobust import toric
from galerobust.gale import GaleConfiguration
from galerobust.hilbert import half_turn_and_core
from galerobust.planar import convex_hull

from conftest import (
    DATA,
    EXAMPLE_BINOMIALS,
    apply,
    binomial_from_gale,
    binomial_from_vector,
    column,
    full_turn,
    kernel_lattice_basis,
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
    with pytest.raises(ValueError, match="exponent vectors differ in length"):
        Binomial(plus=(1, 0), minus=(0,))
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
    # The empty vector is the zero vector of length 0.
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
    assert as_pairs(is_strongly_robust(example_matrix).indispensable) == EXAMPLE_BINOMIALS


def test_graver_equals_indispensable_on_example(example_matrix):
    report = is_strongly_robust(example_matrix)
    assert report.graver == report.indispensable


def test_twisted_cubic_strict_superset(twisted_cubic):
    report = is_strongly_robust(twisted_cubic)
    indisp, graver = report.indispensable, report.graver
    assert indisp < graver
    assert len(indisp) == 3
    assert len(graver) == 5


def test_graver_superset_property():
    for m in random_valid_instances(20, seed=4242):
        report = is_strongly_robust(m)
        assert report.indispensable <= report.graver


def test_indispensable_two_block_matrix_agrees_with_fiber_oracle():
    from galerobust import is_indispensable_oracle

    m = IntegerMatrix([[1, 1, 0, 0], [0, 0, 1, 1]])
    report = is_strongly_robust(m)
    b, indisp, graver = report.gale, report.indispensable, report.graver
    assert as_pairs(indisp) == {
        ((1, 0, 0, 0), (0, 1, 0, 0)),
        ((0, 0, 1, 0), (0, 0, 0, 1)),
    }
    assert indisp == frozenset(x for x in graver if is_indispensable_oracle(b, x))


def test_markov_example(example_matrix):
    report = is_strongly_robust(example_matrix)
    assert not report.complete_intersection
    assert as_pairs(report.indispensable) == EXAMPLE_BINOMIALS


def test_markov_complete_intersection():
    report = is_strongly_robust(IntegerMatrix([[1, 1, 1]]))
    assert report.complete_intersection and report.indispensable == frozenset()
    assert not report.strongly_robust
    assert len(report.graver) == 3


def test_markov_twisted_cubic(twisted_cubic):
    report = is_strongly_robust(twisted_cubic)
    assert not report.complete_intersection
    assert len(report.indispensable) == 3


def test_complete_intersection_iff_at_most_two_indispensables(acceptance_suite):
    # In codimension 2 an ideal that is not a complete intersection is
    # minimally generated by its indispensables, at least three of them
    # (Peeva-Sturmfels); 23 suite ideals have one or two.
    reports = [is_strongly_robust(m) for m in acceptance_suite]
    flags = [r.complete_intersection for r in reports]
    assert flags == [len(r.indispensable) <= 2 for r in reports]
    assert sum(flags) == 23
    m = acceptance_suite[7]
    assert m.rows == ((-2, 2, 0, 4), (-2, -3, -2, -1))
    assert reports[7].complete_intersection
    # One binomial cannot generate a height-2 ideal: the set falls short.
    assert [render_binomial(x) for x in reports[7].indispensable] == ["x1*x4 - x2"]


def test_lawrence_lifting_small():
    lam = lawrence_lifting(IntegerMatrix([[1, 1]]))
    assert lam.rows == ((1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1))


def test_lawrence_lifting_example(example_matrix):
    from galerobust import rank

    lam = lawrence_lifting(example_matrix)
    assert (lam.nrows, lam.ncols) == (10, 12)
    assert rank(lam) == 10
    k = kernel_lattice_basis(lam)
    for j in range(k.ncols):
        col = column(k, j)
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
    return {name: getattr(report, name) for name in toric.RobustnessReport._fields}


@pytest.mark.parametrize("name", ["example_matrix", "twisted_cubic"])
def test_report_rejects_a_verdict_against_the_set_comparison(name, request):
    fields = _report_fields(is_strongly_robust(request.getfixturevalue(name)))
    fields["witness"] = (1, 0) if fields["witness"] is None else None
    with pytest.raises(ConsistencyError, match="direct Graver comparison disagree"):
        toric.RobustnessReport(**fields)


def test_report_rejects_an_indispensable_set_outside_the_graver_basis(example_matrix):
    fields = _report_fields(is_strongly_robust(example_matrix))
    # B (2, 2) is twice a kernel vector, so no Graver element.
    fields["indispensable"] |= {binomial_from_gale(fields["gale"], (2, 2))}
    with pytest.raises(ConsistencyError, match="exceeds the Graver basis"):
        toric.RobustnessReport(**fields)


def test_hull_symmetry_example(example_matrix):
    report = is_strongly_robust(example_matrix)
    assert report.centrally_symmetric
    assert set(convex_hull(report.reduced.rows)) == {(-2, 1), (1, 2), (2, -1), (-1, -2)}


def test_hull_symmetry_odd_triangle():
    # [[1, 1, 1]] has the Gale rows (1, 0), (0, 1), (-1, -1) up to a basis change.
    report = is_strongly_robust(IntegerMatrix([[1, 1, 1]]))
    assert len(convex_hull(report.reduced.rows)) == 3
    assert not report.centrally_symmetric


def test_hull_symmetry_cross():
    # Two disjoint pairs of equal columns: the Gale rows are ±e1 and ±e2.
    report = is_strongly_robust(IntegerMatrix([[1, 1, 0, 0], [0, 0, 1, 1]]))
    assert len(convex_hull(report.reduced.rows)) == 4
    assert report.centrally_symmetric


def test_circuits_have_zero_coordinate_and_are_primitive():
    for m in random_valid_instances(15, seed=777):
        report = is_strongly_robust(m)
        b, reduced, graver = report.gale, report.reduced, report.graver
        for i, row in enumerate(reduced.rows):
            circ = binomial_from_gale(b, row)
            assert circ.vector[i] == 0
            assert circ in graver


def test_graver_elements_are_kernel_vectors():
    for m in random_valid_instances(10, seed=888):
        for b in is_strongly_robust(m).graver:
            assert all(x == 0 for x in apply(m, b.vector))


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


def test_permuting_columns_permutes_the_exponents(acceptance_suite):
    # Column j of the permuted matrix is column sigma[j] of A, so its kernel
    # holds u' = (u[sigma[0]], ..., u[sigma[n-1]]) for each u in A's.  The
    # canonical sign may flip, so binomials compare as unordered pairs.
    def pairs(bins, sigma):
        return {frozenset(tuple(v[s] for s in sigma) for v in (b.plus, b.minus)) for b in bins}

    rng = random.Random(20261020)
    for a in acceptance_suite:
        report = is_strongly_robust(a)
        same = range(a.ncols)
        for _ in range(3):
            sigma = list(same)
            rng.shuffle(sigma)
            permuted = is_strongly_robust(IntegerMatrix([[row[s] for s in sigma] for row in a.rows]))
            assert permuted.strongly_robust == report.strongly_robust
            assert len(permuted.h_core) == len(report.h_core)
            assert pairs(permuted.graver, same) == pairs(report.graver, sigma)
            assert pairs(permuted.indispensable, same) == pairs(report.indispensable, sigma)


@pytest.mark.parametrize("name", ["example_matrix", "twisted_cubic"])
def test_core_pair_missing_from_graver_union_is_caught(name, request, monkeypatch):
    a = request.getfixturevalue(name)
    real = toric.half_turn_and_core

    def half_turn_without_a_core_pair(union):
        half, core = real(union)
        u = core[0]
        pair = {u, (-u[0], -u[1])}
        assert len(pair & set(half)) == 1
        return [v for v in half if v not in pair], core

    monkeypatch.setattr(toric, "half_turn_and_core", half_turn_without_a_core_pair)
    with pytest.raises(ConsistencyError, match="exceeds the Graver basis"):
        toric.is_strongly_robust(a)


@pytest.mark.parametrize("name", ["example_matrix", "twisted_cubic"])
def test_core_pair_twice_in_the_half_turn_is_caught(name, request, monkeypatch):
    a = request.getfixturevalue(name)
    real = toric.half_turn_and_core

    def half_turn_with_both_members_of_a_core_pair(union):
        half, core = real(union)
        u = next(v for v in half if v in core)
        return half + [(-u[0], -u[1])], core

    monkeypatch.setattr(toric, "half_turn_and_core", half_turn_with_both_members_of_a_core_pair)
    with pytest.raises(ConsistencyError, match="exceeds the Graver basis"):
        toric.is_strongly_robust(a)


def test_half_turn_cut_to_the_core_is_caught(twisted_cubic, monkeypatch):
    # The counts then say the sets are equal, against the witness.
    real = toric.half_turn_and_core

    def core_of_the_half_turn(union):
        half, core = real(union)
        return [v for v in half if v in core], core

    monkeypatch.setattr(toric, "half_turn_and_core", core_of_the_half_turn)
    with pytest.raises(ConsistencyError, match="direct Graver comparison disagree"):
        toric.is_strongly_robust(twisted_cubic)


@pytest.mark.parametrize("name", ["example_matrix", "twisted_cubic"])
def test_one_binomial_from_two_vectors_is_caught(name, request, monkeypatch):
    a = request.getfixturevalue(name)
    real = toric._gale_binomials

    def first_binomial_in_place_of_the_last(b, us):
        binomials = real(b, us)
        return binomials[:-1] + binomials[:1]

    monkeypatch.setattr(toric, "_gale_binomials", first_binomial_in_place_of_the_last)
    with pytest.raises(ConsistencyError, match="two half-turn vectors give one Graver binomial"):
        toric.is_strongly_robust(a)


def test_trusted_reports_pass_the_public_checks(acceptance_suite):
    # is_strongly_robust builds its reports without the constructor's set
    # checks; each must pass them and compare equal when rebuilt.
    from galerobust.matrixio import load_matrix

    inputs = [
        *acceptance_suite,
        load_matrix(str(DATA / "example_4x6.mat")),
        load_matrix(str(DATA / "twisted_cubic.mat")),
        *random_valid_instances(20, seed=31337),
        lawrence_lifting(IntegerMatrix([[1, 2, 3]])),
    ]
    reports = [is_strongly_robust(a) for a in inputs]
    assert reports[-1].strongly_robust
    for report in reports:
        assert toric.RobustnessReport(**_report_fields(report)) == report


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
    half, core = half_turn_and_core(report.h_union)
    assert core == report.h_core
    walked = [u for u in half if render_binomial(binomial_from_gale(b, u)) == "x1*x2 - x3"]
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
def test_views_fail_like_the_decision(rows, error, tmp_path, capsys):
    # The report's views are the subcommands that print its keys: each
    # runs the one decision and fails with its error.
    from galerobust.cli import main
    from galerobust.matrixio import format_matrix

    a = IntegerMatrix(rows)
    with pytest.raises(error) as info:
        is_strongly_robust(a)
    assert type(info.value) is error
    path = tmp_path / "a.mat"
    path.write_text(format_matrix(a))
    capsys.readouterr()
    for command in ("check", "graver", "indispensable", "markov"):
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {error.__name__}: {info.value}\n")
