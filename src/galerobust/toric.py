"""Binomial-level semantics of codimension-2 toric ideals.

Binomials are exponent-vector pairs (plus, minus) with disjoint supports;
no polynomial objects are materialized.  All is read off the one plain
fan of the reduced Gale configuration: the Graver basis is B u for one u
per ± pair of the symmetrized half-turn (the union, its negation and the
gap walks), the indispensable set B u for u in the symmetric core.  One
merge of the union with its negation gives both the half-turn and the
core.  As B has rank 2, u -> B u is injective, so the sets are checked
as counts of vectors in Z^2.  ``is_strongly_robust`` returns them in a
``RobustnessReport``, which computes the facts that follow when read.
"""

from __future__ import annotations

from operator import index

from . import planar
from ._value import _Value
from .errors import ConsistencyError
from .gale import (
    Bouquet,
    GaleConfiguration,
    ReducedGaleConfiguration,
    bouquets,
    gale_transform,
    reduce_configuration,
)
from .hilbert import HilbertBasisSet, fan_hilbert_union, half_turn_and_core
from .intlinalg import IntegerMatrix
from .planar import Vec2

_EXCEEDS = "indispensable set exceeds the Graver basis"
_DISAGREE = (
    "geometric criterion and direct Graver comparison disagree; "
    "this indicates a bug, please report the input matrix"
)


class Binomial(_Value):
    """Canonical exponent-vector pair p^plus - p^minus.

    Like every value, a ``tuple`` subtype of its fields, ``(plus, minus)``,
    that hashes in C, so sets of thousands of binomials cost no Python
    frame per insert.  Binomials are ordered by (plus, minus).

    Invariants: equal lengths, nonnegative entries, disjoint supports,
    not both zero, and plus lexicographically greater than minus (one
    representative per sign pair).  The public constructor stores both
    parts as int tuples and checks them all.  ``_gale_binomials``
    splits the nonzero kernel vectors B u into parts that meet every
    invariant by construction and builds the binomials with
    ``Binomial._trusted_all``, without the checks.
    """

    __slots__ = ()
    _fields = ("plus", "minus")

    def __new__(cls, plus: tuple[int, ...], minus: tuple[int, ...]):
        plus, minus = tuple(map(index, plus)), tuple(map(index, minus))
        if len(plus) != len(minus):
            raise ValueError("exponent vectors differ in length")
        if any(x < 0 for x in plus) or any(x < 0 for x in minus):
            raise ValueError("exponents must be nonnegative")
        if any(p > 0 and m > 0 for p, m in zip(plus, minus)):
            raise ValueError("supports of plus and minus must be disjoint")
        if not any(plus) and not any(minus):
            raise ValueError("zero binomial")
        if plus <= minus:
            raise ValueError("not in canonical sign (plus must be lex-greater)")
        return super().__new__(cls, plus, minus)

    @property
    def vector(self) -> tuple[int, ...]:
        return tuple(p - m for p, m in zip(self.plus, self.minus))


def variable_names(n: int, letters: bool = False) -> list[str]:
    """x1..xn, or a..z when requested and n is at most 26."""
    if letters and n <= 26:
        # Not string.ascii_lowercase: importing string compiles a regex.
        return list("abcdefghijklmnopqrstuvwxyz"[:n])
    return [f"x{i + 1}" for i in range(n)]


def render_binomial(b: Binomial, letters: bool = False) -> str:
    """Human-readable form such as 'a^3*e*f^2 - b*c^3*d'."""
    names = variable_names(len(b.plus), letters)

    def monomial(exps) -> str:
        parts = []
        for name, e in zip(names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    return f"{monomial(b.plus)} - {monomial(b.minus)}"


def _gale_binomials(b: GaleConfiguration, us: list[Vec2]) -> list[Binomial]:
    """Canonical binomials of the kernel vectors B u for u in us, in order.

    The product B U is taken one Gale row at a time: row j gives the j-th
    coordinate of every B u, so each part takes one comprehension per
    coordinate rather than one per vector.  The positive and negative
    parts of a nonzero vector meet every invariant of ``Binomial`` once
    the lex-greater one is ``plus``, so ``Binomial._trusted_all`` builds
    them in one ``map`` of ``tuple.__new__``, without the constructor's
    checks.  ValueError if some B u is zero.
    """
    coords = [[r0 * x + r1 * y for x, y in us] for r0, r1 in b.rows]
    pluses = list(zip(*[[x if x > 0 else 0 for x in c] for c in coords]))
    minuses = list(zip(*[[-x if x < 0 else 0 for x in c] for c in coords]))
    for k, (plus, minus) in enumerate(zip(pluses, minuses)):
        if plus <= minus:
            # Disjoint supports: the parts are equal only when both are zero.
            if plus == minus:
                raise ValueError("zero vector yields no binomial")
            pluses[k], minuses[k] = minus, plus
    return Binomial._trusted_all(pluses, minuses)


class RobustnessReport(_Value):
    """Verdict plus every certificate used to reach it.

    Seven fields are stored.  The verdict and four facts that follow
    from the fields are properties, computed each time they are read.
    The public constructor checks that the indispensable set lies in the
    Graver basis and equals it exactly when the verdict holds;
    ``is_strongly_robust`` checks counts instead and skips the constructor.
    """

    __slots__ = ()
    _fields = ("graver", "indispensable", "h_union", "h_core", "witness", "gale", "reduced")

    def __new__(
        cls,
        graver: frozenset[Binomial],
        indispensable: frozenset[Binomial],
        h_union: HilbertBasisSet,
        h_core: tuple[Vec2, ...],
        witness: Vec2 | None,
        gale: GaleConfiguration,
        reduced: ReducedGaleConfiguration,
    ):
        if not indispensable <= graver:
            raise ConsistencyError(_EXCEEDS)
        if (witness is None) != (indispensable == graver):
            raise ConsistencyError(_DISAGREE)
        return super().__new__(cls, graver, indispensable, h_union, h_core, witness, gale, reduced)

    @property
    def strongly_robust(self) -> bool:
        """Whether every reduced row has its negation in the symmetric core."""
        return self.witness is None

    @property
    def bouquets(self) -> tuple[Bouquet, ...]:
        return tuple(bouquets(self.gale))

    @property
    def mixed_count(self) -> int:
        return sum(1 for q in self.bouquets if q.mixed)

    @property
    def centrally_symmetric(self) -> bool:
        """Whether conv of the reduced rows has a negation-invariant vertex set.

        A report exists only for a positively graded configuration, so
        the rows positively span the plane and the hull is 2-dimensional.
        """
        verts = set(planar.convex_hull(self.reduced.rows))
        return verts == {(-x, -y) for x, y in verts}

    @property
    def complete_intersection(self) -> bool:
        """Whether I_A is a complete intersection.

        In codimension 2 an ideal that is not a complete intersection is
        minimally generated by its indispensable binomials
        (Peeva-Sturmfels), and as I_A has height 2 there are then at
        least three of them.  So I_A is a complete intersection exactly
        when it has at most two indispensable binomials.  With two they
        generate the ideal; with fewer than two the indispensable set
        does not yet generate it, and the missing generators are not
        built.
        """
        return len(self.indispensable) <= 2


def is_strongly_robust(a: IntegerMatrix) -> RobustnessReport:
    """Decide strong robustness (indispensable set equals Graver basis).

    The verdict is computed from the geometric criterion (for every
    reduced row, its negation lies in the symmetric core) and checked
    against three counts over the half-turn, which decide the set
    comparison as u -> B u is injective: each core ± pair has one member
    there, no two vectors give one binomial, and the sets are equal
    exactly when every vector is in the core.  A ConsistencyError is
    raised if a count fails or disagrees with the verdict.

    This is the package's one analysis pass: every answer is a field or
    a property of the report.  Every stage is looked up in this module's
    globals at call time, so it can be wrapped or replaced there.
    """
    b = gale_transform(a)
    reduced = reduce_configuration(b)
    union = fan_hilbert_union(reduced)
    half, core = half_turn_and_core(union)
    core_set = set(core)

    witness = None
    for row in reduced.rows:
        if (-row[0], -row[1]) not in core_set:
            witness = row
            break

    binomials = _gale_binomials(b, half)
    indisp = [g for u, g in zip(half, binomials) if u in core_set]
    graver = frozenset(binomials)
    if 2 * len(indisp) != len(core):
        raise ConsistencyError(_EXCEEDS)
    if len(graver) != len(half):
        raise ConsistencyError("two half-turn vectors give one Graver binomial")
    if (witness is None) != (len(indisp) == len(half)):
        raise ConsistencyError(_DISAGREE)
    return RobustnessReport._trusted(
        graver, graver if witness is None else frozenset(indisp), union, core, witness, b, reduced
    )
