"""Tail-invariant measures on the path space of a stationary diagram.

Finite side: each distinguished class carries one ergodic probability
measure whose cylinder values are read off the class's extreme vector,
and every invariant probability measure is a unique convex combination
of those.  Infinite side: each non-distinguished class with a non-zero
block carries a sigma-finite measure, built from the Perron vector of
the block and extended to the rest of the diagram by an exact linear
solve; the extension value at a vertex is +inf exactly when some class
on an access chain down to the carrying class has Perron value at least
as large as the carrying one.

Every public function here takes the diagram alone and reads the
decomposition it carries, ``spectral.decompose(d)``, which each measure
holds: the diagram itself holds it only weakly.  A measure's ``value``
is its closed form, computed on each call; nothing is cached.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from . import linalg
from .diagram import StationaryDiagram, check_path
from .errors import CapExceeded, NotAperiodicError, NotInDomainError, ZeroBlockError
from .record import record
from .spectral import (DEFAULT_GAP, ComponentDecomposition, NumericValue, _class, _extend,
                       _require_exact, aperiodicity_check, check_primitive, core_membership,
                       decompose, distinguished_classes, nv_compare)


def _aperiodic(decomp: ComponentDecomposition) -> ComponentDecomposition:
    """decomp itself; NotAperiodicError unless its diagram is aperiodic."""
    verdict = aperiodicity_check(decomp)
    if not verdict:
        raise NotAperiodicError(f"not aperiodic: {verdict.reason}",
                                witness_class=verdict.witness_class)
    return decomp


def within_float_range(level: int, x, compute):
    """compute(), a value computed from x at the given level.  A float
    computation that overflows, or a float result below the normal range
    (subnormal or flushed to 0, so short of significant digits) although
    x is non-zero, is refused with CapExceeded; exact values pass through
    untouched.  Pass x None where only overflow can occur."""
    try:
        value = compute()
    except OverflowError:
        pass
    else:
        if not (isinstance(value, float) and abs(value) < sys.float_info.min and x):
            return value
    raise CapExceeded(f"level {level} is beyond float range")


class _ClassMeasure:
    """What the measures carried by one class (``decomp``, ``lam``) share."""

    @property
    def diagram(self) -> StationaryDiagram:
        return self.decomp.diagram

    @property
    def is_exact(self):
        return self.lam.is_exact

    def value(self, level: int, vertex: int):
        """Mass of any level-n cylinder ending at the vertex: x_v / lam^(n-1)."""
        x = self.vector[vertex]
        if x == math.inf:
            return x
        lam = self.lam.value
        return within_float_range(level, x, lambda: x / lam ** (level - 1))


@record
class ErgodicMeasure(_ClassMeasure):
    decomp: ComponentDecomposition
    class_id: int
    lam: NumericValue
    xi: tuple
    support: frozenset[int]

    kind = "ergodic-finite"

    @property
    def vector(self):
        return self.xi

    @property
    def full_support(self):
        return len(self.support) == len(self.decomp.classes)


def enumerate_ergodic(d: StationaryDiagram) -> list[ErgodicMeasure]:
    """All ergodic probability measures, one per distinguished class, in
    class index order.  Requires primitive blocks and aperiodicity."""
    decomp = _aperiodic(decompose(d))
    return [ErgodicMeasure(decomp, e.alpha, e.lam, e.xi, e.support_classes)
            for e in decomp._cone]  # the extreme vectors core_membership reads


def measure_of_cylinder(mu, path):
    """Value of the measure on the cylinder of a finite path: any measure
    with ``diagram`` and ``value(level, vertex)``, finite or sigma-finite."""
    check_path(mu.diagram, path)
    return mu.value(path.level, path.terminal)


@record
class InvariantMeasure:
    """Convex combination of the ergodic measures, one coefficient per
    distinguished class in class order."""

    measures: tuple[ErgodicMeasure, ...]
    coefficients: tuple

    kind = "finite-combination"

    def __post_init__(self):
        if len(self.measures) != len(self.coefficients):
            raise ValueError("one coefficient per ergodic measure")
        gap = DEFAULT_GAP if any(isinstance(c, float) for c in self.coefficients) else 0
        # written so that a NaN coefficient fails too
        if (not all(c >= -gap for c in self.coefficients)
                or not abs(sum(self.coefficients) - 1) <= gap):
            raise ValueError("coefficients must be >= 0 and sum to 1")

    @property
    def diagram(self) -> StationaryDiagram:
        return self.measures[0].diagram

    @property
    def is_exact(self):
        """Whether each term with a non-zero coefficient is exact."""
        return all(m.is_exact and not isinstance(c, float)
                   for c, m in zip(self.coefficients, self.measures) if c != 0)

    def p_vector(self, n: int = 1) -> tuple:
        """p(n) = sum_i c_i lambda_i^(1-n) xi_i; satisfies A p(n+1) = p(n)."""
        return tuple(self.value(n, v) for v in range(self.diagram.n_vertices))

    def value(self, n: int, v: int):
        """Entry v of p(n), the mass of any level-n cylinder ending at v.
        Exact when ``is_exact``; otherwise every operand is taken to float
        first (a float scale times a Fraction entry multiplies as floats)."""
        scalar = Fraction if self.is_exact else float
        out = scalar(0)
        for c, m in zip(self.coefficients, self.measures):
            if c == 0:
                continue
            c, lam, x = scalar(c), scalar(m.lam.value), m.xi[v]
            scale = within_float_range(n, c, lambda: c / lam ** (n - 1))
            out += within_float_range(n, x, lambda: scale * x)
        return out


def measure_from_point(d: StationaryDiagram, p1) -> InvariantMeasure:
    """The unique invariant probability measure whose level-1 cylinder
    vector is p1.  p1 must hold int or Fraction entries, weigh to 1
    against the level-1 heights (all ones), and lie in the cone of the
    extreme vectors."""
    decomp = decompose(d)
    measures = enumerate_ergodic(d)
    if sum(_require_exact(p1)) != 1:
        raise NotInDomainError("level-1 vector does not have total mass 1")
    verdict = core_membership(decomp, p1)
    if verdict.kind != "in-core":
        raise NotInDomainError(f"level-1 vector is outside the measure cone "
                               f"({verdict.kind})")
    return InvariantMeasure(tuple(measures), verdict.coefficients)


def minimal_components(d: StationaryDiagram) -> tuple[int, ...]:
    """Class ids of the minimal closed invariant path sets: exactly the
    classes nothing else has access to."""
    decomp = decompose(d)
    check_primitive(decomp)
    return decomp.initial_classes


def support_classes(mu: ErgodicMeasure):
    """(classes with positive cylinder measures, covers-everything flag)."""
    return tuple(sorted(mu.support)), mu.full_support


@record
class TailMeasure(_ClassMeasure):
    """Sigma-finite measure carried by a non-distinguished class: cylinder
    values y_v lambda^(1-n) on the class, the solved extension elsewhere,
    +inf where some access chain carries an equal-or-larger Perron value,
    and 0 off the access set."""

    decomp: ComponentDecomposition
    class_id: int
    lam: NumericValue
    y: tuple
    atomic: bool
    base: tuple

    @property
    def kind(self):
        return "sigma-finite-atomic" if self.atomic else "sigma-finite"

    @property
    def vector(self):
        return self.base


def tail_valuation(d: StationaryDiagram, alpha: int):
    """(lam, y, base): Perron value of class alpha, its normalized Perron
    vector, and the per-vertex limit values of the extension.

    base[v] solves lam*s = A s with boundary y on the class, is +inf when a
    class beta != alpha with class(v) >= beta >= alpha has Perron value
    >= lam, and is 0 when v has no access to alpha.  Works for any class
    with a non-zero block; on a distinguished class the result is a
    positive multiple of the ergodic extreme vector.

    The accessors of alpha are walked nearest alpha first, by descending
    accessor count: a class strictly between b and alpha has every
    accessor of b, and b too.  So when b is reached, every accessor of
    alpha below b is decided; b is divergent, with no comparison, when it
    has access to one that is, and otherwise exactly when rho_b >= lam.
    Each accessor is compared at most once (a zero block as exact 0).
    An exact lam gives each finite value as one ``Fraction``, the integer
    ``_extend`` solution over its common denominator.
    """
    decomp = decompose(d)
    cls = _class(decomp, alpha)
    if cls.is_zero:
        raise ZeroBlockError(f"class {alpha} has a zero block")
    lam = cls.rho
    total = linalg.left_sum(cls.perron)
    y = tuple(v / total for v in cls.perron)

    access = decomp.access
    divergent = []
    for b in sorted(decomp.accessors_of(alpha), key=lambda b: -sum(row[b] for row in access)):
        if any(access[b][g] for g in divergent) or nv_compare(decomp.classes[b].rho, lam) >= 0:
            divergent.append(b)
    finite = [g for g in range(len(access)) if access[g][alpha] and g not in divergent]

    s, den = _extend(decomp, alpha, y, finite)
    base = [Fraction(x, den) for x in s] if lam.is_exact else s
    for g in divergent:
        for v in decomp.classes[g].vertices:
            base[v] = math.inf
    return lam, y, tuple(base)


def enumerate_infinite(d: StationaryDiagram, include_atomic: bool = True) -> list[TailMeasure]:
    """Sigma-finite measures, one per non-distinguished class with a
    non-zero block, in class index order.  Atomic ones (the class block
    is the 1x1 identity) can be filtered out."""
    decomp = _aperiodic(decompose(d))
    out = []
    for cls in decomp.classes:
        if cls.distinguished or cls.is_zero:
            continue
        atomic = cls.block == ((1,),)
        if atomic and not include_atomic:
            continue
        lam, y, base = tail_valuation(d, cls.index)
        out.append(TailMeasure(decomp, cls.index, lam, y, atomic, base))
    return out


def borel_invariant(d: StationaryDiagram) -> int:
    """Number of distinguished classes: the complete invariant for Borel
    isomorphism of the tail relation, and the count of ergodic
    probability measures."""
    return len(distinguished_classes(_aperiodic(decompose(d))))
