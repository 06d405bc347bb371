"""Brute-force cross-checks for the formula-driven modules.

Everything here recomputes a quantity from first principles (path
enumeration, successor iteration, exact linear programming) so the
closed-form implementations have an independent witness at small sizes.
``verify_invariance`` is the exception: it checks a measure against
itself on its own diagram, so its check (a) fails only on a NaN mass.
Oracles prefer exactness over speed; floats appear only in the orbit
simulation and when a measure itself carries approximate data.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .diagram import PathWord, check_path, height_levels, heights, vertex_sequences
from .errors import CapExceeded, EndpointMismatch, SizeRefused
from .measures import within_float_range
from .record import record
from .spectral import DEFAULT_GAP
from .vershik import OrderedDiagram, _step

STEP_CAP = 10 ** 6  # paths per (level, vertex) in verify, tower and orbit steps in the walks


def _close(a, b):
    if a == b:  # every exact comparison, and most float ones
        return True
    if isinstance(a, float) and math.isinf(a) or isinstance(b, float) and math.isinf(b):
        return False
    if not isinstance(a, float) and not isinstance(b, float):
        return False
    return abs(a - b) <= DEFAULT_GAP * (1 + max(abs(a), abs(b)))


@record
class InvarianceReport:
    """Outcome of the three stationarity checks for one measure."""

    n_max: int
    checks_run: int
    violations: tuple[str, ...]
    skipped: tuple[str, ...]

    @property
    def ok(self):
        return not self.violations


def verify_invariance(m, n_max: int) -> InvarianceReport:
    """Check that m is tail invariant on its own diagram, ``m.diagram``,
    up to level n_max.

    (a) every path to the same level-n vertex gets the same mass, and a
        cylinder's mass equals the sum over its one-edge extensions;
    (b) the vertex mass vectors satisfy A p(n+1) = p(n); (c) total mass
    at each level is 1.  Infinite measures skip (c) and compare
    infinities positionally in (b).  A float total beyond float range is
    refused by ``within_float_range``; float sums run left to right.

    m is a measure: ``m.value(level, vertex)`` is the mass of every
    cylinder that ends at that vertex of that level, and the same on
    every call.  So it is read once per (level, vertex) of levels 1 to
    n_max + 1, and (a) compares the mass read with itself: it fails only
    on a mass that is not equal to itself (NaN).  Each (level, vertex)
    whose height is at most ``STEP_CAP`` counts one check per path, h(n)[v]
    of them; the others are skipped, and so reported.  The cost does not
    grow with the number of paths: the ``vertex_sequences`` of a (level,
    vertex) are walked only to give each path of a failed comparison its
    own violation (a sequence carries the product of its bundle sizes).
    """
    d = m.diagram
    f = d.incidence
    n = d.n_vertices
    violations = []
    skipped = []
    checks = 0
    p_now = [m.value(1, v) for v in range(n)]
    is_finite = not any(isinstance(p, float) and math.isinf(p) for p in p_now)

    for lvl, h in zip(range(1, n_max + 1), height_levels(d)):
        p_next = [m.value(lvl + 1, v) for v in range(n)]
        # each one-edge extension sum, (A p(n+1))[v] with A = F^T term for term
        ext = [linalg.left_sum(f[w][v] * p_next[w] for w in range(n) if f[w][v])
               for v in range(n)]

        # (a) constancy over paths and one-edge additivity
        for v in range(n):
            if h[v] > STEP_CAP:
                skipped.append(f"path enumeration at level {lvl} vertex {v} "
                               f"exceeds cap {STEP_CAP}")
                continue
            checks += h[v] + 1  # one per path, one for the extensions
            if not _close(p_now[v], p_now[v]):
                for vs in vertex_sequences(d, v, lvl):
                    count = math.prod(f[t][s] for s, t in zip(vs, vs[1:]))
                    violations += [f"(a) path {vs} mass {p_now[v]} != vertex mass "
                                   f"{p_now[v]} at level {lvl}"] * count
            if not _close(ext[v], p_now[v]):
                violations.append(
                    f"(a) extensions of vertex {v} level {lvl} sum to "
                    f"{ext[v]}, cylinder mass is {p_now[v]}")

        # (b) stationarity of the mass vectors
        for v in range(n):
            checks += 1
            if not _close(ext[v], p_now[v]):
                violations.append(
                    f"(b) (A p({lvl + 1}))[{v}] = {ext[v]} != p({lvl})[{v}] "
                    f"= {p_now[v]}")

        # (c) unit total mass, finite measures only
        if is_finite:
            checks += 1
            total = within_float_range(lvl, None,
                                       lambda: linalg.left_sum(hv * p for hv, p in zip(h, p_now)))
            if not _close(total, 1):
                violations.append(f"(c) total mass at level {lvl} is {total}")
        elif lvl == 1:
            skipped.append("(c) total mass skipped for an infinite measure")
        p_now = p_next

    return InvarianceReport(n_max, checks, tuple(violations), tuple(skipped))


def brute_force_Q(od: OrderedDiagram, e: PathWord, e2: PathWord) -> int:
    """Rank difference e2 - e found by walking the successor map.

    Independent of path_rank: counts actual successor steps between the
    two paths, in whichever direction terminates.  A tower of more than
    ``STEP_CAP`` paths raises CapExceeded before any step.
    """
    if e.level != e2.level or e.terminal != e2.terminal:
        raise EndpointMismatch(
            f"paths end at level {e.level} vertex {e.terminal} vs "
            f"level {e2.level} vertex {e2.terminal}")
    check_path(od.base, e)
    check_path(od.base, e2)
    tower = heights(od.base, e.level)[e.terminal]
    if tower > STEP_CAP:
        raise CapExceeded(f"tower of {tower} paths exceeds step cap",
                          required=tower, cap=STEP_CAP)
    if e == e2:
        return 0
    for a, b, sign in ((e, e2, 1), (e2, e, -1)):
        vertices, mults = list(a.vertices), list(a.indices)
        goal = (list(b.vertices), list(b.indices))
        steps = 0
        while steps < tower and _step(od, vertices, mults):
            steps += 1
            if (vertices, mults) == goal:
                return sign * steps
    raise ArithmeticError("paths share a tower but neither reaches the other")


@record
class CoreOracleResult:
    feasible: bool
    k: int
    preimage: tuple | None
    certificate: tuple | None


def core_preimage_oracle(a_matrix, x, k: int) -> CoreOracleResult:
    """Exact feasibility of A^k y = x, y >= 0, by the exact simplex
    ``linalg.lp_nonneg_solve``; x takes ``int`` or ``Fraction`` entries.

    Small sizes only: refuses N > 12 or k > 2N rather than running an
    open-ended search.
    """
    n = len(a_matrix)
    if n > 12:
        raise SizeRefused(f"oracle limited to 12 vertices, got {n}")
    if not 1 <= k <= 2 * n:
        raise SizeRefused(f"power {k} outside 1..{2 * n}")
    if len(x) != n:
        raise ValueError(f"vector has {len(x)} entries, expected {n}")
    ak = linalg.mat_pow([list(r) for r in a_matrix], k)
    y, cert = linalg.lp_nonneg_solve(ak, x)
    if y is not None:
        return CoreOracleResult(True, k, tuple(y), None)
    return CoreOracleResult(False, k, None, tuple(cert))


@record
class OrbitFrequency:
    visits: int
    steps: int
    exhausted: bool
    working_level: int

    @property
    def frequency(self) -> Fraction:
        return Fraction(self.visits, self.steps)


def empirical_orbit_frequency(od: OrderedDiagram, start: PathWord, steps: int,
                              target: PathWord) -> OrbitFrequency:
    """Visit frequency of the successor orbit of start in the cylinder of
    the target path.

    Works at a level at least four above the target so the orbit is long
    enough to average; the start path is extended minimally upward and
    counts as the first iterate.  Hitting the maximal path ends the walk
    early with a partial count.
    """
    check_path(od.base, start)
    if steps < 1:
        raise ValueError("need at least one step")
    if steps > STEP_CAP:
        raise CapExceeded(f"{steps} steps above the orbit cap",
                          required=steps, cap=STEP_CAP)
    working = max(start.level, target.level + 4)

    vertices, mults = list(start.vertices), list(start.indices)
    while len(vertices) < working:
        w = vertices[-1]
        vertices.append(next(u for u in range(od.base.n_vertices) if od.base.incidence[u][w]))
        mults.append(0)

    k, prefix = target.level, (list(target.vertices), list(target.indices))
    visits = taken = 0
    exhausted = False
    for _ in range(steps):
        taken += 1
        if (vertices[:k], mults[:k - 1]) == prefix:
            visits += 1
        if not _step(od, vertices, mults):
            exhausted = taken < steps
            break
    return OrbitFrequency(visits, taken, exhausted, working)
