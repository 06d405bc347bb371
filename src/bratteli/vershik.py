"""Successor dynamics of an ordered stationary diagram.

An order assigns each vertex a word listing the sources of its incoming
edge bundle from smallest to largest.  That single piece of data yields
the minimal and maximal paths, the successor map on finite paths, and
the rank of a path inside its cylinder class.  Towers are walked in place,
at amortized O(1) levels per step when every bundle has two or more
edges.  Return times between the two legs of a diamond (a pair of
distinct equal-endpoint paths) form integer sequences P_n obeying the
characteristic-polynomial recurrence of A; exact divisibility of those
sequences decides which rational rotation numbers can be eigenvalues,
and the limit overlap along a diamond's return times refutes mixing.

For theta = p/q in lowest terms, q | p*P_n holds exactly when q | P_n, so
the divisibility test over a window is the single condition q | G, where
G is the gcd of every P_n in the window.  Each level's G takes one pass
over the bundles plus 3N^2 gcd terms, N the class size, without listing
the diamonds; this needs strictly positive class blocks (telescope
first).  A failure's witness is read from O(N^2) spanning diamonds.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property

from . import linalg
from .diagram import (TELESCOPE_CAP, PathWord, StationaryDiagram, check_path, height_table,
                      telescope)
from .errors import (CapExceeded, EndpointMismatch, NotDistinguishedError, NotInDomainError,
                     PrimitivityError)
from .measures import _aperiodic
from .record import record
from .spectral import _class, decompose, distinguished_eigenvector, positivity_power

WINDOW_CAP = 10 ** 4     # top level of a window (heights are kept per level)
DIAMOND_CAP = 10 ** 6    # diamonds enumerate_diamonds lists


@record
class OrderedDiagram:
    base: StationaryDiagram
    order: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(tuple(w) for w in self.order))
        f = self.base.incidence
        n = self.base.n_vertices
        if len(self.order) != n:
            raise ValueError("need one order word per vertex")
        for v, word in enumerate(self.order):
            counts = [0] * n
            for s in word:
                if not 0 <= s < n:
                    raise ValueError(f"order word of vertex {v} mentions vertex {s}")
                counts[s] += 1
            if counts != list(f[v]):
                raise ValueError(
                    f"order word of vertex {v} does not match its incoming bundle")

    @property
    def n_vertices(self):
        return self.base.n_vertices

    @cached_property
    def _decomposition(self):
        """decompose(self.base), held here, outside ==, hash and repr, for as long as
        the ordered diagram lives (the base holds it only weakly)."""
        return decompose(self.base)

    @cached_property
    def _rank_tables(self):
        """Per vertex: letter -> bundle positions of its parallel edges,
        and position -> (letter, occurrence)."""
        by_letter, by_pos = [], []
        for word in self.order:
            pos_of = {}
            decode = []
            for pos, s in enumerate(word):
                pos_of.setdefault(s, []).append(pos)
                decode.append((s, len(pos_of[s]) - 1))
            by_letter.append({s: tuple(p) for s, p in pos_of.items()})
            by_pos.append(tuple(decode))
        return tuple(by_letter), tuple(by_pos)

    def bundle_rank(self, vertex, source, mult):
        """Bundle position of the mult-th parallel edge source -> vertex."""
        return self._rank_tables[0][vertex][source][mult]

    def edge_at(self, vertex, pos):
        """(source, mult) of the bundle position pos at vertex."""
        return self._rank_tables[1][vertex][pos]


def _ordered(od):
    """od itself; TypeError unless it is an OrderedDiagram (a plain diagram
    has no order to walk)."""
    if not isinstance(od, OrderedDiagram):
        raise TypeError(f"takes an OrderedDiagram, not a {type(od).__name__}")
    return od


def _extreme_edges(od: OrderedDiagram, v: int, n: int, last: bool):
    """(vertices, mults) of the path to (v, n) whose edges are all
    bundle-minimal, or all bundle-maximal when last."""
    vertices = [v]
    mults = []
    for _ in range(n - 1):
        word = od.order[vertices[-1]]
        pos = len(word) - 1 if last else 0
        source, mult = od.edge_at(vertices[-1], pos)
        vertices.append(source)
        mults.append(mult)
    vertices.reverse()
    mults.reverse()
    return tuple(vertices), tuple(mults)


def min_path(od: OrderedDiagram, v: int, n: int) -> PathWord:
    """The unique path to (v, n) all of whose edges are bundle-minimal."""
    return PathWord(*_extreme_edges(od, v, n, last=False))


def max_path(od: OrderedDiagram, v: int, n: int) -> PathWord:
    return PathWord(*_extreme_edges(od, v, n, last=True))


def is_maximal(od: OrderedDiagram, p: PathWord) -> bool:
    return all(od.bundle_rank(t, s, m) == len(od.order[t]) - 1
               for _, s, t, m in p.edges if s is not None)


def _step(od: OrderedDiagram, vertices: list, mults: list) -> bool:
    """Step the unchecked path in the two lists to its successor in place;
    False, the lists untouched, at the maximal path."""
    by_letter, by_pos = od._rank_tables
    for t, mult in enumerate(mults):
        target = vertices[t + 1]
        decode = by_pos[target]
        pos = by_letter[target][vertices[t]][mult] + 1
        if pos < len(decode):
            vertices[t], mults[t] = decode[pos]
            for s in range(t - 1, -1, -1):
                vertices[s], mults[s] = by_pos[vertices[s + 1]][0]
            return True
    return False


def successor(od: OrderedDiagram, p: PathWord) -> PathWord | None:
    """Next path in the rank order of E(v_0, terminal); None when p is the
    maximal path (the expected terminal case, not a fault)."""
    check_path(od.base, p)
    vertices, mults = list(p.vertices), list(p.indices)
    if not _step(od, vertices, mults):
        return None
    return PathWord(tuple(vertices), tuple(mults))


def path_rank(od: OrderedDiagram, p: PathWord) -> int:
    """Position of p in the successor enumeration of E(v_0, terminal):
    ``_leg_low`` of the whole path placed at level 1, each edge
    contributing the heights of everything below it in its bundle."""
    check_path(od.base, p)
    if p.level == 1:
        return 0
    return _leg_low(od, p, height_table(od.base, p.level - 1), 1)


def q_steps(od: OrderedDiagram, e: PathWord, e2: PathWord) -> int:
    """Signed number of successor steps from e to e2."""
    if e.level != e2.level or e.terminal != e2.terminal:
        raise EndpointMismatch("paths must share level and terminal vertex")
    return path_rank(od, e2) - path_rank(od, e)


@record
class Diamond:
    """Two distinct paths of one length k >= 1 from a vertex j to a vertex
    j', each a ``PathWord`` placed as a leg: with j at level n, its indices
    pick parallel edges between levels n and n + k.  The legs are put in
    canonical order, by (vertices, indices), so Diamond(b, a) == Diamond(a, b).
    That is also the order by vertices, then bundle ranks: legs with equal
    vertex sequences first differ at a step where both cross the same
    bundle, and there a later parallel edge has a later bundle rank."""

    leg_a: PathWord
    leg_b: PathWord

    def __post_init__(self):
        a, b = self.leg_a, self.leg_b
        if a.level != b.level:
            raise ValueError("legs must have equal length")
        if a.vertices[0] != b.vertices[0] or a.terminal != b.terminal:
            raise ValueError("legs must share both endpoints")
        key_a, key_b = (a.vertices, a.indices), (b.vertices, b.indices)
        if key_a == key_b:
            raise ValueError("legs must be distinct")
        if key_b < key_a:
            object.__setattr__(self, "leg_a", b)
            object.__setattr__(self, "leg_b", a)

    @property
    def length(self):
        return self.leg_a.level - 1

    @property
    def vertices_visited(self):
        return frozenset(self.leg_a.vertices) | frozenset(self.leg_b.vertices)


def _check_legs(od: OrderedDiagram, diamond: Diamond):
    """Raise as ``check_path`` does unless both legs are paths of od."""
    for leg in (diamond.leg_a, diamond.leg_b):
        check_path(od.base, leg)


def enumerate_diamonds(od: OrderedDiagram, alpha: int | None = None) -> list[Diamond]:
    """All diamonds of length 1 or 2, one per unordered leg pair.  With
    alpha set, every visited vertex must lie in that class of od.
    Length-2 pairs sharing their middle vertex are omitted: they split
    into two length-1 diamonds.  The output is counted from the incidence
    matrix first; more than ``DIAMOND_CAP`` diamonds raises CapExceeded."""
    f = _ordered(od).base.incidence
    if alpha is None:
        scope = set(range(od.n_vertices))
    else:
        scope = set(_class(od._decomposition, alpha).vertices)

    # length-2 pairs through (j, jp): sum over middles i < i' of w_i w_i'
    count = sum(f[v][s] * (f[v][s] - 1) // 2 for v in scope for s in scope)
    for j in scope:
        for jp in scope:
            w = [f[i][j] * f[jp][i] for i in scope]
            count += (sum(w) ** 2 - sum(x * x for x in w)) // 2
    if count > DIAMOND_CAP:
        raise CapExceeded(f"{count} diamonds exceed the cap of {DIAMOND_CAP}", count, DIAMOND_CAP)

    out = []
    for v in sorted(scope):
        for s in sorted(scope):
            for k1 in range(f[v][s]):
                for k2 in range(k1 + 1, f[v][s]):
                    out.append(Diamond(PathWord((s, v), (k1,)), PathWord((s, v), (k2,))))
    for j in sorted(scope):                     # source
        for jp in sorted(scope):                # range
            mids = [i for i in sorted(scope) if f[i][j] > 0 and f[jp][i] > 0]
            for ai in range(len(mids)):
                for bi in range(ai + 1, len(mids)):
                    i, ip = mids[ai], mids[bi]
                    for k1 in range(f[i][j]):
                        for k2 in range(f[jp][i]):
                            for k3 in range(f[ip][j]):
                                for k4 in range(f[jp][ip]):
                                    out.append(Diamond(PathWord((j, i, jp), (k1, k2)),
                                                       PathWord((j, ip, jp), (k3, k4))))
    return out


def _leg_low(od, leg: PathWord, h, n: int) -> int:
    """Rank of the minimal extension below a leg placed with its source
    at level n, counted within E(v_0, terminal) and relative to the part
    contributed by the leg itself."""
    total = 0
    for t, m in enumerate(leg.indices):
        target = leg.vertices[t + 1]
        pos = od.bundle_rank(target, leg.vertices[t], m)
        word = od.order[target]
        total += sum(h[n + t][word[q]] for q in range(pos))
    return total


def _p_row(od, diamond: Diamond, h, levels) -> tuple[int, ...]:
    """P_n for each n in levels, read from the height table h, which must
    reach level max(levels) + diamond.length - 1."""
    return tuple(_leg_low(od, diamond.leg_b, h, n) - _leg_low(od, diamond.leg_a, h, n)
                 for n in levels)


def p_value(od: OrderedDiagram, diamond: Diamond, n: int) -> int:
    """Return time P_n: successor steps from the tower of leg_a to the
    tower of leg_b when the diamond's source sits at level n.  A leg that
    is not a path of od raises as ``check_path`` does."""
    if n < 1:
        raise ValueError("levels are 1-based")
    _check_legs(od, diamond)
    return _p_row(od, diamond, height_table(od.base, n + diamond.length - 1), (n,))[0]


@record
class PSequence:
    diamond: Diamond
    values: tuple[int, ...]
    coefficients: tuple[int, ...]

    def value(self, n: int) -> int:
        if n < 1:
            raise ValueError("levels are 1-based")
        if n > len(self.values):
            raise IndexError(f"P_{n} is beyond the {len(self.values)} computed levels; "
                             f"extended({n - len(self.values)}) continues the sequence")
        return self.values[n - 1]

    def extended(self, extra: int) -> "PSequence":
        """Continue by the characteristic recurrence
        P_{n+N} = d_1 P_{n+N-1} + ... + d_N P_n."""
        vals = list(self.values)
        d = self.coefficients
        for _ in range(extra):
            vals.append(sum(di * vals[-i - 1] for i, di in enumerate(d)))
        return PSequence(self.diamond, tuple(vals), d)


def recurrence_coefficients(d: StationaryDiagram) -> tuple[int, ...]:
    """d_1..d_N with det(zI - A) = z^N - d_1 z^(N-1) - ... - d_N."""
    poly = linalg.char_poly([list(row) for row in d.incidence])
    return tuple(-c for c in poly[1:])


def p_sequence(od: OrderedDiagram, diamond: Diamond, n_max: int) -> PSequence:
    """P_1, ..., P_n_max of the diamond (n_max >= 1); its legs are
    checked as ``p_value`` checks them."""
    if n_max < 1:
        raise ValueError("levels are 1-based")
    _check_legs(od, diamond)
    h = height_table(od.base, n_max + diamond.length - 1)
    return PSequence(diamond, _p_row(od, diamond, h, range(1, n_max + 1)),
                     recurrence_coefficients(od.base))


def default_window(d: StationaryDiagram) -> tuple[int, int]:
    """The window [N, 3N] the eigenvalue tests use when given none, which
    ``is_decisive`` labels decisive.  The label is a heuristic: the order-N
    recurrence of the P sequences does not show that divisibility by q has
    set in by level N (every p/2^k is an eigenvalue of the dyadic odometer,
    and fails on its window [1, 3])."""
    n = d.n_vertices
    return (n, 3 * n)


def is_decisive(d: StationaryDiagram, window) -> bool:
    n = d.n_vertices
    return window[0] >= n and window[1] - window[0] + 1 >= 2 * n


@record
class EigenvalueVerdict:
    passed: bool
    theta: Fraction
    window: tuple[int, int]
    decisive: bool
    fail_n: int | None = None
    fail_diamond: Diamond | None = None
    fail_vertex: int | None = None

    def __bool__(self):
        return self.passed


def _p_tables(od, alpha, window):
    """The tests' reference: one (diamond, P row over the window) pair per
    listed diamond, in listing order.  No two listed diamonds share a row
    by construction: a step's (target, bundle rank) names its edge through
    edge_at, so the per-step ranks of both legs fix the diamond."""
    diamonds = enumerate_diamonds(od, alpha)
    n1, n2 = window
    h = height_table(od.base, n2 + 1)     # legs have length <= 2
    return [(dm, _p_row(od, dm, h, range(n1, n2 + 1))) for dm in diamonds]


def _window_gcds(od, alpha, window):
    """G_n for each level n of the window: the gcd of P_n over every
    diamond that enumerate_diamonds(od, alpha) lists, from
    bundle prefix sums of the heights without building a Diamond.

    For class vertices v and s, c_n(v, s) is the prefix height below the
    first s in order[v] and d_n(v, s) the gcd of the later prefixes minus
    c_n(v, s); length-1 diamonds give every d_n(v, s).  The block must be
    positive (_class_window checks), so every class vertex i is a
    middle of every leg j -> i -> j'.  These legs differ by the spreads
    d_n(i, j) and d_{n+1}(j', i) and by the A_ij + B_ij', where
    A_ij = c_n(i, j) - c_n(i0, j), B_ij' = c_{n+1}(j', i) - c_{n+1}(j', i0)
    and i0 is the first class vertex.  A_ii0 + B_ii0, A_ij - A_ii0 and
    B_ij' - B_ii0 span the same group: 3N^2 gcd terms per level.  A
    one-vertex class has no length-2 diamond, so only its d_n count."""
    scope = od._decomposition.classes[alpha].vertices
    inside, i0 = set(scope), scope[0]
    n1, n2 = window
    h = height_table(od.base, n2 + 1)

    def prefix_data(n):
        first, spread = {}, {}
        for v in scope:
            below = 0
            for s in od.order[v]:
                if s in inside:
                    if (v, s) in first:
                        spread[v, s] = math.gcd(spread[v, s], below - first[v, s])
                    else:
                        first[v, s], spread[v, s] = below, 0
                below += h[n][s]
        return first, spread

    levels = [prefix_data(n) for n in range(n1, n2 + 2)]
    out = []
    for (c, d), (c1, d1) in zip(levels, levels[1:]):
        g = math.gcd(*d.values(), *(d1.values() if len(scope) > 1 else ()))
        for i in scope[1:]:
            a0, b0 = c[i, i0] - c[i0, i0], c1[i0, i] - c1[i0, i0]
            g = math.gcd(g, a0 + b0, *(c[i, j] - c[i0, j] - a0 for j in scope),
                         *(c1[j, i] - c1[j, i0] - b0 for j in scope))
        out.append(g)
    return out


def _class_window(od, alpha, window):
    """Preamble of the three eigenvalue tests: (window, decisive) for the
    distinguished class alpha of the ordered diagram od (TypeError for any
    other object) with base d, the window default_window(d) when None,
    1 <= a <= b (ValueError), b <= WINDOW_CAP (CapExceeded).  Every non-zero
    block must be strictly positive (telescope first), then d aperiodic
    (NotAperiodicError), as the Vershik map needs."""
    decomp = _ordered(od)._decomposition
    d = decomp.diagram
    a, b = window = default_window(d) if window is None else window
    if not 1 <= a <= b:
        raise ValueError(f"a window needs 1 <= a <= b, got {a}..{b}")
    if b > WINDOW_CAP:
        raise CapExceeded(f"window level {b} is above the cap of {WINDOW_CAP}", b, WINDOW_CAP)
    if (q := positivity_power(d)) > 1:
        raise PrimitivityError(f"some diagonal block has zero entries; telescope by {q} first",
                               power=q)
    _aperiodic(decomp)
    if not _class(decomp, alpha).distinguished:
        raise NotDistinguishedError(f"class {alpha} is not distinguished")
    return window, is_decisive(d, window)


def _spanning_diamonds(od, alpha):
    """Lazily, listed diamonds of class alpha whose P_n have gcd G_n at every
    level, i0 the first class vertex: (i) edge 0 against edge k of each
    bundle; (ii) j -> i0 -> i0 against j -> i -> i0 and i0 -> i0 -> j against
    i0 -> i -> j on first edges; (iii) i0 -> m -> j' against i0 -> i -> j'
    with indices (0, 0) and (0, k), m = i0, or the second vertex if i = i0."""
    f, scope = od.base.incidence, od._decomposition.classes[alpha].vertices
    i0 = scope[0]
    for v, s in itertools.product(scope, scope):
        for k in range(1, f[v][s]):
            yield Diamond(PathWord((s, v), (0,)), PathWord((s, v), (k,)))
    for i, j in itertools.product(scope[1:], scope):
        yield Diamond(PathWord((j, i0, i0), (0, 0)), PathWord((j, i, i0), (0, 0)))
        yield Diamond(PathWord((i0, i0, j), (0, 0)), PathWord((i0, i, j), (0, 0)))
    for i, jp in itertools.product(scope if len(scope) > 1 else (), scope):
        m = scope[1] if i == i0 else i0
        for k in range(1, f[jp][i]):
            yield Diamond(PathWord((i0, m, jp), (0, 0)), PathWord((i0, i, jp), (0, k)))


def eigenvalue_check(od: OrderedDiagram, alpha: int, theta,
                     window: tuple[int, int] | None = None) -> EigenvalueVerdict:
    """Exact divisibility test: exp(2 pi i theta), theta = p/q reduced, can
    be an eigenvalue of the system of the distinguished class alpha iff q
    divides P_n for every diamond of length <= 2 inside the class, for all
    large n.  Requires strictly positive blocks (telescope first).  fail_n
    is the first window level where q does not divide G_n, and fail_diamond
    the first spanning diamond whose P_n there q does not divide."""
    window, decisive = _class_window(od, alpha, window)
    theta = Fraction(theta)
    q = theta.denominator
    for n, g in enumerate(_window_gcds(od, alpha, window), window[0]):
        if g % q:
            h = height_table(od.base, n + 1)     # legs have length <= 2
            dm = next(dm for dm in _spanning_diamonds(od, alpha)
                      if _p_row(od, dm, h, (n,))[0] % q)
            return EigenvalueVerdict(False, theta, window, decisive, fail_n=n, fail_diamond=dm)
    return EigenvalueVerdict(True, theta, window, decisive)


def candidate_thetas(q_max: int) -> list[Fraction]:
    """0 and every reduced p/q in (0,1) with q <= q_max, ascending."""
    out = {Fraction(0)}
    for q in range(2, q_max + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                out.add(Fraction(p, q))
    return sorted(out)


def candidate_count(q_max: int) -> int:
    """len(candidate_thetas(q_max)) = 1 + sum of phi(q) for 2 <= q <= q_max,
    from a totient sieve."""
    phi = list(range(max(q_max, 1) + 1))
    for p in range(2, q_max + 1):
        if phi[p] == p:
            for k in range(p, q_max + 1, p):
                phi[k] -= phi[k] // p
    return 1 + sum(phi[2:])


def eigenvalue_search(od: OrderedDiagram, alpha: int, q_max: int,
                      window: tuple[int, int] | None = None) -> list[Fraction]:
    """All rational rotation numbers with denominator <= q_max passing the
    divisibility test, ascending.  [0] alone is weak-mixing evidence at
    q_max.

    theta = p/q in lowest terms passes exactly when q divides G, the gcd
    of every P_n over the window, so the passes are 0 and the reduced p/q
    for each divisor 2 <= q <= q_max of G.
    """
    window, _ = _class_window(od, alpha, window)
    g = math.gcd(*_window_gcds(od, alpha, window))
    return sorted([Fraction(0)] + [Fraction(p, q) for q in range(2, q_max + 1)
                                   if g % q == 0
                                   for p in range(1, q) if math.gcd(p, q) == 1])


def rational_eigenvalue_sufficient(od: OrderedDiagram, alpha: int, theta,
                                   window: tuple[int, int] | None = None) -> EigenvalueVerdict:
    """Sufficient condition not needing the order: theta * h_j^(n) integer
    for every vertex j of the distinguished class alpha over the window.
    Reads only the ordered diagram's base and its decomposition."""
    window, decisive = _class_window(od, alpha, window)
    decomp = od._decomposition
    theta = Fraction(theta)
    verts = decomp.classes[alpha].vertices
    h = height_table(decomp.diagram, window[1])
    p, q = theta.numerator, theta.denominator
    for n in range(window[0], window[1] + 1):
        for j in verts:
            if (p * h[n][j]) % q != 0:
                return EigenvalueVerdict(False, theta, window, decisive,
                                         fail_n=n, fail_vertex=j)
    return EigenvalueVerdict(True, theta, window, decisive)


@record
class NonmixingReport:
    alpha: int
    diamond: Diamond
    limit: Fraction
    path: PathWord
    mass: Fraction


def nonmixing_witness(od: OrderedDiagram, alpha: int, diamond: Diamond) -> NonmixingReport:
    """Exact certificate that the ergodic measure mu of the distinguished
    class alpha is not mixing, from a diamond inside alpha.  With xi the
    extreme vector, lam its Perron value, w a left lam-eigenvector of the
    block A_aa and j, j', k the diamond's source, range and length: the
    paths of a cylinder [e] at (i, m) that run through leg_a from level
    n + 1 return to [e] after P_n steps, so mu([e] & T^-P_n [e]) >= r_n mu[e]
    for r_n = xi_j' A^N[i][j] / (lam^(N+k) xi_i), N = n + 1 - m.  Then
    A^N[i][j] / lam^N -> xi_i w_j / (w.xi) whenever xi_i > 0, and r_n ->
    limit = xi_j' w_j / (lam^k w.xi) for every cylinder.  For i in alpha
    this is Perron-Frobenius (A_aa is primitive).  Paths from the accessor
    classes U of alpha into alpha stay in U first, so A^N[U, a] is the sum
    over t < N of A_UU^t A_Ua A_aa^(N-1-t); rho(A_UU) < lam as alpha is
    distinguished, so over lam^N the terms are dominated by a geometric
    series and the sum tends to (lam - A_UU)^-1 A_Ua xi_a w / (w.xi) =
    xi_U w / (w.xi), xi_U being the solution ``spectral._extend`` finds.

    Mixing would make mu([e] & T^-P_n [e]) -> mu[e]^2, which limit > mu[e]
    forbids.  path is ``min_path(od, i, m)`` for the i of least xi_i > 0
    (the lower index on ties) and the least m whose mass mu[e] =
    xi_i / lam^(m-1) is below limit.  An exact lam is an integer >= 2 (the
    gate refuses an initial class of Perron value 1, and one below an
    initial class is not distinguished), so m <= 1 + log2(xi_i / limit).
    Refused: a diagram that is not aperiodic (NotAperiodicError; the gate
    makes A_aa primitive), a leg that is not a path of od (as
    ``check_path`` refuses it), an irrational lam (NotInDomainError) and
    a diamond outside alpha (ValueError)."""
    decomp = _aperiodic(_ordered(od)._decomposition)
    _check_legs(od, diamond)
    eig = distinguished_eigenvector(decomp, alpha)
    verts = decomp.classes[alpha].vertices
    if not diamond.vertices_visited <= set(verts):
        raise ValueError("diamond must live inside the carrying class")
    if not eig.is_exact:
        raise NotInDomainError(f"class {alpha} has an irrational Perron value, "
                               "so the certificate is not decided exactly")
    xi, lam, a = eig.xi, eig.lam.value.numerator, decomp.a_matrix
    (w,), _ = linalg.scaled_inverse([[lam * (u == v) - a[u][v] for v in verts] for u in verts])
    w = dict(zip(verts, w))
    j, jp, k = diamond.leg_a.vertices[0], diamond.leg_a.terminal, diamond.length
    limit = xi[jp] * w[j] / (lam ** k * sum(w[v] * xi[v] for v in verts))
    i = min((x, v) for v, x in enumerate(xi) if x)[1]
    m, mass = 1, xi[i]
    while mass >= limit:
        m, mass = m + 1, mass / lam
    return NonmixingReport(alpha, diamond, limit, min_path(od, i, m), mass)


def telescope_ordered(od: OrderedDiagram, k: int) -> OrderedDiagram:
    """Order induced on the k-fold telescope: the bundle of a composite
    edge sorts by its top edge first, then recursively by the path
    below it.  The words W_j of the j-fold telescope compose by repeated
    squaring, W_(a+b)(v) = the W_b(s) for s in W_a(v), in O(log k) steps;
    a step over TELESCOPE_CAP letters (only possible with an empty order
    word) raises CapExceeded before it is built."""
    if k < 1:
        raise ValueError("telescope power must be >= 1")
    base = telescope(od.base, k)    # caps the edges of F**k before any word grows

    def compose(a, b, power):
        lengths = [len(word) for word in b]
        size = sum(sum(map(lengths.__getitem__, word)) for word in a)
        if size > TELESCOPE_CAP:
            raise CapExceeded(f"telescoping by {k} needs {size} order letters at "
                              f"power {power}, above the cap of {TELESCOPE_CAP}",
                              size, TELESCOPE_CAP)
        return tuple(tuple(itertools.chain.from_iterable(map(b.__getitem__, word)))
                     for word in a)

    words, done, step, size = None, 0, od.order, 1    # W_done and W_size
    while True:
        if k & size:
            done += size
            words = step if words is None else compose(words, step, done)
        if done == k:
            return OrderedDiagram(base, words)
        size *= 2
        step = compose(step, step, size)
