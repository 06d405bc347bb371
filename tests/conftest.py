"""Shared fixtures: the golden diagrams, a seeded random corpus, a time
limit, and references for the integer inverse, the window gcds and the
successor map."""

import contextlib
import functools
import math
import random
import signal
from fractions import Fraction

import pytest

from bratteli import (OrderedDiagram, PathWord, StationaryDiagram, Substitution, check_path,
                      linalg, min_path)
from bratteli.diagram import height_table


class Hung(Exception):
    """Raised by ``time_limit``; not an OSError, which ``main`` reports."""


@contextlib.contextmanager
def time_limit(seconds):
    """Turn a command that does not return into a failure."""
    def expire(signum, frame):
        raise Hung(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def from_composition_matrix(m, labels=None):
    """Diagram whose incidence is the transpose of a composition matrix."""
    return StationaryDiagram(tuple(zip(*m)), labels)


@pytest.fixture
def two_odometer():
    return OrderedDiagram(StationaryDiagram(((2,),)), ((0, 0),))


@pytest.fixture
def b1():
    # single loop pair: left odometer feeds the right column
    return StationaryDiagram(((2, 0), (1, 2)))


@pytest.fixture
def b1_ordered(b1):
    return OrderedDiagram(b1, ((0, 0), (0, 1, 1)))


@pytest.fixture
def b2():
    return StationaryDiagram(((2, 1, 0), (0, 2, 0), (0, 1, 2)))


@pytest.fixture
def double_morse():
    # two Morse-like minimal parts glued through a third growing letter
    m = ((1, 1, 0, 0, 1),
         (1, 1, 0, 0, 0),
         (0, 0, 1, 1, 1),
         (0, 0, 1, 1, 0),
         (0, 0, 0, 0, 3))
    return from_composition_matrix(m, labels=("a", "b", "c", "d", "1"))


@pytest.fixture
def double_morse_substitution():
    return Substitution(("a", "b", "c", "d", "1"),
                        {"a": "ab", "b": "ba", "c": "cd", "d": "dc",
                         "1": "a111c"})


@pytest.fixture
def mixed_chain():
    # one minimal part with three letters layered above it
    m = ((1, 1, 2, 1, 0),
         (1, 1, 0, 1, 0),
         (0, 0, 3, 0, 1),
         (0, 0, 0, 2, 1),
         (0, 0, 0, 0, 4))
    return from_composition_matrix(m, labels=("a", "b", "1", "2", "3"))


@pytest.fixture
def mixed_chain_substitution():
    return Substitution(("a", "b", "1", "2", "3"),
                        {"a": "ab", "b": "ba", "1": "a111a", "2": "a22b",
                         "3": "133332"})


@pytest.fixture
def wm_a():
    # weak-mixing candidate: 2-block over a 3-block
    base = StationaryDiagram(((2, 0), (2, 3)))
    return OrderedDiagram(base, ((0, 0), (0, 1, 1, 1, 0)))


@pytest.fixture
def eig_chain():
    # rational eigenvalues p/5^k survive the diamond test here
    base = StationaryDiagram(((5, 0, 0), (2, 3, 0), (0, 2, 25)))
    return OrderedDiagram(base, ((0,) * 5, (0, 0, 1, 1, 1), (1, 1) + (2,) * 25))


@pytest.fixture
def wm_b():
    # same shape as eig_chain but with coprime height growth
    base = StationaryDiagram(((5, 0, 0), (4, 3, 0), (0, 2, 25)))
    return OrderedDiagram(base, ((0,) * 5, (0, 0, 0, 0, 1, 1, 1),
                                 (1, 1) + (2,) * 25))


@pytest.fixture
def intro_sigma():
    return Substitution(("a", "b", "c"), {"a": "abb", "b": "ab", "c": "accb"})


@pytest.fixture
def intro_tau():
    return Substitution(("a", "b", "c"), {"a": "abb", "b": "ab", "c": "acccb"})


@pytest.fixture
def thue_morse():
    return Substitution(("a", "b"), {"a": "ab", "b": "ba"})


@pytest.fixture
def atomic_tail():
    # non-distinguished class with block [1]: its tail measure is atomic
    return StationaryDiagram(((2, 0), (1, 1)))


def random_diagram(rng, n_max=4, entry_max=3):
    """One random incidence matrix, sparse-ish, with no zero rows or
    columns (so heights grow and every vertex is reachable)."""
    n = rng.randint(1, n_max)
    while True:
        rows = [[rng.choice((0, 0, 1, 1, 2, entry_max)) for _ in range(n)]
                for _ in range(n)]
        if all(any(row) for row in rows) and all(any(col) for col in zip(*rows)):
            return StationaryDiagram(tuple(tuple(r) for r in rows))


def random_order(rng, d):
    """A random edge order for each vertex of d."""
    order = []
    for v in range(d.n_vertices):
        word = [w for w in range(d.n_vertices) for _ in range(d.incidence[v][w])]
        rng.shuffle(word)
        order.append(tuple(word))
    return OrderedDiagram(d, tuple(order))


def aperiodic_corpus(seed=20260814, count=20, n_max=4, entry_max=3):
    """Deterministic list of aperiodic primitive-block random diagrams."""
    from bratteli import aperiodicity_check, decompose
    from bratteli.errors import PrimitivityError

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = random_diagram(rng, n_max, entry_max)
        try:
            verdict = aperiodicity_check(decompose(d))
        except PrimitivityError:
            continue
        if verdict:
            out.append(d)
    return out


@functools.cache
def dominance_family():
    """The seeded family of the dominance-rule tests: 6,000 draws of
    ``random_diagram(rng, n_max=6, entry_max=rng.choice((1, 2, 3, 9)))``
    from random.Random(33).  ``decompose`` refuses 2 of them (tied Perron
    values); the other 5,998 hold 7,076 classes with a non-zero block."""
    rng = random.Random(33)
    return tuple(random_diagram(rng, n_max=6, entry_max=rng.choice((1, 2, 3, 9)))
                 for _ in range(6000))


def horner(coeffs, x):
    """sum coeffs[i] * x^(deg - i), the polynomial that ``linalg.char_poly``
    returns, evaluated at x."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def scaled_inverse_by_solves(a):
    """(M, L) with M = L a^-1 and L > 0 the least such integer, from N
    Fraction solves against the unit vectors, as cone membership built it
    before ``linalg.scaled_inverse``; None when a is singular."""
    n = len(a)
    fa = [[Fraction(x) for x in row] for row in a]
    try:
        cols = [linalg.solve_square(fa, [int(i == j) for i in range(n)]) for j in range(n)]
    except ZeroDivisionError:
        return None
    scale = math.lcm(*(x.denominator for col in cols for x in col))
    return [[int(col[i] * scale) for col in cols] for i in range(n)], scale


def window_gcds_by_middles(od, alpha, window):
    """Per-level gcds of every listed diamond's P_n in the window, with the
    length-2 terms taken over the middles of each (source, range) pair, as
    ``vershik._window_gcds`` built them before every class vertex was a
    middle; valid for any class block, positive or not."""
    f = od.base.incidence
    scope = od._decomposition.classes[alpha].vertices
    inside = set(scope)
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

    middles = []
    for j in scope:
        for jp in scope:
            mids = [i for i in scope if f[i][j] and f[jp][i]]
            if len(mids) >= 2:
                middles.append((j, jp, mids))
    data = {n: prefix_data(n) for n in range(n1, n2 + 2)}
    out = []
    for n in range(n1, n2 + 1):
        (c, d), (c1, d1) = data[n], data[n + 1]
        g = math.gcd(*d.values())
        for j, jp, mids in middles:
            base = c[mids[0], j] + c1[jp, mids[0]]
            for i in mids:
                g = math.gcd(g, d1[jp, i], c[i, j] + c1[jp, i] - base)
        out.append(g)
    return out


def successor_by_rebuild(od, p):
    """The successor of p, or None at the maximal path: the lowest edge
    that is not bundle-maximal moves to the next edge of its bundle, with
    the minimal path to its source below it, built as a new path, as
    ``vershik.successor`` did before it stepped in place."""
    check_path(od.base, p)
    for t in range(2, p.level + 1):
        target = p.vertices[t - 1]
        pos = od.bundle_rank(target, p.vertices[t - 2], p.indices[t - 2])
        if pos == len(od.order[target]) - 1:
            continue
        source, mult = od.edge_at(target, pos + 1)
        below = min_path(od, source, t - 1)
        return PathWord(below.vertices + p.vertices[t - 1:],
                        below.indices + (mult,) + p.indices[t - 1:])
    return None


def tower_by_successor(od, v, n):
    """The paths to (v, n) in rank order: ``min_path``, then
    ``successor_by_rebuild`` until None, as ``verify`` walked a tower."""
    p = min_path(od, v, n)
    while p is not None:
        yield p
        p = successor_by_rebuild(od, p)


def random_path(rng, od, v, n):
    """A path to (v, n) with each edge drawn uniformly from its bundle."""
    vertices, mults = [v], []
    for _ in range(n - 1):
        source, mult = od.edge_at(vertices[-1], rng.randrange(len(od.order[vertices[-1]])))
        vertices.append(source)
        mults.append(mult)
    return PathWord(tuple(reversed(vertices)), tuple(reversed(mults)))


def seeded_orders(count=200, seed=7):
    """``random_order(rng, random_diagram(rng))`` count times from
    random.Random(seed)."""
    rng = random.Random(seed)
    return [random_order(rng, random_diagram(rng)) for _ in range(count)]


def dense_ordered(n, seed=0):
    """A dense n x n ordered diagram: entries 1..9 drawn row by row from
    random.Random(seed), then random_order on the same generator."""
    rng = random.Random(seed)
    d = StationaryDiagram(tuple(tuple(rng.randint(1, 9) for _ in range(n)) for _ in range(n)))
    return random_order(rng, d)
