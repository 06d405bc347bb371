"""Shared fixtures: the golden diagrams, a seeded random corpus, a time
limit and a reference for the integer inverse."""

import contextlib
import math
import random
import signal
from fractions import Fraction

import pytest

from bratteli import OrderedDiagram, StationaryDiagram, Substitution, linalg


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
