"""Substitutions on a finite alphabet and their stationary diagrams.

A substitution's matrix counts letter occurrences in the rule words; its
transpose is the incidence matrix of an ordered stationary diagram whose
order word at each vertex is the rule word itself.  That identification
carries the whole measure theory over: ergodic measures of the
substitution system are enumerated on the diagram side, with the
substitution matrix in the role of the vertex-transition matrix.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .diagram import StationaryDiagram
from .errors import CapExceeded, NotGrowingError
from .measures import ErgodicMeasure, TailMeasure, enumerate_ergodic, enumerate_infinite
from .record import record
from .spectral import ComponentDecomposition, _primitive_power, _structure, decompose
from .vershik import OrderedDiagram, telescope_ordered

EXPAND_CAP = 10 ** 7
_PRINTABLE = 10 ** 4300  # str() of an int is limited to 4300 digits


@record
class Substitution:
    alphabet: tuple[str, ...]
    rules: dict[str, str]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "rules", dict(self.rules))  # the caller's dict stays theirs
        letters = set(self.alphabet)
        if not self.alphabet:
            raise ValueError("alphabet must be non-empty")
        if len(letters) != len(self.alphabet):
            raise ValueError("alphabet letters must be distinct")
        for a in self.alphabet:
            # a rule line for '#' reads as a comment, one for ':' has no letter
            if len(a) != 1 or a.isspace() or a in "#:":
                raise ValueError("letters must be single non-blank characters other "
                                 f"than '#' and ':': {a!r}")
        if set(self.rules) != letters:
            raise ValueError("rules must cover exactly the alphabet")
        for a, word in self.rules.items():
            if not word:
                raise ValueError(f"rule for {a!r} is empty")
            if not set(word) <= letters:
                raise ValueError(f"rule for {a!r} uses letters outside the alphabet")

    @property
    def size(self):
        return len(self.alphabet)

    def index(self, letter: str) -> int:
        return self.alphabet.index(letter)

    def apply(self, word: str) -> str:
        return "".join(self.rules[a] for a in word)


def substitution_matrix(s: Substitution):
    """m[a][b] = number of occurrences of letter a in the rule word of b."""
    idx = {a: i for i, a in enumerate(s.alphabet)}
    n = s.size
    m = [[0] * n for _ in range(n)]
    for b in s.alphabet:
        col = idx[b]
        for a in s.rules[b]:
            m[idx[a]][col] += 1
    return tuple(tuple(row) for row in m)


def diagram_from_substitution(s: Substitution) -> OrderedDiagram:
    """Ordered diagram with incidence = matrix transpose and the rule
    words as order words; vertex labels are the letters."""
    m = substitution_matrix(s)
    idx = {a: i for i, a in enumerate(s.alphabet)}
    f = tuple(tuple(m[b][v] for b in range(s.size)) for v in range(s.size))
    base = StationaryDiagram(f, s.alphabet)
    order = tuple(tuple(idx[a] for a in s.rules[v]) for v in s.alphabet)
    return OrderedDiagram(base, order)


def substitution_from_diagram(od: OrderedDiagram) -> Substitution:
    """The substitution read on the diagram: rule of each vertex label is
    its order word."""
    labels = od.base.effective_labels
    for lbl in labels:
        if len(lbl) != 1:
            raise ValueError("reading a substitution needs single-character labels")
    rules = {labels[v]: "".join(labels[s] for s in od.order[v])
             for v in range(od.n_vertices)}
    return Substitution(labels, rules)


@record
class GrowthReport:
    verdicts: dict[str, str]

    @property
    def growing(self):
        return all(v == "Growing" for v in self.verdicts.values())

    def bounded_letters(self):
        return tuple(a for a, v in self.verdicts.items() if v == "Bounded")


def growth_check(s: Substitution) -> GrowthReport:
    """Does the n-th image of each letter grow without bound?  Exact test
    on the class structure: the image lengths of letter a are unbounded
    iff some class with access to a's class has Perron value above 1, or
    two distinct chained unit-Perron classes sit above it.

    No Perron value is computed.  A non-zero irreducible integer block has
    every row sum at least 1, so its Perron value rho is 1 exactly when
    every row sums to 1, and above 1 otherwise: equal row sums s give
    rho = s, and by Perron-Frobenius unequal ones put rho strictly between
    the least and the greatest.  A zero block has rho = 0."""
    return _growth_report(s, diagram_from_substitution(s).base)


def _growth_report(s: Substitution, d: StationaryDiagram) -> GrowthReport:
    """``growth_check`` on d, the diagram of s, read off its class
    structure: the greatest row sum of each block is 0, 1 or above 1
    exactly when its Perron value is."""
    _, _, class_of, access, blocks, _ = _structure(d)
    top = [max(map(sum, block)) for block in blocks]
    verdicts = {}
    for v, letter in enumerate(s.alphabet):
        above = [b for b in range(len(blocks)) if access[b][class_of[v]]]
        growing = any(top[b] > 1 for b in above) or any(
            b != c and top[b] == top[c] == 1 and access[b][c] for b in above for c in above)
        verdicts[letter] = "Growing" if growing else "Bounded"
    return GrowthReport(verdicts)


def _letter_counts(s: Substitution, a: str, n: int, cap: int) -> list[int]:
    """Letter counts of sigma^n(a); CapExceeded when they add up to more
    than cap, decided on the power clipped at cap + 1, with the count from
    a power clipped at 10^4300: exact wherever Python prints it in full."""
    m, col = substitution_matrix(s), s.index(a)
    counts = [row[col] for row in linalg.mat_pow(m, n, max(cap, 0) + 1)]
    if sum(counts) > cap:
        total = sum(row[col] for row in linalg.mat_pow(m, n, _PRINTABLE))
        shown = total if total < _PRINTABLE else "at least 10^4300"
        raise CapExceeded(f"expansion has {shown} letters", required=total, cap=cap)
    return counts


def expand(s: Substitution, a: str, n: int, cap: int = EXPAND_CAP) -> str:
    """The word sigma^n(a), its length checked against the cap first.  Each
    (letter, k) word is built once: sigma^k(c) is sigma^(k - k//2) of each
    letter of sigma^(k//2)(c), and no word is longer than the result."""
    _letter_counts(s, a, n, cap)
    words, todo = {}, [(a, n)]
    while todo:
        c, k = todo[-1]
        h = k // 2
        if (c, k) in words:
            todo.pop()
        elif k <= 1:
            words[c, k] = s.rules[c] if k else c
        elif (c, h) not in words:
            todo.append((c, h))
        elif missing := [(b, k - h) for b in set(words[c, h]) if (b, k - h) not in words]:
            todo.extend(missing)
        else:
            words[c, k] = "".join(words[b, k - h] for b in words[c, h])
    return words[a, n]


def letter_frequencies(s: Substitution, a: str, n: int,
                       cap: int = EXPAND_CAP) -> tuple[Fraction, ...]:
    """Exact letter-count ratios of sigma^n(a), computed from matrix
    powers rather than the expanded word."""
    counts = _letter_counts(s, a, n, cap)
    total = sum(counts)
    return tuple(Fraction(c, total) for c in counts)


@record
class SubstitutionMeasures:
    substitution: Substitution
    ordered: OrderedDiagram
    telescope_power: int
    decomp: ComponentDecomposition
    ergodic: tuple[ErgodicMeasure, ...]
    infinite: tuple[TailMeasure, ...]
    unique_ergodic: bool


def substitution_measures(s: Substitution) -> SubstitutionMeasures:
    """Full measure enumeration for the substitution system.  Requires
    every letter Growing, read off the class structure; telescopes
    automatically (reporting the power) when a diagonal block is
    imprimitive, then decomposes once; sigma-finite listing excludes the
    atomic single-loop classes."""
    od = diagram_from_substitution(s)
    growth = _growth_report(s, od.base)
    if not growth.growing:
        bad = growth.bounded_letters()[0]
        raise NotGrowingError(f"letter {bad!r} has bounded images", letter=bad)
    q = _primitive_power(od.base)
    if q > 1:
        od = telescope_ordered(od, q)
    decomp = decompose(od.base)
    ergodic = tuple(enumerate_ergodic(od.base))
    infinite = tuple(enumerate_infinite(od.base, include_atomic=False))
    return SubstitutionMeasures(s, od, q, decomp, ergodic, infinite,
                                unique_ergodic=len(ergodic) == 1)
