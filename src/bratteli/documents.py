"""Structured-text documents: diagrams, substitutions, measure reports.

All formats are line oriented key-value text.  Full-line comments start
with '#'; they are accepted on input and never emitted.  Serialization
is canonical: fixed field order, single spaces, no trailing whitespace,
so identical values always produce identical bytes.

Diagram document:                Substitution document:
    n: 2                             alphabet: a b
    incidence:                       rules:
    2 0                              a: ab
    1 2                              b: ba
    labels: a b
    order:
    a: ab
    b: ab

Order words (and rule words) are written compactly when every label is
a single character, space-separated otherwise.

The four parsers read through one line cursor, ``_Reader``.  Every parse
error is a ParseError that names a line: the offending one or, when a
line or field is missing, the last content line of the document.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .diagram import StationaryDiagram
from .errors import ParseError
from .record import record
from .spectral import render_scalar
from .substitution import Substitution
from .vershik import OrderedDiagram


class _Reader:
    """Cursor over the content lines of a document: comments and blank
    lines are dropped, and ``line`` is the number of the line last read
    (1 before the first), so an error about a missing line names the last
    content line of the document."""

    def __init__(self, text):
        self._lines = [(i, s) for i, raw in enumerate(text.splitlines(), start=1)
                       if (s := raw.strip()) and not s.startswith("#")]
        self._pos = 0
        self.line = 1

    def peek(self) -> str:
        """The next content line without reading it; '' at the end."""
        return self._lines[self._pos][1] if self._pos < len(self._lines) else ""

    def next(self, missing: str) -> str:
        """The next content line; ParseError(missing) at the end."""
        if self._pos >= len(self._lines):
            raise ParseError(missing, self.line)
        self.line, content = self._lines[self._pos]
        self._pos += 1
        return content

    def field(self, prefix: str, message: str | None = None) -> str:
        """The rest of the next line, which must start with prefix;
        ``message`` replaces both default errors."""
        content = self.next(message or f"missing {prefix!r} field")
        if not content.startswith(prefix):
            raise ParseError(message or f"expected {prefix!r}, found {content!r}", self.line)
        return content[len(prefix):].strip()

    def keyed(self, section: str, noun: str, count: int | None = None):
        """(key, rest) of the next count lines (every remaining line when
        count is None), each written 'key: rest', the key stripped."""
        for i in range(len(self._lines) - self._pos if count is None else count):
            content = self.next(f"{section} needs {count} lines, found {i}")
            key, sep, rest = content.partition(":")
            if not sep:
                raise ParseError(f"{section} line must be '{noun}: word', "
                                 f"found {content!r}", self.line)
            yield key.strip(), rest

    def end(self):
        """Refuse any content left after the document."""
        if self.peek():
            raise ParseError(f"unexpected content {self.peek()!r}", self._lines[self._pos][0])


def _split_word(word: str, line: int, lookup: dict, compact: bool) -> tuple[int, ...]:
    """Vertex ids of a word: one per character when written compactly."""
    tokens = list(word) if compact and not any(c.isspace() for c in word) else word.split()
    try:
        return tuple(lookup[t] for t in tokens)
    except KeyError as e:
        raise ParseError(f"unknown vertex {e.args[0]!r} in order word", line) from None


def parse_diagram(text: str):
    """StationaryDiagram, or OrderedDiagram when the document has an
    order section."""
    r = _Reader(text)
    rest, first = r.field("n:"), r.line
    try:
        n = int(rest)
    except ValueError:
        raise ParseError(f"vertex count must be an integer, found {rest!r}", r.line)
    if n < 1:
        raise ParseError("vertex count must be positive", r.line)

    r.field("incidence:")
    rows = []
    for _ in range(n):
        content = r.next(f"incidence needs {n} rows, found {len(rows)}")
        try:
            row = tuple(int(x) for x in content.split())
        except ValueError:
            raise ParseError(f"incidence row must be integers, found {content!r}", r.line)
        if len(row) != n:
            raise ParseError(f"incidence row has {len(row)} entries, expected {n}", r.line)
        if any(x < 0 for x in row):
            raise ParseError("incidence entries must be non-negative", r.line)
        rows.append(row)

    labels = None
    if r.peek().startswith("labels:"):
        labels = tuple(r.field("labels:").split())
        if len(labels) != n:
            raise ParseError(f"labels list has {len(labels)} entries, expected {n}", r.line)

    try:
        diagram = StationaryDiagram(tuple(rows), labels)
    except ValueError as e:
        raise ParseError(str(e), first) from None

    if r.peek() != "order:":
        r.end()
        return diagram
    r.field("order:")

    # 1-based numbers are aliases; an explicit label of the same name wins
    lookup = {str(v + 1): v for v in range(n)}
    lookup.update({lbl: v for v, lbl in enumerate(diagram.effective_labels)})
    compact = all(len(lbl) == 1 for lbl in diagram.effective_labels)
    words: dict[int, tuple[int, ...]] = {}
    for key, word in r.keyed("order", "vertex", n):
        if key not in lookup:
            raise ParseError(f"unknown vertex {key!r} in order section", r.line)
        v = lookup[key]
        if v in words:
            raise ParseError(f"vertex {key!r} ordered twice", r.line)
        words[v] = _split_word(word.strip(), r.line, lookup, compact)
    r.end()
    try:
        return OrderedDiagram(diagram, tuple(words[v] for v in range(n)))
    except ValueError as e:
        raise ParseError(str(e), r.line) from None


def _render_word(vertex_ids, labels) -> str:
    tokens = [labels[v] for v in vertex_ids]
    if all(len(t) == 1 for t in labels):
        return "".join(tokens)
    return " ".join(tokens)


def serialize_diagram(d) -> str:
    """Canonical text form; accepts plain or ordered diagrams."""
    ordered = d if isinstance(d, OrderedDiagram) else None
    base = ordered.base if ordered else d
    out = [f"n: {base.n_vertices}", "incidence:"]
    out.extend(" ".join(str(x) for x in row) for row in base.incidence)
    if base.labels is not None:
        out.append("labels: " + " ".join(base.labels))
    if ordered is not None:
        labels = base.effective_labels
        out.append("order:")
        out.extend(f"{labels[v]}: {_render_word(word, labels)}"
                   for v, word in enumerate(ordered.order))
    return "\n".join(out) + "\n"


def parse_substitution(text: str) -> Substitution:
    r = _Reader(text)
    alphabet = tuple(r.field("alphabet:", "substitution document must start with "
                                          "'alphabet:'").split())
    for a in alphabet:
        if len(a) != 1:
            raise ParseError(f"letters must be single characters, found {a!r}", r.line)
    first, message = r.line, "expected 'rules:' after the alphabet"
    if r.next(message) != "rules:":
        raise ParseError(message, r.line)
    rules = {}
    for key, word in r.keyed("rule", "letter"):
        if key in rules:
            raise ParseError(f"duplicate rule for {key!r}", r.line)
        rules[key] = "".join(word.split())
    try:
        return Substitution(alphabet, rules)
    except ValueError as e:
        raise ParseError(str(e), first) from None


def serialize_substitution(s: Substitution) -> str:
    out = ["alphabet: " + " ".join(s.alphabet), "rules:"]
    out.extend(f"{a}: {s.rules[a]}" for a in s.alphabet)
    return "\n".join(out) + "\n"


def _integer(digits: str) -> int:
    """int(digits) at any length, the inverse of ``spectral._decimal``: a long
    string of digits is split at 10^k and each part converted on its own."""
    if len(digits) <= 640:
        return int(digits)
    k = len(digits) // 2
    return _integer(digits[:-k]) * 10 ** k + _integer(digits[-k:])


_RATIONAL = re.compile(r"([+-]?)(\d+)(?:/(\d+))?")
# the digit limit Fraction enforces on a significand; a larger exponent
# would have it compute a power of ten of that many digits
_MAX_EXPONENT = 4300


def _float(token: str) -> float:
    """float(token), refusing a decimal whose significand has a non-zero
    digit but which overflows or reads as 0 ('inf' has no digit)."""
    x = float(token)
    if (math.isinf(x) or x == 0) and any(c in "123456789" for c in
                                         token.lower().partition("e")[0]):
        raise ParseError(f"decimal beyond float range: {token[:30]!r}" + "..." * (len(token) > 30))
    return x


def parse_scalar(token: str):
    """Inverse of ``render_scalar``.  Integers and p/q are exact at any
    length, 'inf' is infinity, and any other token is read by
    ``Fraction`` when its exponent is at most ``_MAX_EXPONENT`` in
    magnitude, else by ``float``; a zero significand is exactly 0."""
    if token == "inf":
        return math.inf
    exact = _RATIONAL.fullmatch(token)
    if exact:
        sign, num, den = exact.groups()
        den = _integer(den or "1")
        if den == 0:
            raise ParseError(f"zero denominator: {token!r}")
        x = Fraction(_integer(num), den)
        return -x if sign == "-" else x
    exponent = token.lower().partition("e")[2].lstrip("+-0")
    try:
        if len(exponent) <= 4 and int(exponent or 0) <= _MAX_EXPONENT:
            return Fraction(token)
    except ValueError:
        pass
    try:
        return _float(token) or Fraction(0)
    except ValueError:
        raise ParseError(f"not a number: {token!r}") from None


@record
class MeasureRecord:
    """One entry of a measure report, as written or read back."""

    class_id: int
    members: tuple[str, ...]
    type: str
    eigenvalue: str
    eigenvector: tuple
    support: tuple[int, ...]


def measure_record(m) -> MeasureRecord:
    """The report entry of an ergodic or sigma-finite measure; its support
    is the classes where the measure's vector is non-zero."""
    decomp = m.decomp
    members = tuple(decomp.diagram.effective_labels[v]
                    for v in decomp.classes[m.class_id].vertices)
    support = tuple(sorted({decomp.class_of[v] for v, x in enumerate(m.vector) if x != 0}))
    return MeasureRecord(m.class_id, members, m.kind, m.lam.render(), tuple(m.vector),
                         support)


def serialize_measures(measures) -> str:
    records = [m if isinstance(m, MeasureRecord) else measure_record(m)
               for m in measures]
    out = [f"measures: {len(records)}"]
    for i, r in enumerate(records, start=1):
        out.append(f"measure {i}:")
        out.append(f"class: {r.class_id}")
        out.append("members: " + " ".join(r.members))
        out.append(f"type: {r.type}")
        out.append(f"eigenvalue: {r.eigenvalue}")
        out.append("eigenvector: " + " ".join(render_scalar(x) for x in r.eigenvector))
        out.append("support: " + " ".join(str(c) for c in r.support))
    return "\n".join(out) + "\n"


def parse_measures(text: str) -> list[MeasureRecord]:
    r = _Reader(text)
    rest = r.field("measures:")
    try:
        count = int(rest)
    except ValueError:
        raise ParseError(f"measure count must be an integer, found {rest!r}", r.line)
    records = []
    for i in range(1, count + 1):
        r.field(f"measure {i}:")
        class_s, class_line = r.field("class:"), r.line
        members_s = r.field("members:")
        type_s = r.field("type:")
        eig_s = r.field("eigenvalue:")
        vec_s, vec_line = r.field("eigenvector:"), r.line
        sup_s = r.field("support:")
        try:
            class_id = int(class_s)
            support = tuple(int(x) for x in sup_s.split())
        except ValueError:
            raise ParseError("class and support must be integers", class_line)
        try:
            # exact values are written as integers or p/q, floats as decimals
            vector = tuple(_float(t) if "." in t or "e" in t.lower() else parse_scalar(t)
                           for t in vec_s.split())
        except (ParseError, ValueError) as e:
            raise ParseError(str(e), vec_line) from None
        records.append(MeasureRecord(class_id, tuple(members_s.split()), type_s,
                                     eig_s, vector, support))
    r.end()
    return records


def serialize_coefficients(coefficients) -> str:
    return "coefficients: " + " ".join(render_scalar(c) for c in coefficients) + "\n"


def parse_coefficients(text: str) -> tuple:
    r = _Reader(text)
    message = "expected a single 'coefficients:' line"
    rest = r.field("coefficients:", message)
    if r.peek():
        raise ParseError(message, r.line)
    try:
        return tuple(parse_scalar(t) for t in rest.split())
    except ParseError as e:
        raise ParseError(str(e), r.line) from None
