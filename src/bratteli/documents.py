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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .diagram import StationaryDiagram
from .errors import ParseError
from .measures import ErgodicMeasure, TailMeasure
from .substitution import Substitution
from .vershik import OrderedDiagram


def _lines(text):
    """(lineno, content) with comments and blank lines removed."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((i, stripped))
    return out


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
    lines = _lines(text)
    pos = 0

    def expect(prefix):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"missing {prefix!r} field",
                             lines[-1][0] if lines else 1)
        lineno, content = lines[pos]
        if not content.startswith(prefix):
            raise ParseError(f"expected {prefix!r}, found {content!r}", lineno)
        pos += 1
        return lineno, content[len(prefix):].strip()

    lineno, rest = expect("n:")
    try:
        n = int(rest)
    except ValueError:
        raise ParseError(f"vertex count must be an integer, found {rest!r}", lineno)
    if n < 1:
        raise ParseError("vertex count must be positive", lineno)

    expect("incidence:")
    rows = []
    for _ in range(n):
        if pos >= len(lines):
            raise ParseError(f"incidence needs {n} rows, found {len(rows)}",
                             lines[-1][0])
        lineno, content = lines[pos]
        pos += 1
        try:
            row = tuple(int(x) for x in content.split())
        except ValueError:
            raise ParseError(f"incidence row must be integers, found {content!r}",
                             lineno)
        if len(row) != n:
            raise ParseError(f"incidence row has {len(row)} entries, expected {n}",
                             lineno)
        if any(x < 0 for x in row):
            raise ParseError("incidence entries must be non-negative", lineno)
        rows.append(row)

    labels = None
    if pos < len(lines) and lines[pos][1].startswith("labels:"):
        lineno, content = lines[pos]
        pos += 1
        labels = tuple(content[len("labels:"):].split())
        if len(labels) != n:
            raise ParseError(f"labels list has {len(labels)} entries, expected {n}",
                             lineno)

    try:
        diagram = StationaryDiagram(tuple(rows), labels)
    except ValueError as e:
        raise ParseError(str(e), lines[0][0]) from None

    if pos >= len(lines):
        return diagram
    lineno, content = lines[pos]
    if content != "order:":
        raise ParseError(f"unexpected content {content!r}", lineno)
    pos += 1

    # 1-based numbers are aliases; an explicit label of the same name wins
    lookup = {str(v + 1): v for v in range(n)}
    lookup.update({lbl: v for v, lbl in enumerate(diagram.effective_labels)})
    compact = all(len(lbl) == 1 for lbl in diagram.effective_labels)
    words: dict[int, tuple[int, ...]] = {}
    for _ in range(n):
        if pos >= len(lines):
            raise ParseError(f"order needs {n} lines, found {len(words)}",
                             lines[-1][0])
        lineno, content = lines[pos]
        pos += 1
        key, sep, word = content.partition(":")
        if not sep:
            raise ParseError(f"order line must be 'vertex: word', found {content!r}",
                             lineno)
        key = key.strip()
        if key not in lookup:
            raise ParseError(f"unknown vertex {key!r} in order section", lineno)
        v = lookup[key]
        if v in words:
            raise ParseError(f"vertex {key!r} ordered twice", lineno)
        words[v] = _split_word(word.strip(), lineno, lookup, compact)
    if pos < len(lines):
        raise ParseError(f"unexpected content {lines[pos][1]!r}", lines[pos][0])
    try:
        return OrderedDiagram(diagram, tuple(words[v] for v in range(n)))
    except ValueError as e:
        raise ParseError(str(e), lineno) from None


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
    lines = _lines(text)
    if not lines or not lines[0][1].startswith("alphabet:"):
        raise ParseError("substitution document must start with 'alphabet:'",
                         lines[0][0] if lines else 1)
    lineno, content = lines[0]
    alphabet = tuple(content[len("alphabet:"):].split())
    for a in alphabet:
        if len(a) != 1:
            raise ParseError(f"letters must be single characters, found {a!r}", lineno)
    if len(lines) < 2 or lines[1][1] != "rules:":
        raise ParseError("expected 'rules:' after the alphabet",
                         lines[1][0] if len(lines) > 1 else lineno)
    rules = {}
    for lineno, content in lines[2:]:
        key, sep, word = content.partition(":")
        if not sep:
            raise ParseError(f"rule line must be 'letter: word', found {content!r}",
                             lineno)
        key = key.strip()
        word = "".join(word.split())
        if key in rules:
            raise ParseError(f"duplicate rule for {key!r}", lineno)
        rules[key] = word
    try:
        return Substitution(alphabet, rules)
    except ValueError as e:
        raise ParseError(str(e), lines[0][0]) from None


def serialize_substitution(s: Substitution) -> str:
    out = ["alphabet: " + " ".join(s.alphabet), "rules:"]
    out.extend(f"{a}: {s.rules[a]}" for a in s.alphabet)
    return "\n".join(out) + "\n"


def render_scalar(x) -> str:
    """Exact rationals as p/q, floats as 17-significant-digit decimals,
    infinity as 'inf'."""
    if isinstance(x, float):
        return "inf" if math.isinf(x) else f"{x:.17g}"
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_scalar(token: str):
    if token == "inf":
        return math.inf
    try:
        return Fraction(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"not a number: {token!r}") from None


@dataclass(frozen=True)
class MeasureRecord:
    """One entry of a measure report, as written or read back."""

    class_id: int
    members: tuple[str, ...]
    type: str
    eigenvalue: str
    eigenvector: tuple
    support: tuple[int, ...]


def measure_record(m) -> MeasureRecord:
    labels = m.decomp.diagram.effective_labels
    cls = m.decomp.classes[m.class_id]
    members = tuple(labels[v] for v in cls.vertices)
    if isinstance(m, ErgodicMeasure):
        vec, kind = m.xi, m.kind
        support = tuple(sorted(m.support))
    elif isinstance(m, TailMeasure):
        vec, kind = m.base, m.kind
        support = tuple(sorted({m.decomp.class_of[v] for v, x in enumerate(m.base)
                                if x != 0}))
    else:
        raise TypeError(f"cannot report {type(m).__name__}")
    return MeasureRecord(m.class_id, members, kind, m.lam.render(), tuple(vec), support)


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
    lines = _lines(text)
    pos = 0

    def take(prefix, lineno_hint=1):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"missing {prefix!r} field", lineno_hint)
        lineno, content = lines[pos]
        if not content.startswith(prefix):
            raise ParseError(f"expected {prefix!r}, found {content!r}", lineno)
        pos += 1
        return lineno, content[len(prefix):].strip()

    lineno, rest = take("measures:")
    try:
        count = int(rest)
    except ValueError:
        raise ParseError(f"measure count must be an integer, found {rest!r}", lineno)
    records = []
    for i in range(1, count + 1):
        take(f"measure {i}:", lineno)
        lineno, class_s = take("class:")
        _, members_s = take("members:")
        _, type_s = take("type:")
        _, eig_s = take("eigenvalue:")
        vec_line, vec_s = take("eigenvector:")
        _, sup_s = take("support:")
        try:
            class_id = int(class_s)
            support = tuple(int(x) for x in sup_s.split())
        except ValueError:
            raise ParseError("class and support must be integers", lineno)
        try:
            # exact values are written as integers or p/q, floats as decimals
            vector = tuple(float(t) if "." in t or "e" in t else parse_scalar(t)
                           for t in vec_s.split())
        except (ParseError, ValueError) as e:
            raise ParseError(str(e), vec_line) from None
        records.append(MeasureRecord(class_id, tuple(members_s.split()), type_s,
                                     eig_s, vector, support))
    if pos < len(lines):
        raise ParseError(f"unexpected content {lines[pos][1]!r}", lines[pos][0])
    return records


def serialize_coefficients(coefficients) -> str:
    return "coefficients: " + " ".join(render_scalar(c) for c in coefficients) + "\n"


def parse_coefficients(text: str) -> tuple:
    lines = _lines(text)
    if len(lines) != 1 or not lines[0][1].startswith("coefficients:"):
        raise ParseError("expected a single 'coefficients:' line",
                         lines[0][0] if lines else 1)
    lineno, content = lines[0]
    try:
        return tuple(parse_scalar(t)
                     for t in content[len("coefficients:"):].split())
    except ParseError as e:
        raise ParseError(str(e), lineno) from None
