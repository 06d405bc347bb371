"""Command line front end.

Subcommands parse structured-text documents, run the analyses, and print
deterministic reports: identical input and flags always give identical
bytes.  Exit codes: 0 success, 2 parse or usage error, 3 violated
precondition (not aperiodic, not growing, imprimitive with telescoping
disabled), 4 verification failure, 5 refused by a size cap, 141 stdout closed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from .diagram import PathWord, check_path, height_table, heights, telescope
from .documents import (measure_record, parse_coefficients, parse_diagram,
                        parse_measures, parse_substitution, render_scalar,
                        serialize_diagram, serialize_measures)
from .errors import BratteliError, CapExceeded, NotInDomainError, ParseError, SizeRefused
from .linalg import left_sum
from .measures import (ErgodicMeasure, InvariantMeasure, borel_invariant, enumerate_ergodic,
                       enumerate_infinite, measure_of_cylinder, within_float_range)
from .oracle import verify_invariance
from .spectral import _primitive_power, decompose, positivity_power
from .substitution import (diagram_from_substitution, expand, letter_frequencies,
                           substitution_matrix, substitution_measures)
from .vershik import (WINDOW_CAP, OrderedDiagram, _extreme_edges, _step, candidate_count,
                      default_window, eigenvalue_search, is_decisive, path_rank,
                      telescope_ordered)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4
EXIT_CAP = 5
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

# caps on how much work an option value may ask for; above them, exit 5
QMAX_CAP = 10 ** 6       # --qmax (the candidate count sieve is linear in it)
DEPTH_CAP = 10 ** 4      # verify --depth (checks and heights run per level)


def _plural(n: int, noun: str) -> str:
    return f"{n} {noun}" + ("" if n == 1 else "s")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_diagram(args, want_positive: bool = False):
    """(diagram or ordered diagram, its unordered diagram, applied
    telescoping power)."""
    doc = parse_diagram(_read(args.diagram))
    ordered = isinstance(doc, OrderedDiagram)
    base = doc.base if ordered else doc
    spec = args.telescope
    if spec == "auto":
        q = positivity_power(base) if want_positive else _primitive_power(base)
    else:
        try:
            q = int(spec)
        except ValueError:
            raise ParseError(f"--telescope takes 'auto' or an integer, got {spec!r}")
        if q < 1:
            raise ParseError("--telescope power must be >= 1")
    if q > 1:
        doc = telescope_ordered(doc, q) if ordered else telescope(base, q)
        base = doc.base if ordered else doc
    return doc, base, q


def _parse_path_spec(spec: str, diagram) -> PathWord:
    labels = diagram.effective_labels
    if "," in spec:
        raw = [t.strip() for t in spec.split(",")]
    elif any(c.isspace() for c in spec):
        raw = spec.split()
    elif all(len(x) == 1 for x in labels):
        raw = list(spec)
    else:
        raw = [spec]
    vertices, indices = [], []
    for i, token in enumerate(raw):
        name, dot, idx = token.partition(".")
        try:
            vertices.append(diagram.vertex_named(name))
        except KeyError:
            raise ParseError(f"unknown vertex {name!r} in path") from None
        if i == 0:
            if dot:
                raise ParseError("the root vertex of a path takes no edge index")
            continue
        try:
            indices.append(int(idx) if dot else 0)
        except ValueError:
            raise ParseError(f"bad edge index in path token {token!r}") from None
    try:
        p = PathWord(tuple(vertices), tuple(indices))
        check_path(diagram, p)
    except (ValueError, BratteliError) as e:
        raise ParseError(str(e)) from None
    return p


def _measure_line(i: int, m, labels) -> str:
    vec = " ".join(render_scalar(x) for x in m.vector)
    parts = [f"measure {i}: class={m.class_id}",
             f"eigenvalue={m.lam.render()}", f"vector=({vec})"]
    if m.kind != ErgodicMeasure.kind:
        parts.append(f"atomic={'yes' if m.atomic else 'no'}")
    elif m.full_support:
        parts.append("support=full")
    else:   # the support law: xi > 0 exactly on the classes of the support
        parts.append("support=" + ",".join(labels[v] for v, x in enumerate(m.vector) if x))
    return " ".join(parts)


def _measure_lines(ergodic, infinite, labels, verdict: str) -> list[str]:
    """The measure listing of ``analyze`` and ``subst measures``."""
    return [f"ergodic measures: {len(ergodic)}",
            *(_measure_line(i, m, labels) for i, m in enumerate(ergodic, 1)),
            f"sigma-finite measures: {len(infinite)}",
            *(_measure_line(i, m, labels) for i, m in enumerate(infinite, 1)),
            verdict,
            f"summary: {_plural(len(ergodic), 'ergodic probability measure')}; "
            f"{_plural(len(infinite), 'sigma-finite measure')}"]


def cmd_analyze(args) -> int:
    _, base, q = _load_diagram(args)
    decomp = decompose(base)
    labels = base.effective_labels
    out = [f"vertices: {base.n_vertices}"]
    if base.labels is not None:
        out.append("labels: " + " ".join(base.labels))
    if q > 1:
        out.append(f"telescope power: {q}")
    out.append(f"classes: {len(decomp.classes)}")
    for c in decomp.classes:
        members = ",".join(labels[v] for v in c.vertices)
        rho = c.rho.render()
        flag = "yes" if c.distinguished else "no"
        out.append(f"class {c.index}: members={members} rho={rho} "
                   f"distinguished={flag}")
    edges = [f"{b}->{a}" for b in range(len(decomp.classes))
             for a in range(len(decomp.classes))
             if b != a and decomp.access[b][a]]
    out.append("access: " + (" ".join(edges) if edges else "none"))
    out.append("aperiodic: yes")
    out.append("minimal components: " + " ".join(
        "{" + ",".join(decomp.class_members(alpha)) + "}"
        for alpha in decomp.initial_classes))

    ergodic = enumerate_ergodic(base)
    infinite = enumerate_infinite(base)
    if args.report:
        sys.stdout.write(serialize_measures(list(ergodic) + list(infinite)))
        return EXIT_OK
    out.extend(_measure_lines(ergodic, infinite, labels,
                              f"borel invariant: {borel_invariant(base)}"))
    print("\n".join(out))
    return EXIT_OK


def _select_measure(args, base):
    ergodic = enumerate_ergodic(base)
    try:
        class_id = int(args.measure)
    except ValueError:
        coeffs = parse_coefficients(_read(args.measure))
        try:
            return InvariantMeasure(tuple(ergodic), coeffs)
        except ValueError as e:
            raise NotInDomainError(f"coefficient file: {e} "
                                   f"({_plural(len(ergodic), 'ergodic measure')})") from None
    for m in ergodic:
        if m.class_id == class_id:
            return m
    for m in enumerate_infinite(base):
        if m.class_id == class_id:
            return m
    raise NotInDomainError(
        f"class {class_id} carries no ergodic or sigma-finite measure")


def cmd_cylinder(args) -> int:
    _, base, _ = _load_diagram(args)
    m = _select_measure(args, base)
    level = 1
    if args.path is not None:
        p = _parse_path_spec(args.path, base)
        level = p.level
        print(render_scalar(measure_of_cylinder(m, p)))
    if args.check_total:
        h = heights(base, level)
        # a height can be too large to multiply a float value
        print(render_scalar(within_float_range(level, None, lambda: left_sum(
            hv * m.value(level, v) for v, hv in enumerate(h)))))
    if args.path is None and not args.check_total:
        raise ParseError("give --path and/or --check-total")
    return EXIT_OK


def cmd_eigenvalues(args) -> int:
    if args.qmax < 1:
        raise ParseError(f"--qmax must be >= 1, got {args.qmax}")
    if args.qmax > QMAX_CAP:
        raise CapExceeded(f"--qmax {args.qmax} is above the cap of {QMAX_CAP}",
                          args.qmax, QMAX_CAP)
    od, base, q = _load_diagram(args, want_positive=True)
    if not isinstance(od, OrderedDiagram):
        raise ParseError("eigenvalue analysis needs an ordered diagram "
                         "(document with an order: section)")
    decomp = od._decomposition
    if args.klass is not None:
        if not 0 <= args.klass < len(decomp.classes):
            raise ParseError(f"--class takes a class id in 0..{len(decomp.classes) - 1}, "
                             f"got {args.klass}")
        alpha = args.klass
    else:   # a diagram with no distinguished class is refused by the search's preamble
        alpha = max(decomp.classes, key=lambda c: (c.distinguished, c.rho.as_float, -c.index)).index
    if args.window is not None:
        a, sep, b = args.window.partition(":")
        try:
            window = (int(a), int(b))
        except ValueError:
            raise ParseError(f"--window takes a:b, got {args.window!r}")
        if window[0] < 1 or window[1] < window[0]:
            raise ParseError("--window needs 1 <= a <= b")
        if window[1] > WINDOW_CAP:
            raise CapExceeded(f"--window level {window[1]} is above the cap of {WINDOW_CAP}",
                              window[1], WINDOW_CAP)
    else:
        window = default_window(base)

    passing = eigenvalue_search(od, alpha, args.qmax, window)

    out = []
    if q > 1:
        out.append(f"telescope power: {q}")
    out.append(f"class: {alpha}")
    out.append("members: " + ",".join(decomp.class_members(alpha)))
    out.append(f"window: {window[0]}..{window[1]}")
    out.append(f"decisive: {'yes' if is_decisive(base, window) else 'no'}")
    out.append(f"qmax: {args.qmax}")
    out.append(f"candidates: {candidate_count(args.qmax)}")
    out.append("pass: " + " ".join(render_scalar(t) for t in passing))
    if passing == [Fraction(0)]:
        out.append("verdict: weak-mixing evidence: only theta=0")
    else:
        out.append(f"verdict: {_plural(len(passing) - 1, 'nontrivial rational eigenvalue candidate')}")
    print("\n".join(out))
    return EXIT_OK


def cmd_subst(args) -> int:
    s = parse_substitution(_read(args.substitution))
    if args.steps < 0:
        raise ParseError(f"--steps must be >= 0, got {args.steps}")
    if args.cap < 1:
        raise ParseError(f"--cap must be >= 1, got {args.cap}")
    letter = args.letter or s.alphabet[0]
    if letter not in s.alphabet:
        raise ParseError(f"--letter takes a letter of the alphabet, got {letter!r}")
    if args.action == "matrix":
        m = substitution_matrix(s)
        print("letters: " + " ".join(s.alphabet))
        print("\n".join(" ".join(str(x) for x in row) for row in m))
    elif args.action == "diagram":
        sys.stdout.write(serialize_diagram(diagram_from_substitution(s)))
    elif args.action == "expand":
        print(expand(s, letter, args.steps, args.cap))
    elif args.action == "freqs":
        freqs = letter_frequencies(s, letter, args.steps, args.cap)
        for a, fr in zip(s.alphabet, freqs):
            print(f"{a}: {render_scalar(fr)}")
    else:
        result = substitution_measures(s)
        labels = result.ordered.base.effective_labels
        out = []
        if result.telescope_power > 1:
            out.append(f"telescope power: {result.telescope_power}")
        out.extend(_measure_lines(
            result.ergodic, result.infinite, labels,
            f"uniquely ergodic: {'yes' if result.unique_ergodic else 'no'}"))
        print("\n".join(out))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.depth < 1:
        raise ParseError(f"--depth must be >= 1, got {args.depth}")
    if args.depth > DEPTH_CAP:
        raise CapExceeded(f"--depth {args.depth} is above the cap of {DEPTH_CAP}",
                          args.depth, DEPTH_CAP)
    doc, base, _ = _load_diagram(args)
    labels = base.effective_labels
    ergodic = enumerate_ergodic(base)
    infinite = enumerate_infinite(base)
    violations = 0
    out = []

    for name, group in (("ergodic", ergodic), ("sigma-finite", infinite)):
        for i, m in enumerate(group, 1):
            report = verify_invariance(m, args.depth)
            status = "ok" if report.ok else "FAIL"
            out.append(f"{name} measure {i} (class {m.class_id}): {status} "
                       f"({report.checks_run} checks)")
            out.extend(f"  violation: {v}" for v in report.violations)
            out.extend(f"  skipped: {s}" for s in report.skipped)
            violations += len(report.violations)

    if isinstance(doc, OrderedDiagram):
        h = height_table(base, args.depth)
        for v in range(base.n_vertices):
            # the deepest level whose tower is small enough to walk
            lvl = next((n for n in range(args.depth, 1, -1) if h[n][v] <= 10 ** 4), 1)
            expected = h[lvl][v]
            vertices, mults = map(list, _extreme_edges(doc, v, lvl, last=False))
            count = 1
            while _step(doc, vertices, mults):
                count += 1
            # the walk and the rank formula must agree on the tower
            last = PathWord(tuple(vertices), tuple(mults))
            ok = count == expected and path_rank(doc, last) == expected - 1
            if not ok:
                violations += 1
            out.append(f"tower {labels[v]} level {lvl}: "
                       f"{'ok' if ok else 'FAIL'} ({count} paths)")

    if args.measures is not None:
        stated = parse_measures(_read(args.measures))
        computed = [measure_record(m) for m in list(ergodic) + list(infinite)]
        if len(stated) != len(computed):
            violations += 1
            out.append(f"measure file: FAIL (lists {len(stated)} measures, "
                       f"diagram has {len(computed)})")
        else:
            file_bad = 0
            for i, (got, want) in enumerate(zip(stated, computed), 1):
                if got != want:
                    file_bad += 1
                    out.append(f"measure file entry {i}: FAIL (differs from "
                               f"computed {want.type} measure of class {want.class_id})")
            if file_bad == 0:
                out.append(f"measure file: ok ({len(stated)} measures match)")
            violations += file_bad

    out.append("result: " + ("ok" if violations == 0
                             else f"{_plural(violations, 'violation')}"))
    print("\n".join(out))
    return EXIT_OK if violations == 0 else EXIT_VERIFY


def cmd_export_dot(args) -> int:
    doc = parse_diagram(_read(args.diagram))
    base = doc.base if isinstance(doc, OrderedDiagram) else doc
    labels = base.effective_labels
    out = []

    def quoted(text):  # a DOT quoted string; labels may hold '"' and '\\'
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    if args.graph == "levels":
        out.append("digraph levels {")
        out.append("  rankdir=BT;")
        for n in (1, 2):
            for v in range(base.n_vertices):
                out.append(f"  {quoted(f'{n}:{labels[v]}')};")
        for v in range(base.n_vertices):
            for w in range(base.n_vertices):
                k = base.incidence[v][w]
                if k == 0:
                    continue
                tag = f' [label="{k}"]' if k > 1 else ""
                out.append(f"  {quoted(f'1:{labels[w]}')} -> {quoted(f'2:{labels[v]}')}{tag};")
        out.append("}")
    else:
        decomp = decompose(base)
        names = ["{" + ",".join(decomp.class_members(c.index)) + "}"
                 for c in decomp.classes]
        out.append("digraph reduced {")
        for c in decomp.classes:
            out.append(f"  {quoted(names[c.index])} "
                       f"[label={quoted(f'{names[c.index]} rho={c.rho.render()}')}];")
        direct = {(decomp.class_of[v], decomp.class_of[w])
                  for v in range(base.n_vertices) for w in range(base.n_vertices)
                  if base.incidence[v][w] > 0 and decomp.class_of[v] != decomp.class_of[w]}
        out.extend(f"  {quoted(names[b])} -> {quoted(names[a])};" for b, a in sorted(direct))
        out.append("}")
    print("\n".join(out))
    return EXIT_OK


@functools.cache   # built on the first main call, then shared: parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bratteli",
        description="Analyze stationary Bratteli diagrams: invariant measures, "
                    "spectral structure, Vershik dynamics, substitutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def telescope_option(p):
        p.add_argument("--telescope", default="auto", metavar="auto|K",
                       help="level contraction: auto picks the smallest "
                            "adequate power, an integer forces one")

    p = sub.add_parser("analyze", help="classes, measures, and the summary table")
    p.add_argument("diagram")
    p.add_argument("--report", action="store_true",
                   help="emit the machine-readable measure report instead")
    telescope_option(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cylinder", help="measure of a cylinder set")
    p.add_argument("diagram")
    p.add_argument("--measure", required=True, metavar="CLASS|COEFF_FILE",
                   help="class id of an ergodic or sigma-finite measure, or "
                        "a barycentric coefficients file")
    p.add_argument("--path", metavar="SPEC",
                   help="path word, e.g. 'ab' or '2.1,2.0' (vertex.edge-index)")
    p.add_argument("--check-total", action="store_true",
                   help="print the total mass at the path's level")
    telescope_option(p)
    p.set_defaults(func=cmd_cylinder)

    p = sub.add_parser("eigenvalues", help="rational eigenvalue search")
    p.add_argument("diagram")
    p.add_argument("--class", dest="klass", type=int, default=None,
                   help="class id (default: distinguished class of largest rho)")
    p.add_argument("--qmax", type=int, default=64)
    p.add_argument("--window", metavar="A:B", default=None,
                   help="levels to test (default N:3N)")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: the search is one gcd, "
                        "not a scan to split across workers")
    telescope_option(p)
    p.set_defaults(func=cmd_eigenvalues)

    p = sub.add_parser("subst", help="substitution utilities")
    p.add_argument("action",
                   choices=["matrix", "diagram", "expand", "freqs", "measures"])
    p.add_argument("substitution")
    p.add_argument("--letter", default=None)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--cap", type=int, default=10 ** 7)
    p.set_defaults(func=cmd_subst)

    p = sub.add_parser("verify", help="run the brute-force oracle suite")
    p.add_argument("diagram")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--measures", default=None,
                   help="measure report file to check against the diagram")
    telescope_option(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-dot", help="DOT graph of the diagram")
    p.add_argument("diagram")
    p.add_argument("--graph", choices=["levels", "reduced"], default="reduced")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        print(end="", flush=True)  # a closed pipe is met here, not in the exit flush
        return code
    except BrokenPipeError:  # the reader has gone: say nothing, and send the exit flush
        with (open(os.devnull, "wb") as null,  # to os.devnull, if stdout has a descriptor
              contextlib.suppress(AttributeError, OSError, ValueError)):
            os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_PIPE
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (CapExceeded, SizeRefused) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except BratteliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
