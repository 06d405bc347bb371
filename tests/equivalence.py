"""Seeded equivalence corpus for the command line.

``random.Random(1)`` draws 400 cases.  Each case is a
``random_diagram(rng, n_max=5, entry_max=3)`` with a ``random_order``
and a random substitution of 2-4 letters.  Nine commands run on each
case through ``bratteli.cli.main`` in-process, from a temporary
directory that holds the case's files:

    analyze D | analyze D --report | analyze D --telescope 2
    verify D --depth 2 | cylinder D --measure 0|1 --check-total
    eigenvalues D --qmax 12 | export-dot D | subst measures S

Each command is recorded as its argv, its exit code and the sha256 of
its stdout and of its stderr (the first 16 hex digits of each).  A
change that means to keep every byte compares clean; one that changes
output on purpose records the digests again and names what changed.

    PYTHONPATH=src python tests/equivalence.py --record tests/equivalence.json
    PYTHONPATH=src python tests/equivalence.py --compare tests/equivalence.json

``--compare`` prints the argv of each changed command, with which of
exit, stdout and stderr changed, and exits 1 when any did.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from bratteli import cli
from bratteli.documents import serialize_diagram, serialize_substitution
from bratteli.substitution import Substitution

from conftest import random_diagram, random_order

SEED = 1
CASES = 400
FIELDS = ("exit", "stdout", "stderr")


def random_substitution(rng) -> Substitution:
    """2-4 letters, each rule a word of 1-3 letters."""
    alphabet = "abcd"[:rng.randint(2, 4)]
    return Substitution(tuple(alphabet), {
        a: "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
        for a in alphabet})


def cases(count: int = CASES):
    """(diagram document, substitution document) of the first count cases."""
    rng = random.Random(SEED)
    out = []
    for _ in range(count):
        od = random_order(rng, random_diagram(rng, n_max=5, entry_max=3))
        out.append((serialize_diagram(od), serialize_substitution(random_substitution(rng))))
    return out


def commands(i: int) -> list[list[str]]:
    d, s = f"d{i:03d}.txt", f"s{i:03d}.sub"
    return [["analyze", d], ["analyze", d, "--report"], ["analyze", d, "--telescope", "2"],
            ["verify", d, "--depth", "2"],
            ["cylinder", d, "--measure", "0", "--check-total"],
            ["cylinder", d, "--measure", "1", "--check-total"],
            ["eigenvalues", d, "--qmax", "12"], ["export-dot", d], ["subst", "measures", s]]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:     # argparse refusing the argv
            code = e.code
        except Exception as e:      # a traceback is recorded, not raised
            code = f"raised {type(e).__name__}"
            print(e, file=err)
    return code, _digest(out.getvalue()), _digest(err.getvalue())


def record(count: int = CASES) -> list[list]:
    """[argv, exit, stdout digest, stderr digest] of every command of the
    first count cases, in corpus order."""
    rows = []
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for i, (d, s) in enumerate(cases(count)):
                Path(f"d{i:03d}.txt").write_text(d)
                Path(f"s{i:03d}.sub").write_text(s)
                rows.extend([" ".join(argv), *_run(argv)] for argv in commands(i))
        finally:
            os.chdir(previous)
    return rows


def compare(recorded, rows) -> list[str]:
    """One line per command of rows whose record differs: its argv and
    which of exit, stdout and stderr changed."""
    want = {r[0]: r[1:] for r in recorded}
    out = []
    for argv, *got in rows:
        if argv not in want:
            out.append(f"{argv}: not recorded")
            continue
        changed = [f for f, a, b in zip(FIELDS, got, want[argv]) if a != b]
        if changed:
            out.append(f"{argv}: {' '.join(changed)} changed")
    return out


def load(path) -> list[list]:
    return json.loads(Path(path).read_text())["commands"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="FILE")
    mode.add_argument("--compare", metavar="FILE")
    parser.add_argument("--count", type=int, default=CASES,
                        help=f"run only the first COUNT cases (default {CASES})")
    args = parser.parse_args(argv)
    rows = record(args.count)
    if args.record:
        # one command per line, so a regenerated file diffs line by line
        lines = ",\n".join(json.dumps(r) for r in rows)
        Path(args.record).write_text(f'{{"seed": {SEED}, "commands": [\n{lines}\n]}}\n')
        print(f"recorded {len(rows)} commands")
        return 0
    changed = compare(load(args.compare), rows)
    print("\n".join(changed + [f"{len(changed)} of {len(rows)} commands changed"]))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
