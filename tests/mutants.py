"""Mutation checks: each row breaks the program in one known way, and the
tests it names must fail against the broken copy.

    python tests/mutants.py

For each row the harness copies ``src/`` to a temporary directory,
replaces a snippet that must occur exactly once in the module, and runs
``python -m pytest -q -x`` on the named test ids with the copy first on
``PYTHONPATH``.  A mutant is killed when those tests fail (pytest exit
1, or a run past ``TIMEOUT``); it survives when they pass.  Any other
exit (a collection error, say) is reported as an error, as it proves
nothing.  The named tests are first run once against an unbroken copy,
where they must pass.  Exit 0 when every mutant is killed, 1 when one
survives or errs, 2 when the table is stale (a snippet missing or
repeated) or the unbroken run fails.  Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per pytest run

EXTENSION = "tests/test_measures.py::TestExactExtension::test_vectors_match_the_fraction_solves"
NONMIXING = "tests/test_vershik.py::TestNonmixing::"

# (module under src/, snippet occurring once, replacement, reason, test ids that must fail)
MUTANTS = [
    ("bratteli/vershik.py",
     "limit = xi[jp] * w[j] / (lam ** k * sum(w[v] * xi[v] for v in verts))",
     "limit = xi[jp] * xi[j] / (lam ** k * sum(xi[v] * xi[v] for v in verts))",
     "the left eigenvector w of the class replaced by xi",
     (NONMIXING + "test_the_limit_holds_inside_and_outside_the_class",
      NONMIXING + "test_the_limit_on_one_class_diagrams")),
    ("bratteli/vershik.py",
     "/ (lam ** k * sum(",
     "/ (lam ** (k + 1) * sum(",
     "the diamond length k off by one in the limit",
     (NONMIXING + "test_the_limit_on_a_two_vertex_class",
      "tests/test_acceptance.py::test_criterion_8_nonmixing_certificate")),
    ("bratteli/vershik.py",
     "while mass >= limit:",
     "while mass > limit:",
     "a cylinder mass equal to the limit taken as a witness",
     (NONMIXING + "test_a_mass_equal_to_the_limit_certifies_nothing",
      "tests/test_acceptance.py::test_criterion_8_nonmixing_certificate")),
    ("bratteli/vershik.py",
     "decomp = _aperiodic(_ordered(od)._decomposition)",
     "decomp = _ordered(od)._decomposition",
     "no aperiodicity gate in nonmixing_witness",
     (NONMIXING + "test_a_class_below_a_class_of_perron_value_1_is_refused",)),
    ("bratteli/spectral.py",
     'd.__dict__["_decomposition"] = weakref.ref(decomp)',
     'd.__dict__["_decomposition"] = lambda: decomp',
     "a strong hold of the decomposition in decompose (a reference cycle)",
     ("tests/test_spectral.py::TestDecomposition::"
      "test_a_diagram_keeps_its_decomposition_while_it_is_held",
      "tests/test_cli.py::TestNoReferenceCycle")),
    ("bratteli/spectral.py",
     'ref = d.__dict__.get("_decomposition")',
     "ref = None",
     "no cache in decompose: every call builds a new decomposition",
     ("tests/test_cli.py::TestOneStructurePass",)),
    ("bratteli/spectral.py",
     "s, den = [x * scale for x in s], den * scale",
     "den = den * scale",
     "earlier _extend entries not rescaled by a new block's L",
     (EXTENSION,)),
    ("bratteli/documents.py",
     "    if count < 0:\n",
     "    if count < -1:\n",
     "a measure count of -1 accepted",
     ("tests/test_documents.py::test_every_parse_error_names_its_line"
      "[measures-line2-measure count must be non-negative]",)),
]


def _copy(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _pytest(src: Path, ids) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]),
        PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return 1


def _stale(src: Path) -> list[str]:
    """The rows whose snippet does not occur exactly once in its module."""
    counts = [((src / module).read_text().count(snippet), module, snippet)
              for module, snippet, *_ in MUTANTS]
    return [f"{module} holds {n} copies of {snippet!r}, not 1"
            for n, module, snippet in counts if n != 1]


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy(Path(tmp))
        stale = _stale(src)
        if stale:
            print("stale rows:", *stale, sep="\n  ")
            return 2
        ids = list(dict.fromkeys(i for *_, tests in MUTANTS for i in tests))
        if _pytest(src, ids) != 0:
            print("the named tests fail on the unbroken source")
            return 2
    bad = 0
    for module, snippet, replacement, reason, tests in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy(Path(tmp))
            path = src / module
            path.write_text(path.read_text().replace(snippet, replacement))
            code = _pytest(src, tests)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        bad += code != 1
        print(f"{verdict}: {module}: {reason}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
