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
INVARIANCE = "tests/test_oracle.py::TestInvariance::"

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
    ("bratteli/oracle.py",
     "if not _close(p_now[v], p_now[v]):",
     "if False:",
     "check (a) never compares a mass, so a NaN mass gets no path verdicts",
     (INVARIANCE + "test_each_path_gets_its_own_verdict",)),
    ("bratteli/oracle.py",
     "p_next = [m.value(lvl + 1, v)",
     "p_next = [m.value(lvl + 2, v)",
     "verify reads p_next one level too deep",
     (INVARIANCE + "test_ergodic_measure_passes",
      INVARIANCE + "test_each_level_vertex_is_priced_once")),
    ("bratteli/oracle.py",
     "checks += h[v] + 1 ",
     "checks += h[v] ",
     "one check fewer than the paths to each (level, vertex)",
     ("tests/test_cli.py::TestVerify::test_ordered_diagram_with_towers",)),
    ("bratteli/oracle.py",
     "at level {lvl}\"] * count",
     "at level {lvl}\"]",
     "one (a) violation per vertex sequence instead of one per path",
     (INVARIANCE + "test_each_path_gets_its_own_verdict",)),
    ("bratteli/vershik.py",
     "    _check_legs(od, leg_a, leg_b)\n",
     "",
     "make_diamond without its leg check",
     ("tests/test_vershik.py::TestDiamonds::test_make_diamond_refuses_an_edge_off_its_bundle",
      "tests/test_vershik.py::TestDiamonds::test_make_diamond_refuses_an_unknown_vertex")),
    ("bratteli/measures.py",
     "nv_compare(decomp.classes[b].rho, lam) >= 0:",
     "nv_compare(decomp.classes[b].rho, lam) > 0:",
     "an accessor of equal Perron value not taken as divergent in tail_valuation",
     ("tests/test_measures.py::TestSigmaFinite::test_dominated_middle_class",
      "tests/test_acceptance.py::test_criterion_9_tail_measure_valuation")),
    ("bratteli/spectral.py",
     "vec = [m[n - 2][n - 2] if n > 1 else 1]",
     "vec = [1]",
     "_perron_sign's back-substitution started from 1 instead of d",
     ("tests/test_spectral.py::TestPerronBracket::"
      "test_perron_sign_matches_the_characteristic_polynomial",)),
    ("bratteli/documents.py",
     "    if count < 0:\n",
     "    if count < -1:\n",
     "a measure count of -1 accepted",
     ("tests/test_documents.py::test_every_parse_error_names_its_line"
      "[measures-line2-measure count must be non-negative]",)),
    ("bratteli/spectral.py",
     "extra = max(extra, m)",
     "extra = math.lcm(extra, m)",
     "positivity_power combining the block exponents by lcm instead of max",
     ("tests/test_spectral.py::TestPrimitivity::"
      "test_positivity_power_is_the_smallest_adequate_power",)),
    ("bratteli/substitution.py",
     'object.__setattr__(self, "rules", dict(self.rules))',
     'object.__setattr__(self, "rules", self.rules)',
     "a Substitution sharing its rules dict with the caller",
     ("tests/test_substitution.py::TestConstruction::test_keeps_its_own_rules",)),
    ("bratteli/vershik.py",
     "if not 1 <= a <= b:",
     "if not 0 <= a <= b:",
     "an eigenvalue window starting at level 0 accepted",
     tuple(f"tests/test_vershik.py::TestClassWindow::test_windows_outside_one_to_b_are_refused"
           f"[{entry}-window1]" for entry in ("eigenvalue_search", "eigenvalue_check",
                                              "rational_eigenvalue_sufficient"))),
    ("bratteli/spectral.py",
     "for k in range(len(levels) + 1, 2 * len(z) + 1):",
     "for k in range(len(levels) + 1, 2 * len(z)):",
     "_refuted_level searching 2N - 1 levels",
     ("tests/test_spectral.py::TestCoreMembership::"
      "test_golden_mean_core_holds_no_rational_point_but_zero",
      "tests/test_spectral.py::TestCoreMembership::test_exact_queries_make_no_solve")),
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
