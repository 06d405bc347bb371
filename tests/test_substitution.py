"""Substitutions, their matrices and diagrams, growth, measure enumeration."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from bratteli import (
    CapExceeded,
    NotGrowingError,
    Substitution,
    diagram_from_substitution,
    expand,
    growth_check,
    letter_frequencies,
    substitution_from_diagram,
    substitution_matrix,
    substitution_measures,
)
from bratteli import spectral, substitution
from bratteli.errors import AmbiguousComparison
from bratteli.spectral import NumericValue, decompose, nv_compare

from conftest import time_limit

# two classes tie at the golden ratio above the fixed letter e
GOLDEN_TIE = Substitution(tuple("abcde"), {"a": "acd", "b": "d", "c": "ab", "d": "db", "e": "e"})


def growth_by_perron_values(s):
    """The growth verdicts read off the Perron values of a decomposition, as
    ``growth_check`` decided them before it read the row sums: letter a
    grows iff a class above it has rho > 1, or two chained classes above it
    have rho = 1.  AmbiguousComparison on a tie ``decompose`` cannot order."""
    decomp = decompose(diagram_from_substitution(s).base)
    one = NumericValue.exact(1)
    k = len(decomp.classes)

    def rho_above_one(b):
        cls = decomp.classes[b]
        return not cls.is_zero and nv_compare(cls.rho, one) > 0

    def rho_is_one(b):
        cls = decomp.classes[b]
        return cls.rho.is_exact and cls.rho.value == 1

    verdicts = {}
    for v, letter in enumerate(s.alphabet):
        above = [b for b in range(k) if decomp.access[b][decomp.class_of[v]]]
        growing = any(rho_above_one(b) for b in above) or any(
            b != c and rho_is_one(b) and rho_is_one(c) and decomp.access[b][c]
            for b in above for c in above)
        verdicts[letter] = "Growing" if growing else "Bounded"
    return verdicts


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            Substitution((), {})
        with pytest.raises(ValueError):
            Substitution(("a", "a"), {"a": "a"})
        with pytest.raises(ValueError):
            Substitution(("ab",), {"ab": "ab"})
        with pytest.raises(ValueError):
            Substitution(("a", "b"), {"a": "ab"})
        with pytest.raises(ValueError):
            Substitution(("a",), {"a": ""})
        with pytest.raises(ValueError):
            Substitution(("a",), {"a": "ax"})
        # a rule line for '#' is a comment, one for ':' has no letter
        for letter in ("#", ":"):
            with pytest.raises(ValueError):
                Substitution(("a", letter), {"a": "a" + letter, letter: "a"})

    def test_apply(self, thue_morse):
        assert thue_morse.apply("ab") == "abba"
        assert thue_morse.apply("") == ""

    def test_matrix_counts_occurrences_per_rule_column(self, double_morse_substitution):
        assert substitution_matrix(double_morse_substitution) == (
            (1, 1, 0, 0, 1),
            (1, 1, 0, 0, 0),
            (0, 0, 1, 1, 1),
            (0, 0, 1, 1, 0),
            (0, 0, 0, 0, 3),
        )

    def test_matrix_of_the_chain_example(self, mixed_chain_substitution):
        assert substitution_matrix(mixed_chain_substitution) == (
            (1, 1, 2, 1, 0),
            (1, 1, 0, 1, 0),
            (0, 0, 3, 0, 1),
            (0, 0, 0, 2, 1),
            (0, 0, 0, 0, 4),
        )


class TestDiagramBridge:
    def test_diagram_transposes_the_matrix_and_keeps_rule_order(self, thue_morse):
        od = diagram_from_substitution(thue_morse)
        assert od.base.incidence == ((1, 1), (1, 1))
        assert od.base.labels == ("a", "b")
        assert od.order == ((0, 1), (1, 0))

    def test_round_trip(self, thue_morse, mixed_chain_substitution):
        for s in (thue_morse, mixed_chain_substitution):
            assert substitution_from_diagram(diagram_from_substitution(s)) == s

    def test_unnamed_vertices_read_as_digit_letters(self, b1_ordered):
        s = substitution_from_diagram(b1_ordered)
        assert s.alphabet == ("1", "2")
        assert s.rules == {"1": "11", "2": "122"}

    def test_multicharacter_labels_are_rejected(self):
        from bratteli import OrderedDiagram, StationaryDiagram

        od = OrderedDiagram(StationaryDiagram(((1,),), labels=("aa",)), ((0,),))
        with pytest.raises(ValueError):
            substitution_from_diagram(od)


class TestGrowth:
    def test_expanding_substitutions_grow(self, thue_morse, double_morse_substitution):
        for s in (thue_morse, double_morse_substitution):
            report = growth_check(s)
            assert report.growing
            assert report.bounded_letters() == ()

    def test_fixed_letter_is_bounded(self):
        report = growth_check(Substitution(("a", "b"), {"a": "ab", "b": "b"}))
        assert report.verdicts == {"a": "Growing", "b": "Bounded"}
        assert not report.growing
        assert report.bounded_letters() == ("b",)

    def test_chained_unit_classes_still_grow(self):
        # sigma^n(a) = a b^n c^(n(n-1)/2): polynomial but unbounded
        s = Substitution(("a", "b", "c"), {"a": "ab", "b": "bc", "c": "c"})
        assert growth_check(s).verdicts["a"] == "Growing"
        assert growth_check(s).verdicts["c"] == "Bounded"

    def test_row_sums_agree_with_perron_values(self):
        # 4,000 substitutions of 1-5 letters with rule words of 1-4 letters;
        # a tie decompose refuses is counted, and answered by growth_check
        rng = random.Random(77)
        ties = 0
        verdicts = Counter()
        for _ in range(4000):
            alphabet = "abcde"[:rng.randint(1, 5)]
            s = Substitution(tuple(alphabet), {
                a: "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                for a in alphabet})
            got = growth_check(s).verdicts
            verdicts.update(got.values())
            try:
                want = growth_by_perron_values(s)
            except AmbiguousComparison:
                ties += 1
                continue
            assert got == want, s
        assert ties == 5
        assert verdicts["Bounded"] > 1000 and verdicts["Growing"] > 1000

    def test_golden_tie_gets_a_verdict(self):
        with pytest.raises(AmbiguousComparison):
            growth_by_perron_values(GOLDEN_TIE)
        assert growth_check(GOLDEN_TIE).verdicts == {
            "a": "Growing", "b": "Growing", "c": "Growing", "d": "Growing", "e": "Bounded"}
        with pytest.raises(NotGrowingError, match="letter 'e' has bounded images"):
            substitution_measures(GOLDEN_TIE)

    def test_no_perron_data_is_computed(self, monkeypatch, thue_morse):
        def refuse(block):
            raise AssertionError("perron_pair called by the growth gate")

        monkeypatch.setattr(spectral, "perron_pair", refuse)
        assert growth_check(thue_morse).growing
        assert growth_check(GOLDEN_TIE).bounded_letters() == ("e",)


class TestOneDecomposition:
    @pytest.fixture
    def decompositions(self, monkeypatch):
        seen = []

        def counted(d):
            seen.append(d)
            return decompose(d)

        monkeypatch.setattr(substitution, "decompose", counted)
        return seen

    def test_telescoped_measures_decompose_once(self, decompositions):
        result = substitution_measures(Substitution(("a", "b"), {"a": "bb", "b": "aa"}))
        assert result.telescope_power == 2
        assert decompositions == [result.ordered.base]

    def test_bounded_letters_are_refused_before_decomposing(self, decompositions):
        with pytest.raises(NotGrowingError):
            substitution_measures(Substitution(("a", "b"), {"a": "ab", "b": "b"}))
        assert decompositions == []


class TestExpansion:
    def test_small_powers(self, thue_morse):
        assert expand(thue_morse, "a", 0) == "a"
        assert expand(thue_morse, "a", 1) == "ab"
        assert expand(thue_morse, "a", 3) == "abbabaab"

    def test_cap_is_checked_before_expanding(self, thue_morse):
        with pytest.raises(CapExceeded) as exc:
            expand(thue_morse, "a", 40, cap=10 ** 6)
        assert exc.value.required == 2 ** 40
        # the count is exact while Python prints it in full, a bound after
        with pytest.raises(CapExceeded) as exc:
            expand(thue_morse, "a", 14000)
        assert exc.value.required == 2 ** 14000
        assert str(exc.value) == f"expansion has {2 ** 14000} letters"
        with pytest.raises(CapExceeded) as exc:
            expand(thue_morse, "a", 10 ** 11)
        assert str(exc.value) == "expansion has at least 10^4300 letters"
        # a huge n costs only its digits: counts by squaring, words by halving
        swap = Substitution(("a", "b"), {"a": "b", "b": "a"})
        with time_limit(5):
            assert expand(swap, "a", 10 ** 400) == "a"
            assert expand(swap, "a", 10 ** 400 + 1) == "b"

    def test_cycling_letters_jump_by_periods(self):
        swap = Substitution(("a", "b"), {"a": "b", "b": "a"})
        assert expand(swap, "a", 10 ** 9) == "a"
        assert expand(swap, "a", 10 ** 9 + 1) == "b"

    def test_slowly_growing_letter_answers_at_once(self):
        s = Substitution(("a", "b"), {"a": "ab", "b": "b"})
        with time_limit(5):
            assert expand(s, "a", 10 ** 5) == "a" + "b" * 10 ** 5

    def test_agrees_with_applying_sigma_step_by_step(self):
        def stepwise(s, a, n, cap):
            """sigma applied n times; None once the word is over the cap
            (image lengths never shrink)."""
            word = a
            for _ in range(n):
                word = s.apply(word)
                if len(word) > cap:
                    return None
            return word

        rng = random.Random(5)
        refused = 0
        for _ in range(60):
            letters = "abcd"[:rng.randint(1, 4)]
            s = Substitution(tuple(letters), {c: "".join(
                rng.choice(letters) for _ in range(rng.randint(1, 3))) for c in letters})
            for a in letters:
                for n in range(41):
                    want = stepwise(s, a, n, 200)
                    if want is None:
                        refused += 1
                        with pytest.raises(CapExceeded):
                            expand(s, a, n, cap=200)
                    else:
                        assert expand(s, a, n, cap=200) == want, (s, a, n)
        assert refused > 0

    def test_frequencies_match_expanded_counts(self, double_morse_substitution):
        s = double_morse_substitution
        for a in s.alphabet:
            for n in range(1, 6):
                word = expand(s, a, n)
                counts = Counter(word)
                freqs = letter_frequencies(s, a, n)
                assert freqs == tuple(Fraction(counts[x], len(word))
                                      for x in s.alphabet)

    def test_frequencies_respect_the_cap(self, thue_morse):
        with pytest.raises(CapExceeded):
            letter_frequencies(thue_morse, "a", 200, cap=10 ** 6)
        with pytest.raises(CapExceeded):
            letter_frequencies(thue_morse, "a", 100000)

    def test_negative_steps_are_refused(self, thue_morse):
        for f in (expand, letter_frequencies):
            with pytest.raises(ValueError):
                f(thue_morse, "a", -1)


class TestMeasureEnumeration:
    def test_double_morse_has_three_ergodic_measures(self, double_morse_substitution):
        result = substitution_measures(double_morse_substitution)
        assert result.telescope_power == 1
        assert not result.unique_ergodic
        assert [m.xi for m in result.ergodic] == [
            (Fraction(1, 2), Fraction(1, 2), 0, 0, 0),
            (0, 0, Fraction(1, 2), Fraction(1, 2), 0),
            (Fraction(2, 9), Fraction(1, 9), Fraction(2, 9), Fraction(1, 9), Fraction(1, 3)),
        ]
        assert result.infinite == ()

    def test_mixed_chain_adds_a_sigma_finite_tail(self, mixed_chain_substitution):
        result = substitution_measures(mixed_chain_substitution)
        assert [m.lam.value for m in result.ergodic] == [2, 3, 4]
        assert result.ergodic[1].xi == (Fraction(4, 9), Fraction(2, 9), Fraction(1, 3), 0, 0)
        (nu,) = result.infinite
        assert nu.base == (math.inf, math.inf, 0, 1, 0)
        assert nu.lam.value == 2

    def test_thue_morse_is_uniquely_ergodic(self, thue_morse):
        result = substitution_measures(thue_morse)
        assert result.unique_ergodic
        assert result.ergodic[0].xi == (Fraction(1, 2), Fraction(1, 2))

    def test_sibling_rules_change_the_measure_count(self, intro_sigma, intro_tau):
        first = substitution_measures(intro_sigma)
        assert len(first.ergodic) == 1 and len(first.infinite) == 1
        assert abs(first.ergodic[0].lam.as_float - (1 + math.sqrt(2))) < 1e-9
        second = substitution_measures(intro_tau)
        assert len(second.ergodic) == 2 and len(second.infinite) == 0

    def test_imprimitive_rules_telescope_automatically(self):
        s = Substitution(("a", "b"), {"a": "bb", "b": "aa"})
        result = substitution_measures(s)
        assert result.telescope_power == 2
        assert result.ordered.base.incidence == ((4, 0), (0, 4))
        assert len(result.ergodic) == 2

    def test_bounded_letters_are_refused(self):
        with pytest.raises(NotGrowingError) as exc:
            substitution_measures(Substitution(("a", "b"), {"a": "ab", "b": "b"}))
        assert exc.value.letter == "b"
