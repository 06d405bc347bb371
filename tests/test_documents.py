"""Line-oriented document formats: parse errors, canonical output, round trips."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bratteli import (
    BratteliError,
    MeasureRecord,
    OrderedDiagram,
    ParseError,
    StationaryDiagram,
    Substitution,
    enumerate_ergodic,
    enumerate_infinite,
    measure_record,
    parse_coefficients,
    parse_diagram,
    parse_measures,
    parse_scalar,
    parse_substitution,
    render_scalar,
    serialize_coefficients,
    serialize_diagram,
    serialize_measures,
    serialize_substitution,
)


class TestDiagramDocuments:
    def test_plain_diagram_with_comments(self):
        d = parse_diagram("# two vertices\nn: 2\nincidence:\n2 0\n\n1 2\n")
        assert isinstance(d, StationaryDiagram)
        assert d.incidence == ((2, 0), (1, 2))
        assert d.labels is None

    def test_labels_and_order_make_it_ordered(self):
        text = "n: 2\nincidence:\n2 0\n1 2\nlabels: a b\norder:\na: aa\nb: abb\n"
        od = parse_diagram(text)
        assert isinstance(od, OrderedDiagram)
        assert od.base.labels == ("a", "b")
        assert od.order == ((0, 0), (0, 1, 1))

    def test_order_accepts_numeric_names_and_spaced_words(self):
        text = "n: 2\nincidence:\n2 0\n1 2\nlabels: a b\norder:\n1: a a\n2: a b b\n"
        od = parse_diagram(text)
        assert od.order == ((0, 0), (0, 1, 1))

    def test_explicit_digit_labels_win_over_numeric_aliases(self):
        text = "n: 2\nincidence:\n2 0\n1 2\nlabels: 2 1\norder:\n2: 22\n1: 211\n"
        od = parse_diagram(text)
        assert od.base.labels == ("2", "1")
        assert od.order == ((0, 0), (0, 1, 1))
        assert parse_diagram(serialize_diagram(od)) == od

    def test_error_lines(self):
        with pytest.raises(ParseError) as exc:
            parse_diagram("n: x\n")
        assert exc.value.line == 1
        with pytest.raises(ParseError) as exc:
            parse_diagram("n: 2\nincidence:\n2 0\n1 2 3\n")
        assert exc.value.line == 4
        with pytest.raises(ParseError):
            parse_diagram("n: 2\nincidence:\n2 0\n-1 2\n")
        with pytest.raises(ParseError):
            parse_diagram("n: 2\nincidence:\n2 0\n1 2\nextra: 1\n")
        with pytest.raises(ParseError):
            parse_diagram("n: 2\nincidence:\n2 0\n1 2\norder:\n1: 11\n1: 11\n")
        with pytest.raises(ParseError):
            parse_diagram("n: 2\nincidence:\n2 0\n1 2\norder:\n1: 11\n2: 1zz\n")

    def test_serialization_is_canonical(self, b1_ordered):
        assert serialize_diagram(b1_ordered) == (
            "n: 2\nincidence:\n2 0\n1 2\norder:\n1: 11\n2: 122\n")

    def test_round_trips(self, b1, b1_ordered, double_morse, eig_chain):
        for d in (b1, b1_ordered, double_morse, eig_chain):
            assert parse_diagram(serialize_diagram(d)) == d


class TestSubstitutionDocuments:
    def test_parse_and_serialize(self, thue_morse):
        text = serialize_substitution(thue_morse)
        assert text == "alphabet: a b\nrules:\na: ab\nb: ba\n"
        assert parse_substitution(text) == thue_morse

    def test_round_trip_larger(self, double_morse_substitution, mixed_chain_substitution):
        for s in (double_morse_substitution, mixed_chain_substitution):
            assert parse_substitution(serialize_substitution(s)) == s

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_substitution("rules:\na: a\n")
        with pytest.raises(ParseError):
            parse_substitution("alphabet: ab\nrules:\nab: ab\n")
        with pytest.raises(ParseError):
            parse_substitution("alphabet: a\nrules:\na a\n")
        with pytest.raises(ParseError):
            parse_substitution("alphabet: a\nrules:\na: a\na: aa\n")
        with pytest.raises(ParseError):
            parse_substitution("alphabet: a b\nrules:\na: ab\n")


class TestScalars:
    def test_render(self):
        assert render_scalar(Fraction(1, 2)) == "1/2"
        assert render_scalar(Fraction(5)) == "5"
        assert render_scalar(5) == "5"
        assert render_scalar(math.inf) == "inf"
        assert render_scalar(-math.inf) == "-inf"
        assert render_scalar(0.5) == "0.5"

    def test_parse(self):
        assert parse_scalar("inf") == math.inf
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert parse_scalar("7") == 7
        with pytest.raises(ParseError):
            parse_scalar("seven")
        # an exponent within the bound stays exact in either case
        assert [parse_scalar(t) for t in ("0.0", "0e5", "-0.0")] == [0] * 3
        # a zero significand is exactly 0 beyond the bound too
        for token in ("0e300000000", "0.0e5000", "-0e-300000000"):
            assert parse_scalar(token) == 0 and type(parse_scalar(token)) is Fraction
        assert parse_scalar("1e400") == parse_scalar("1E400") == 10 ** 400

    def test_round_trip(self):
        # the last four have more digits than Python converts from a
        # string by default
        for x in (Fraction(22, 7), Fraction(-3), math.inf, -math.inf, Fraction(0),
                  Fraction(1, 2 ** 14999), Fraction(10 ** 5000), Fraction(-10 ** 5000),
                  Fraction(-3 ** 9000, 7 ** 8000)):
            back = parse_scalar(render_scalar(x))
            assert back == x and type(back) is type(x)
        # a decimal that float() reads as infinity is refused, not read as 'inf'
        assert parse_scalar("-inf") == -math.inf and math.isnan(parse_scalar("nan"))
        with pytest.raises(ParseError, match="decimal beyond float range"):
            parse_scalar("1" * 5000 + ".5")


class TestMeasureReports:
    def test_records(self, b1):
        (mu,) = enumerate_ergodic(b1)
        (nu,) = enumerate_infinite(b1)
        r_mu, r_nu = measure_record(mu), measure_record(nu)
        assert (r_mu.class_id, r_mu.members, r_mu.type) == (0, ("1",), "ergodic-finite")
        assert r_mu.eigenvector == (1, 0)
        assert r_mu.support == (0,)
        assert (r_nu.class_id, r_nu.type) == (1, "sigma-finite")
        assert r_nu.eigenvector == (math.inf, 1)
        assert r_nu.support == (0, 1)

    def test_atomic_type_tag(self, atomic_tail):
        (nu,) = enumerate_infinite(atomic_tail)
        assert measure_record(nu).type == "sigma-finite-atomic"

    def test_serialized_report_is_frozen_text(self, b1):
        text = serialize_measures(enumerate_ergodic(b1) + enumerate_infinite(b1))
        assert text == (
            "measures: 2\n"
            "measure 1:\n"
            "class: 0\n"
            "members: 1\n"
            "type: ergodic-finite\n"
            "eigenvalue: 2\n"
            "eigenvector: 1 0\n"
            "support: 0\n"
            "measure 2:\n"
            "class: 1\n"
            "members: 2\n"
            "type: sigma-finite\n"
            "eigenvalue: 2\n"
            "eigenvector: inf 1\n"
            "support: 0 1\n")

    def test_report_round_trip(self, b1, mixed_chain):
        for d in (b1, mixed_chain):
            measures = enumerate_ergodic(d) + enumerate_infinite(d)
            records = [measure_record(m) for m in measures]
            assert parse_measures(serialize_measures(measures)) == records
        record = MeasureRecord(0, ("a", "b"), "ergodic-finite", "2",
                               (Fraction(1, 2 ** 14999), Fraction(10 ** 5000), 0.5,
                                1.7976931348623157e308, 5e-324, math.inf, -math.inf), (0,))
        assert parse_measures(serialize_measures([record])) == [record]
        with pytest.raises(ParseError, match="line 7: decimal beyond float range: "
                                             "'1.7976931348623157e400'"):
            parse_measures(serialize_measures([record]).replace("e+308", "e400"))

    def test_report_errors(self):
        with pytest.raises(ParseError):
            parse_measures("measures: x\n")
        with pytest.raises(ParseError):
            parse_measures("measures: 1\n")
        with pytest.raises(ParseError):
            parse_measures("measures: 0\nleftover\n")


class TestCoefficientDocuments:
    def test_round_trip(self):
        coeffs = (Fraction(1, 3), Fraction(2, 3), 0)
        text = serialize_coefficients(coeffs)
        assert text == "coefficients: 1/3 2/3 0\n"
        assert parse_coefficients(text) == coeffs

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_coefficients("nope: 1\n")
        with pytest.raises(ParseError):
            parse_coefficients("coefficients: 1\ncoefficients: 1\n")


REPORT = ("measures: 1\nmeasure 1:\nclass: 0\nmembers: 1\ntype: ergodic-finite\n"
          "eigenvalue: 2\neigenvector: 1 0\nsupport: 0\n")
# (parser, document, line, message): one row per ParseError message of each
# parser; a missing line or field names the last content line
MALFORMED = [
    ("diagram", "", 1, "missing 'n:' field"),
    ("diagram", "# c\nx: 1\n", 2, "expected 'n:', found 'x: 1'"),
    ("diagram", "n: x\n", 1, "vertex count must be an integer, found 'x'"),
    ("diagram", "n: 0\n", 1, "vertex count must be positive"),
    ("diagram", "# c\nn: 2\n\n", 2, "missing 'incidence:' field"),
    ("diagram", "n: 2\nrows:\n", 2, "expected 'incidence:', found 'rows:'"),
    ("diagram", "n: 2\nincidence:\n2 0\n# c\n", 3, "incidence needs 2 rows, found 1"),
    ("diagram", "n: 2\nincidence:\n2 x\n", 3, "incidence row must be integers, found '2 x'"),
    ("diagram", "n: 2\nincidence:\n2 0\n1 2 3\n", 4, "incidence row has 3 entries, expected 2"),
    ("diagram", "n: 2\nincidence:\n2 0\n-1 2\n", 4, "incidence entries must be non-negative"),
    ("diagram", "n: 2\nincidence:\n2 0\n1 2\nlabels: a\n", 5,
     "labels list has 1 entries, expected 2"),
    ("diagram", "# c\nn: 2\nincidence:\n2 0\n1 2\nlabels: a a\n", 2, "labels must be distinct"),
    ("diagram", "n: 2\nincidence:\n2 0\n1 2\nextra: 1\n", 5, "unexpected content 'extra: 1'"),
    ("diagram", "n: 2\nincidence:\n2 0\n1 2\norder:\n1: 11\n", 6, "order needs 2 lines, found 1"),
    ("diagram", "n: 2\nincidence:\n2 0\n1 2\norder:\n1 11\n", 6,
     "order line must be 'vertex: word', found '1 11'"),
    ("diagram", "n: 2\nincidence:\n2 0\n1 2\norder:\nz: 11\n", 6,
     "unknown vertex 'z' in order section"),
    ("diagram", "n: 2\nincidence:\n2 0\n1 2\norder:\n1: 11\n1: 11\n", 7,
     "vertex '1' ordered twice"),
    ("diagram", "n: 2\nincidence:\n2 0\n1 2\norder:\n1: 11\n2: 1zz\n", 7,
     "unknown vertex 'z' in order word"),
    ("diagram", "n: 2\nincidence:\n2 0\n1 2\norder:\n1: 11\n2: 122\n3: 1\n", 8,
     "unexpected content '3: 1'"),
    ("diagram", "n: 2\nincidence:\n2 0\n1 2\norder:\n2: 122\n1: 12\n", 7,
     "order word of vertex 0 does not match its incoming bundle"),
    ("substitution", "", 1, "substitution document must start with 'alphabet:'"),
    ("substitution", "# c\nrules:\n", 2, "substitution document must start with 'alphabet:'"),
    ("substitution", "alphabet: ab\n", 1, "letters must be single characters, found 'ab'"),
    ("substitution", "alphabet: a\n# c\n", 1, "expected 'rules:' after the alphabet"),
    ("substitution", "alphabet: a\nrules: a\n", 2, "expected 'rules:' after the alphabet"),
    ("substitution", "alphabet: a\nrules:\na a\n", 3,
     "rule line must be 'letter: word', found 'a a'"),
    ("substitution", "alphabet: a\nrules:\na: a\na: aa\n", 4, "duplicate rule for 'a'"),
    ("substitution", "# c\nalphabet: a b\nrules:\na: ab\n", 2,
     "rules must cover exactly the alphabet"),
    ("measures", "", 1, "missing 'measures:' field"),
    ("measures", "count: 1\n", 1, "expected 'measures:', found 'count: 1'"),
    ("measures", "measures: x\n", 1, "measure count must be an integer, found 'x'"),
    ("measures", "measures: 1\n# c\n", 1, "missing 'measure 1:' field"),
    ("measures", "measures: 1\nmeasure 2:\n", 2, "expected 'measure 1:', found 'measure 2:'"),
    ("measures", REPORT.replace("measures: 1", "measures: 2"), 8, "missing 'measure 2:' field"),
    ("measures", "measures: 1\nmeasure 1:\n", 2, "missing 'class:' field"),
    ("measures", REPORT.split("support:")[0], 7, "missing 'support:' field"),
    ("measures", REPORT.replace("class: 0", "class: x"), 3, "class and support must be integers"),
    ("measures", REPORT.replace("support: 0", "support: 0 y"), 3,
     "class and support must be integers"),
    ("measures", REPORT.replace("eigenvector: 1 0", "eigenvector: 1 x"), 7, "not a number: 'x'"),
    ("measures", REPORT.replace("eigenvector: 1 0", "eigenvector: 1 1.x"), 7,
     "could not convert string to float: '1.x'"),
    ("measures", REPORT.replace("eigenvector: 1 0", "eigenvector: 1 1/0"), 7,
     "zero denominator: '1/0'"),
    ("measures", REPORT.replace("eigenvector: 1 0", "eigenvector: 1 1e400"), 7,
     "decimal beyond float range: '1e400'"),
    ("measures", REPORT.replace("eigenvector: 1 0", "eigenvector: -1.5e999 0"), 7,
     "decimal beyond float range: '-1.5e999'"),
    ("measures", REPORT.replace("eigenvector: 1 0", "eigenvector: 1 1E400"), 7,
     "decimal beyond float range: '1E400'"),
    # a non-zero decimal that float() reads as 0
    ("measures", REPORT.replace("eigenvector: 1 0", "eigenvector: 1e-400 0"), 7,
     "decimal beyond float range: '1e-400'"),
    ("measures", REPORT + "leftover\n", 9, "unexpected content 'leftover'"),
    ("coefficients", "", 1, "expected a single 'coefficients:' line"),
    ("coefficients", "# c\nnope: 1\n", 2, "expected a single 'coefficients:' line"),
    ("coefficients", "coefficients: 1\ncoefficients: 1\n", 1,
     "expected a single 'coefficients:' line"),
    ("coefficients", "\ncoefficients: 1 x\n", 2, "not a number: 'x'"),
    ("coefficients", "coefficients: 1/0 1\n", 1, "zero denominator: '1/0'"),
    # more digits than Fraction reads, so read by float, which overflows
    ("coefficients", "coefficients: 0 " + "1" * 5000 + ".5\n", 1,
     "decimal beyond float range: '" + "1" * 30 + "'..."),
    ("coefficients", "coefficients: 1 0." + "0" * 5000 + "1\n", 1,
     "decimal beyond float range: '0." + "0" * 28 + "'..."),
    # an exponent beyond the bound is read by float, not by Fraction
    ("coefficients", "coefficients: 1e300000000\n", 1,
     "decimal beyond float range: '1e300000000'"),
]
PARSERS = {"diagram": parse_diagram, "substitution": parse_substitution,
           "measures": parse_measures, "coefficients": parse_coefficients}


MALFORMED_IDS = [f"{parser}-line{line}-{message}" for parser, _, line, message in MALFORMED]


@pytest.mark.parametrize("parser, text, line, message", MALFORMED, ids=MALFORMED_IDS)
def test_every_parse_error_names_its_line(parser, text, line, message):
    with pytest.raises(ParseError) as exc:
        PARSERS[parser](text)
    assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")


LABEL_TEXT = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=3)


@st.composite
def labelled_diagrams(draw, entries=(0, 3)):
    """A diagram of 1-3 vertices under an arbitrary label set (or none),
    ordered half the time; label sets a diagram refuses are skipped."""
    n = draw(st.integers(1, 3))
    rows = tuple(tuple(draw(st.integers(*entries)) for _ in range(n)) for _ in range(n))
    labels = draw(st.none() | st.lists(LABEL_TEXT | st.sampled_from(["1", "2", "10", "12"]),
                                       min_size=n, max_size=n, unique=True))
    try:
        d = StationaryDiagram(rows, labels)
    except ValueError:
        assume(False)
    if not draw(st.booleans()):
        return d
    return OrderedDiagram(d, tuple(
        tuple(draw(st.permutations([w for w in range(n) for _ in range(row[w])])))
        for row in rows))


@settings(max_examples=200, deadline=None)
@given(labelled_diagrams())
@example(StationaryDiagram(((2, 0), (1, 2)), ("2", "1")))
@example(OrderedDiagram(StationaryDiagram(((0, 1), (1, 0)), ("10", "1")), ((1,), (0,))))
def test_diagram_documents_round_trip_under_any_labels(d):
    assert parse_diagram(serialize_diagram(d)) == d


@settings(max_examples=200, deadline=None)
@given(st.lists(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=4,
                unique=True).flatmap(
    lambda letters: st.tuples(st.just(letters), st.lists(
        st.text(st.sampled_from(letters), min_size=1, max_size=4),
        min_size=len(letters), max_size=len(letters)))))
def test_substitution_documents_round_trip_under_any_letters(alphabet_and_words):
    letters, words = alphabet_and_words
    try:
        s = Substitution(tuple(letters), dict(zip(letters, words)))
    except ValueError:
        assume(False)
    assert parse_substitution(serialize_substitution(s)) == s


@settings(max_examples=100, deadline=None)
@given(labelled_diagrams(entries=(0, 2)))
def test_measure_reports_round_trip_under_any_labels(d):
    base = d.base if isinstance(d, OrderedDiagram) else d
    try:
        measures = enumerate_ergodic(base) + enumerate_infinite(base)
    except BratteliError:
        assume(False)
    records = [measure_record(m) for m in measures]
    assert parse_measures(serialize_measures(measures)) == records
