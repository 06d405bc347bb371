"""The package's public names, listed, so that one is added to or removed
from ``bratteli.__all__`` only on purpose: such a change edits this list.
And the argument rules over them: a diagram carries its decomposition, so
only the ``spectral`` functions that read class data take one; and a
measure carries its diagram, so a function that takes a measure takes it
first, and no diagram with it."""

import inspect

import bratteli
from bratteli import ComponentDecomposition

PUBLIC = [
    'AmbiguousComparison', 'AperiodicityResult', 'BratteliError', 'CapExceeded',
    'ComponentClass', 'ComponentDecomposition', 'CoreOracleResult', 'CoreVerdict',
    'Diagnostic', 'Diamond', 'DimensionMismatch', 'Eigendata', 'EigenvalueVerdict',
    'EndpointMismatch', 'ErgodicMeasure', 'GrowthReport', 'InvarianceReport',
    'InvariantMeasure', 'Leg', 'MeasureRecord', 'NonmixingReport', 'NotAperiodicError',
    'NotDistinguishedError', 'NotGrowingError', 'NotInDomainError', 'NumericValue',
    'OrbitFrequency', 'OrderedDiagram', 'PSequence', 'ParseError', 'PathWord',
    'PrimitivityError', 'SizeRefused', 'StationaryDiagram', 'Substitution',
    'SubstitutionMeasures', 'TailMeasure', 'ZeroBlockError',
    'aperiodicity_check', 'borel_invariant', 'brute_force_Q', 'candidate_count',
    'candidate_thetas', 'check_path', 'check_primitive', 'core_membership',
    'core_preimage_oracle', 'decompose', 'default_window', 'diagram',
    'diagram_from_substitution', 'distinguished_classes', 'distinguished_eigenvector',
    'documents', 'eigenvalue_check', 'eigenvalue_search', 'empirical_orbit_frequency',
    'enumerate_diamonds', 'enumerate_ergodic', 'enumerate_infinite', 'enumerate_paths',
    'errors', 'expand', 'growth_check', 'heights', 'imprimitivity_index', 'is_decisive',
    'is_maximal', 'letter_frequencies', 'linalg', 'make_diamond', 'max_path',
    'measure_from_point', 'measure_of_cylinder', 'measure_record', 'measures', 'min_path',
    'minimal_components', 'nonmixing_witness', 'nv_compare', 'oracle', 'p_sequence', 'p_value',
    'parse_coefficients', 'parse_diagram', 'parse_measures', 'parse_scalar',
    'parse_substitution', 'path_rank', 'perron_pair', 'positivity_power', 'q_steps',
    'rational_eigenvalue_sufficient', 'record', 'recurrence_coefficients', 'render_scalar',
    'serialize_coefficients', 'serialize_diagram', 'serialize_measures',
    'serialize_substitution', 'spectral', 'spectral_radius', 'substitution',
    'substitution_from_diagram', 'substitution_matrix', 'substitution_measures', 'successor',
    'support_classes', 'tail_valuation', 'telescope', 'telescope_ordered',
    'telescope_to_primitive', 'validate', 'verify_invariance', 'vershik',
]


def test_public_names_are_the_listed_ones():
    assert sorted(bratteli.__all__) == PUBLIC


# the spectral functions that read class data, the only ones given a decomposition
CLASS_DATA_READERS = ["aperiodicity_check", "check_primitive", "core_membership",
                      "distinguished_classes", "distinguished_eigenvector"]


def _takes_a_decomposition(fn):
    params = list(inspect.signature(fn).parameters.values())
    return bool(params) and (params[0].name == "decomp" or params[0].annotation in (
        "ComponentDecomposition", ComponentDecomposition))


def test_only_the_class_data_readers_take_a_decomposition():
    functions = {name: getattr(bratteli, name) for name in bratteli.__all__
                 if inspect.isfunction(getattr(bratteli, name))}
    takers = sorted(name for name, fn in functions.items() if _takes_a_decomposition(fn))
    assert takers == CLASS_DATA_READERS
    assert {functions[name].__module__ for name in takers} == {"bratteli.spectral"}
    # the walk sees what it looks for: an annotated diagram and a named one
    assert not _takes_a_decomposition(bratteli.tail_valuation)
    assert len(functions) > 60


# the functions given a measure; each takes it first
MEASURE_TAKERS = ["measure_of_cylinder", "measure_record", "support_classes",
                  "verify_invariance"]
MEASURES = ("ErgodicMeasure", "InvariantMeasure", "TailMeasure")
DIAGRAMS = ("StationaryDiagram", "OrderedDiagram")


def _params(fn, names, annotations):
    """Positions of the parameters of fn that are named or annotated as one
    of the given kinds."""
    return [i for i, p in enumerate(inspect.signature(fn).parameters.values())
            if p.name in names or p.annotation in annotations]


def test_a_measure_is_passed_without_its_diagram():
    functions = {name: getattr(bratteli, name) for name in bratteli.__all__
                 if inspect.isfunction(getattr(bratteli, name))}
    measure_at = {name: _params(fn, ("m", "mu", "measure"), MEASURES)
                  for name, fn in functions.items()}
    assert sorted(name for name, at in measure_at.items() if at) == MEASURE_TAKERS
    assert all(measure_at[name] == [0] for name in MEASURE_TAKERS)
    assert not [name for name in MEASURE_TAKERS
                if _params(functions[name], ("d", "od"), DIAGRAMS)]
    # the walk sees what it looks for: annotated and unannotated parameters
    assert _params(bratteli.support_classes, (), MEASURES) == [0]
    assert _params(bratteli.check_path, (), DIAGRAMS) == [0]
    assert _params(bratteli.serialize_diagram, ("d", "od"), ()) == [0]


def test_only_the_substitution_expansions_take_a_cap():
    # every other search reads its cap from a module constant when called:
    # oracle.STEP_CAP, diagram.PATH_CAP, vershik.DIAMOND_CAP, spectral.LEVEL_CAP
    functions = {name: getattr(bratteli, name) for name in bratteli.__all__
                 if inspect.isfunction(getattr(bratteli, name))}
    knobs = {"cap", "k_max", "class_id"}
    assert sorted(name for name, fn in functions.items()
                  if knobs & inspect.signature(fn).parameters.keys()) == [
        "expand", "letter_frequencies"]
