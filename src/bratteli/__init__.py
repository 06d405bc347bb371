"""Invariant measures and spectral analysis of stationary Bratteli diagrams.

The package computes, exactly where possible, every ergodic finite and
sigma-finite tail-invariant measure of a stationary diagram, decides
aperiodicity, searches for rational eigenvalues of the associated adic
map through the diamond criterion, and translates between substitutions
and ordered diagrams.  Brute-force oracles cross-check each formula at
small sizes.
"""

from .diagram import (CylinderSet, Diagnostic, HeightVector, PathWord,
                      StationaryDiagram, check_path, enumerate_paths, heights,
                      telescope, validate)
from .documents import (MeasureRecord, measure_record, parse_coefficients,
                        parse_diagram, parse_measures, parse_scalar,
                        parse_substitution, render_scalar,
                        serialize_coefficients, serialize_diagram,
                        serialize_measures, serialize_substitution)
from .errors import (AmbiguousComparison, BratteliError, CapExceeded,
                     DimensionMismatch, EndpointMismatch, NotAperiodicError,
                     NotDistinguishedError, NotGrowingError, NotInDomainError,
                     ParseError, PrimitivityError, SizeRefused, ZeroBlockError,
                     ZeroMeasureCylinder)
from .measures import (ErgodicMeasure, InvariantMeasure, TailMeasure,
                       borel_invariant, enumerate_ergodic, enumerate_infinite,
                       mass_proxy, measure_from_point, measure_of_cylinder,
                       minimal_components, support_classes,
                       tail_measure_of_cylinder, tail_valuation,
                       truncated_extension)
from .oracle import (AsymptoticsReport, CoreOracleResult, InvarianceReport,
                     OrbitFrequency, asymptotics_check, brute_force_Q,
                     core_preimage_oracle, empirical_orbit_frequency,
                     verify_invariance, verify_measures)
from .spectral import (AperiodicityResult, ComponentClass,
                       ComponentDecomposition, CoreVerdict, Eigendata,
                       NumericValue, aperiodicity_check, check_primitive,
                       core_membership, decompose, distinguished_classes,
                       distinguished_eigenvector, imprimitivity_index,
                       nv_compare, perron_pair, positivity_power,
                       spectral_radius, telescope_to_primitive)
from .substitution import (GrowthReport, Substitution, SubstitutionMeasures,
                           diagram_from_substitution, expand, growth_check,
                           letter_frequencies, substitution_from_diagram,
                           substitution_matrix, substitution_measures)
from .vershik import (Diamond, EigenvalueVerdict, Leg, NonmixingReport,
                      OrderedDiagram, PSequence, candidate_count, candidate_thetas,
                      default_window, eigenvalue_check, eigenvalue_search,
                      enumerate_diamonds, is_decisive, is_maximal, make_diamond,
                      max_path, min_path, nonmixing_witness, p_sequence,
                      p_value, path_rank, q_steps, rational_eigenvalue_sufficient,
                      recurrence_coefficients, successor, telescope_ordered)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
