"""Markovian loop measures, Poisson loop ensembles, and the homotopy and
homology distributions of their loops, on finite weighted graphs."""

from .errors import ConfigError, NumericError, ValidationError
from .graphs import (GraphModel, SpanningTreeFrame, build_graph, load_graph,
                     parse_graph, spanning_tree_frame)
from .freegroup import (TRIVIAL, BasedLoop, GeodesicClass, Word,
                        canonical_class, crossing_word, cyclic_reduce,
                        enumerate_geodesic_classes, format_word,
                        geodesic_representative, group_commutator,
                        inverse_word, loop_to_word, min_rotation,
                        multiplicity, parse_word, reduce_word)
from .signature import (H3Key, LiePoly, TensorSeries, bracket_expansion,
                        currents, degree_and_lead, dynkin_map, h3_from_lie,
                        h3_slot_bracket, h3_slots, homology1, homology2, homology3,
                        is_lie_component, iterated_crossing_coefficient,
                        lie_bracket, lie_polynomial_via_currents, log_signature,
                        lyndon_coordinates, lyndon_words, shuffle_check,
                        shuffle_product, signature, standard_factorization,
                        witt_dimension)
from .soup import (EnumeratedMeasure, LoopSoupSampler, MeasureConfig,
                   OccupationField, SampledSoup, dumps_soup, enumerate_measure,
                   occupation, parse_soup, sample_soup, spectral_radius,
                   tail_bound, total_mass, truncated_mass, winding_masses)
from .spectra import (IharaSeries, RegularForms, RhoTable, class_intensity,
                      contractible_intensity, ihara_check,
                      regular_closed_forms, solve_rho)
from .fourier import (GroupData, NilpotentRep, group_data,
                      holonomy_class_intensities, homology1_field_law,
                      homology1_grid, homology1_intensity,
                      homology2_field_law, homology2_intensity,
                      nilpotent_rep, twisted_log_det)

__version__ = "0.1.0"
