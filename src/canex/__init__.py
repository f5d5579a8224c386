"""Uniform random canonical implicative expressions and their classification."""

from .classical import (NOT_TAUTOLOGY, TAUTOLOGY, UNKNOWN, TautologyStatus,
                        evaluate, falsify_search, is_simple_antilogy,
                        is_simple_non_tautology, tautology_status)
from .counting import (bell, catalan, count_canonical, lambert_root,
                       log10_count_estimate, stam_table)
from .experiment import (DEFAULT_SEED, Classification, ExperimentConfig,
                         ExperimentReport, classify, emit_report, rn_table,
                         run_experiment, simple_rate)
from .intuition import (IntuitVerdict, cheap_verdict, clean, is_cheap, is_easy,
                        is_minor, is_mp, is_simple)
from .reference import (all_growth_strings, all_shapes, chi_square,
                        enumerate_canonical, prove_intuitionistic,
                        truth_table_tautology)
from .sampling import (ClassDescription, SplitMix64, random_canonical,
                       random_partition, random_tree, random_tree_vector,
                       stream_for_sample, to_growth_string)
from .terms import (CanonicalityError, ParseError, RemyVectorError, Spine, Term,
                    attach_vars, canonical_form, canonicalize,
                    decode_remy_vector, from_json_obj, is_canonical,
                    is_valid_growth_string, leaf_count, leaf_vars, parse,
                    render, shape_of, spine, to_json_obj)

__version__ = "0.1.0"
