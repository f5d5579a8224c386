"""Uniform random canonical implicative expressions and their classification."""

from . import (classical, counting, experiment, intuition, reference,  # noqa: F401
               sampling, terms)

__version__ = "0.1.0"
