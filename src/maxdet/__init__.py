"""Lower bounds on maximal determinants of sign matrices.

Builds Hadamard and conference matrices, enumerates achievable Hadamard
orders, borders a core matrix with random sign columns and a greedy sign
corner, and evaluates the resulting exact determinant lower bounds on
D(n)/n^(n/2) alongside the closed-form bounds.  Import each name from the
module that defines it (``maxdet.constructions``, ``maxdet.sieve``,
``maxdet.border``, ``maxdet.bounds``, ``maxdet.exact``); this package root
imports none of them, so ``import maxdet`` does not import numpy.
"""

__version__ = "0.1.0"
