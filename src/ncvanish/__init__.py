"""Exact certificates for vanishing-set problems of nc polynomials.

The package decides membership questions about noncommutative polynomials
evaluated on matrix tuples (left and two-sided ideals, trace and span
conditions, composition, factorization, stable associativity) and backs every
positive or negative answer with a certificate that re-verifies on its own.
A numerical lab searches for low-rank matrix values and promotes float
candidates to exact rational witnesses.

Import the module you need (`ncvanish.certify`, `ncvanish.factorization`,
`ncvanish.lowrank` for the engines, `ncvanish.serialize` for documents and
`verify_certificate`).  Importing the package loads only `poly`, `linalg`
and `evaluate`: the verifier's trusted base stays free of the engines and of
numpy.
"""

from .evaluate import MatTuple, classify_point, eval_poly
from .linalg import QVector
from .poly import parse

__version__ = "0.1.0"
