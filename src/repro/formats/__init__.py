"""Sparse-matrix storage formats (Section 2.1 of the paper).

The four basic formats — CSR, COO, DIA, ELL — are implemented from scratch
on top of NumPy arrays, with the exact memory layouts the paper's Figure 2
uses (DIA is diagonal-major indexed by row; ELL is column-major).  They are
the ``Cn(DIA, ELL, CSR, COO)`` classes of Equation 1.
"""

from repro.formats.base import SparseMatrix
from repro.formats.convert import ConversionCost, convert, conversion_cost
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.ell import ELLMatrix

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "ConversionCost",
    "DIAMatrix",
    "ELLMatrix",
    "SparseMatrix",
    "conversion_cost",
    "convert",
]
