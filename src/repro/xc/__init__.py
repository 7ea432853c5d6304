"""Exchange-correlation: LDA (PZ81) semilocal part + screened-hybrid kernels."""

from repro.xc.lda import lda_exchange, pz81_correlation, lda_xc
from repro.xc.kernels import (
    bare_coulomb_kernel,
    erfc_screened_kernel,
    exchange_kernel,
)
from repro.xc.hybrid import HybridFunctional, SemilocalFunctional

__all__ = [
    "lda_exchange",
    "pz81_correlation",
    "lda_xc",
    "bare_coulomb_kernel",
    "erfc_screened_kernel",
    "exchange_kernel",
    "HybridFunctional",
    "SemilocalFunctional",
]
