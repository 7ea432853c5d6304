"""Shared helpers: validation, atomic IO, deterministic RNG."""

from repro.utils.validation import (
    check_hermitian,
    check_square,
    check_unitary,
    require,
)
from repro.utils.rng import default_rng

__all__ = [
    "check_hermitian",
    "check_square",
    "check_unitary",
    "require",
    "default_rng",
]
