"""Small argument-validation helpers used across the package.

These raise early with informative messages instead of letting numpy
broadcast errors surface deep inside a propagation step.
"""

from __future__ import annotations

import numbers

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def is_int(value) -> bool:
    """An integer setting; ``True`` is not ``1`` (in a config it would hash apart)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A number setting, not coerced: ``3`` stays ``3``; a boolean or a string is refused."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_square(mat: np.ndarray, name: str = "matrix") -> int:
    """Check ``mat`` is a square 2-D array; return its dimension."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square 2-D, got shape {mat.shape}")
    return mat.shape[0]


def check_hermitian(mat: np.ndarray, name: str = "matrix", atol: float = 1e-10) -> None:
    """Check ``mat`` equals its conjugate transpose within ``atol``."""
    check_square(mat, name)
    dev = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
    if dev > atol:
        raise ValueError(f"{name} is not Hermitian (max deviation {dev:.3e} > {atol:.1e})")


def check_unitary(mat: np.ndarray, name: str = "matrix", atol: float = 1e-8) -> None:
    """Check ``mat`` is unitary within ``atol``."""
    n = check_square(mat, name)
    dev = np.abs(mat.conj().T @ mat - np.eye(n)).max()
    if dev > atol:
        raise ValueError(f"{name} is not unitary (max deviation {dev:.3e} > {atol:.1e})")
