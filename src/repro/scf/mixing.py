"""Anderson/Pulay mixing for fixed-point iterations.

Used in two places, exactly as in the paper:

* ground-state SCF mixes the charge density;
* PT-IM mixes the *wavefunctions and sigma* of the implicit-midpoint
  fixed-point problem (Alg. 1 line 8), treating the concatenated complex
  degrees of freedom as one vector.

Anderson (1965) mixing: given history pairs ``(x_k, g(x_k))`` with
residuals ``f_k = g(x_k) - x_k``, minimize ``|Σ c_k f_k|`` subject to
``Σ c_k = 1`` and take ``x_next = Σ c_k (x_k + beta f_k)``.  The
least-squares problem is tiny (history <= 20 in the paper).

Incremental formulation.  :class:`AndersonMixer` keeps two ring buffers
of shape ``(history, n)`` — the residuals ``f_k`` and the damped
iterates ``y_k = x_k + beta f_k`` — and the ``history x history`` Gram
matrix ``G_ij = <f_i, f_j>``.  A call writes one row of each buffer,
refreshes one row/column of ``G`` with a single GEMV over the residual
buffer, assembles the constrained normal equations from ``G`` alone
(``m`` is the newest entry, eliminated through ``c_m = 1 - Σ c_i``)::

    A_ij = G_ij - G_im - G_mj + G_mm        b_i = G_mm - G_im

solves the ``(m-1) x (m-1)`` system and returns ``c @ Y`` with a second
GEMV.  Per call that is two passes over the live history (``2 m n``
multiply-adds) plus the two O(n) row writes, and two length-``n``
temporaries; nothing of size ``m n`` is allocated after the first call.
(The stack-and-solve formulation it replaces, kept as the oracle in
``tests/test_scf_solvers.py``, made ``m + 6`` passes and an ``m^2 n``
Gram product per call.)

Round-off.  Forming ``A`` by differencing ``G`` instead of from the
differences ``f_i - f_m`` loses to cancellation an absolute
``~1e-16 max G`` per entry.  The Tikhonov term added to the diagonal is
``1e-12 tr A / m``, and ``tr A = Σ |f_i - f_m|^2 >= (max|f| - |f_m|)^2``,
which is of the order of ``max G`` whenever the iteration has made
progress (the newest residual is not the largest in the history).  The
regularization the solve already carries is then ``~1e-12 max G / m``,
some 500 times the differencing error at ``m = 20``, so the two
formulations agree far inside the fixed-point tolerances they serve.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.trace import traced
from repro.utils.validation import require


class LinearMixer:
    """Simple damped mixing: ``x <- x + beta (g(x) - x)``."""

    def __init__(self, beta: float = 0.3) -> None:
        require(0.0 < beta <= 1.0, "beta must be in (0, 1]")
        self.beta = beta

    def mix(self, x: np.ndarray, gx: np.ndarray) -> np.ndarray:
        return x + self.beta * (gx - x)


class AndersonMixer:
    """Anderson acceleration with bounded history.

    Parameters
    ----------
    history:
        Maximum stored iterates (paper: 20).
    beta:
        Damping applied to the mixed residual.
    regularization:
        Tikhonov parameter for the small least-squares solve.
    """

    def __init__(self, history: int = 20, beta: float = 0.5, regularization: float = 1e-12) -> None:
        require(history >= 1, "history must be >= 1")
        require(0.0 < beta <= 1.0, "beta must be in (0, 1]")
        self.history = history
        self.beta = beta
        self.regularization = regularization
        self._f: Optional[np.ndarray] = None  # (history, n) ring of residuals f_k
        self._y: Optional[np.ndarray] = None  # (history, n) ring of x_k + beta f_k
        self._gram: Optional[np.ndarray] = None  # (history, history) <f_i, f_j>
        self._count = 0  # calls since reset(); call k writes ring slot k % history

    def reset(self) -> None:
        """Forget the history; the buffers stay allocated for the next loop."""
        self._count = 0

    @traced("scf.anderson_mix")
    def mix(self, x: np.ndarray, gx: np.ndarray) -> np.ndarray:
        """Produce the next iterate from ``x`` and the map output ``g(x)``.

        Works on arrays of any shape and real/complex dtype; the history
        is stored flattened.  The inputs are not modified and the result
        is a fresh array.
        """
        shape = np.shape(x)
        xf = np.asarray(x).ravel()
        gf = np.asarray(gx).ravel()
        dtype = np.result_type(xf, gf, self.beta)
        if self._f is None or self._f.shape[1] != xf.size or self._f.dtype != dtype:
            require(self._count == 0, "mix() input changed size or dtype; call reset() first")
            self._f = np.empty((self.history, xf.size), dtype=dtype)
            self._y = np.empty_like(self._f)
            self._gram = np.zeros((self.history, self.history), dtype=dtype)
        f_ring, y_ring, gram = self._f, self._y, self._gram

        k = self._count % self.history  # slot of the newest entry
        m = min(self._count + 1, self.history)  # live entries: slots 0..m-1
        self._count += 1

        f = f_ring[k]
        np.subtract(gf, xf, out=f)
        y = y_ring[k]
        np.multiply(f, self.beta, out=y)
        y += xf

        row = f_ring[:m] @ f.conj()  # row[j] = <f_k, f_j>
        gram[k, :m] = row
        gram[:m, k] = row.conj()
        gram[k, k] = row[k].real
        if m == 1:
            return y.copy().reshape(shape)

        # minimize |F c| with sum(c) = 1: substitute c_m = 1 - sum(c_1..m-1).
        # Oldest entry first, newest last, as a stacked history would be.
        order = np.roll(np.arange(m), -(k + 1))
        g = gram[np.ix_(order, order)]
        a = g[:-1, :-1] - g[:-1, -1:] - g[-1:, :-1] + g[-1, -1]
        a += self.regularization * np.trace(a).real / max(a.shape[0], 1) * np.eye(a.shape[0])
        b = g[-1, -1] - g[:-1, -1]
        try:
            coef = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            coef = np.linalg.lstsq(a, b, rcond=None)[0]
        c = np.empty(m, dtype=dtype)
        c[order[:-1]] = coef
        c[k] = 1.0 - coef.sum()
        return (c @ y_ring[:m]).reshape(shape)


class KerkerMixer:
    """Kerker-preconditioned density mixing for metallic/large cells.

    Damps long-wavelength charge sloshing by scaling the residual in G
    space with ``G^2 / (G^2 + q0^2)`` before Anderson acceleration —
    important for the paper's metallic finite-temperature systems.
    """

    def __init__(self, grid, q0: float = 1.0, history: int = 20, beta: float = 0.5) -> None:
        self.grid = grid
        self.q0 = q0
        self.anderson = AndersonMixer(history=history, beta=beta)
        g2 = 2.0 * grid.kinetic_flat
        self._filter = g2 / (g2 + q0 * q0)
        self._filter[g2 <= 1e-12] = 0.0

    def reset(self) -> None:
        self.anderson.reset()

    @traced("scf.kerker_mix")
    def mix(self, rho: np.ndarray, rho_new: np.ndarray) -> np.ndarray:
        resid = rho_new - rho
        resid_g = self.grid.r_to_g(resid.astype(complex), consume=True) * self._filter
        damped = self.grid.g_to_r(resid_g, consume=True).real
        ne = rho.sum()
        out = self.anderson.mix(rho, rho + damped)
        out = np.maximum(out, 0.0)
        # restore the electron count lost to filtering/clipping
        s = out.sum()
        if s > 0:
            out *= ne / s
        return out
