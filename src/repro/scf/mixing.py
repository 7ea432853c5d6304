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
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.utils.validation import require


class LinearMixer:
    """Simple damped mixing: ``x <- x + beta (g(x) - x)``."""

    def __init__(self, beta: float = 0.3) -> None:
        require(0.0 < beta <= 1.0, "beta must be in (0, 1]")
        self.beta = beta

    def mix(self, x: np.ndarray, gx: np.ndarray) -> np.ndarray:
        return x + self.beta * (gx - x)

    def reset(self) -> None:  # interface parity with AndersonMixer
        pass


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
        self._xs: List[np.ndarray] = []
        self._fs: List[np.ndarray] = []

    def reset(self) -> None:
        self._xs.clear()
        self._fs.clear()

    def mix(self, x: np.ndarray, gx: np.ndarray) -> np.ndarray:
        """Produce the next iterate from ``x`` and the map output ``g(x)``.

        Works on arrays of any shape and real/complex dtype; the history
        is stored flattened.
        """
        shape = x.shape
        xf = np.asarray(x).ravel()
        ff = np.asarray(gx).ravel() - xf

        self._xs.append(xf.copy())
        self._fs.append(ff.copy())
        if len(self._xs) > self.history:
            self._xs.pop(0)
            self._fs.pop(0)

        m = len(self._xs)
        if m == 1:
            out = xf + self.beta * ff
            return out.reshape(shape)

        # minimize |F c| with sum(c) = 1: substitute c_m = 1 - sum(c_1..m-1)
        f_mat = np.stack(self._fs, axis=1)  # (n, m)
        df = f_mat[:, :-1] - f_mat[:, -1:]
        rhs = -f_mat[:, -1]
        a = df.conj().T @ df
        a += self.regularization * np.trace(a).real / max(a.shape[0], 1) * np.eye(a.shape[0])
        b = df.conj().T @ rhs
        try:
            coef = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            coef = np.linalg.lstsq(df, rhs, rcond=None)[0]
        c = np.empty(m, dtype=f_mat.dtype)
        c[:-1] = coef
        c[-1] = 1.0 - coef.sum()

        # dead from here on: release its (n, m-1) block before the next
        # (n, m) one is stacked, so the peak holds four of them, not five
        del df
        x_mat = np.stack(self._xs, axis=1)
        x_opt = x_mat @ c
        f_opt = f_mat @ c
        out = x_opt + self.beta * f_opt
        return out.reshape(shape)


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
        g2 = grid.to_flat(grid.gvec.g2[None])[0]
        self._filter = g2 / (g2 + q0 * q0)
        self._filter[g2 <= 1e-12] = 0.0

    def reset(self) -> None:
        self.anderson.reset()

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
