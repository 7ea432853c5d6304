"""The plane-wave grid: one grid carries orbitals and density.

PWDFT (Sec. VI) uses a wavefunction grid and a density grid twice as fine
per dimension (e.g. 1536 atoms: 60x90x120 wavefunction grid, 120x180x240
density grid).  At the scales this reproduction runs numerically, a single
grid for both is accurate enough and halves memory, so orbitals,
densities and potentials all live on :class:`PlaneWaveGrid`'s one
``shape`` with quadrature weight ``dv``.

Wavefunction storage convention.  At the API boundary (``TDState.phi``,
``GroundState.orbitals``, result and checkpoint files, the Fock operators)
an orbital block is a complex ``(nbands, ngrid)`` array of *real-space*
rows, C-ordered so each band is contiguous.  Inside the solvers
(``Hamiltonian.apply``, ``davidson``, the PT-IM fixed point) it is a
**sphere block** ``(nbands, npw)``: the plane-wave coefficients on
:attr:`PlaneWaveGrid.sphere_index`, *unitary-scaled*
``c~_G = sqrt(ngrid) c_G`` (``c_G`` the ``1/ngrid``-normalized amplitude
:meth:`r_to_g` returns).  With that scaling the two transforms
:meth:`PlaneWaveGrid.to_real` / :meth:`PlaneWaveGrid.to_sphere` are
isometries, so :meth:`PlaneWaveGrid.inner` (quadrature weight
``dV = volume / ngrid``, ``<phi|phi> = dV * sum |phi|^2``), Löwdin, and
the Anderson metric over ``(Phi, sigma)`` are verbatim the same numbers
on either representation (Parseval) while touching ``npw / ngrid`` (~15 %)
of the data.  PWDFT's bare ``1/ngrid`` coefficients would re-weight
``Phi`` against ``sigma`` inside the mixer's least squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.backend import Backend
from repro.grid.cell import UnitCell
from repro.grid.gvectors import GVectors, minimal_fft_shape
from repro.trace import traced
from repro.utils.validation import require


@dataclass
class PlaneWaveGrid:
    """Γ-point plane-wave discretization of a cell.

    Parameters
    ----------
    cell:
        Periodic cell.
    ecut:
        Wavefunction kinetic-energy cutoff (hartree).
    shape:
        FFT grid; computed from ``ecut`` if omitted.
    backend:
        FFT engine (:class:`repro.backend.Backend`).  Defaults to a
        *fresh* counting engine owned by this grid, so FFT tallies are
        per-grid instead of process-global.
    """

    cell: UnitCell
    ecut: float
    shape: Optional[Tuple[int, int, int]] = None
    backend: Optional[Backend] = None

    def __post_init__(self) -> None:
        require(self.ecut > 0.0, "ecut must be positive")
        if self.shape is None:
            self.shape = minimal_fft_shape(self.cell, self.ecut, factor=1.0)
        self.shape = tuple(int(n) for n in self.shape)
        if self.backend is None:
            self.backend = Backend()
        self.gvec = GVectors(self.cell, self.shape, self.ecut)

    # -- sizes (``shape`` is fixed after ``__post_init__``: computed once) -----
    @cached_property
    def ngrid(self) -> int:
        """Number of grid points (the paper's Ng)."""
        return int(np.prod(self.shape))

    @cached_property
    def dv(self) -> float:
        """Real-space quadrature weight."""
        return self.cell.volume / self.ngrid

    @property
    def npw(self) -> int:
        """Plane waves inside the cutoff sphere."""
        return self.gvec.npw

    # -- reshaping helpers -----------------------------------------------------
    def to_box(self, flat: np.ndarray) -> np.ndarray:
        """View a ``(..., ngrid)`` array as ``(..., n1, n2, n3)``."""
        return flat.reshape(flat.shape[:-1] + self.shape)

    def to_flat(self, box: np.ndarray) -> np.ndarray:
        """View a ``(..., n1, n2, n3)`` array as ``(..., ngrid)``."""
        return box.reshape(box.shape[:-3] + (self.ngrid,))

    # -- transforms -----------------------------------------------------------
    @staticmethod
    def _inplace_out(box: np.ndarray) -> Optional[np.ndarray]:
        """The box itself when it can legally receive its own transform."""
        if box.dtype == np.complex128 and box.flags.writeable:
            return box
        return None

    def r_to_g(self, fr: np.ndarray, *, consume: bool = False) -> np.ndarray:
        """Real space ``(..., ngrid)`` -> G space ``(..., ngrid)`` (flat).

        ``consume=True`` declares ``fr`` a temporary the caller no longer
        needs: the backend may transform it in place (the multi-batch
        fast path — pair densities in the Fock operator are all
        temporaries).  Values are identical either way.
        """
        box = self.to_box(np.asarray(fr))
        out = self._inplace_out(box) if consume else None
        return self.to_flat(self.backend.forward(box, out=out))

    def g_to_r(self, fg: np.ndarray, *, consume: bool = False) -> np.ndarray:
        """G space -> real space (inverse of :meth:`r_to_g`)."""
        box = self.to_box(np.asarray(fg))
        out = self._inplace_out(box) if consume else None
        return self.to_flat(self.backend.backward(box, out=out))

    # -- the cutoff sphere: cached tables and the two orbital transforms ---------
    @cached_property
    def sphere_index(self) -> np.ndarray:
        """Flat grid indices of the ``npw`` plane waves inside the cutoff sphere."""
        return np.flatnonzero(self.gvec.sphere_mask)

    @cached_property
    def kinetic_flat(self) -> np.ndarray:
        """``|G|^2 / 2`` on the flat grid, shape ``(ngrid,)``."""
        return self.gvec.kinetic.ravel()

    @cached_property
    def coulomb_kernel(self) -> np.ndarray:
        """The Hartree ``4π/G²`` on the flat grid, G = 0 dropped; read-only."""
        g2 = self.gvec.g2.ravel()
        with np.errstate(divide="ignore"):
            kernel = np.where(g2 > 1e-12, 4.0 * np.pi / g2, 0.0)
        kernel.flags.writeable = False
        return kernel

    @cached_property
    def kinetic_sphere(self) -> np.ndarray:
        """``|G|^2 / 2`` of the sphere's plane waves, shape ``(npw,)``."""
        return self.kinetic_flat[self.sphere_index]

    def to_real(self, c: np.ndarray) -> np.ndarray:
        """Sphere block ``(..., npw)`` -> real-space rows ``(..., ngrid)``.

        Scatter into a zeroed box, one batched ``backward``.
        """
        fg = np.zeros(c.shape[:-1] + (self.ngrid,), dtype=complex)
        fg[..., self.sphere_index] = c * (1.0 / np.sqrt(self.ngrid))
        return self.g_to_r(fg, consume=True)

    def to_sphere(self, fr: np.ndarray, *, consume: bool = False) -> np.ndarray:
        """Real-space rows ``(..., ngrid)`` -> sphere block ``(..., npw)``.

        One batched ``forward``, then gather: components outside the
        sphere are dropped, so ``to_real(to_sphere(f))`` is
        :meth:`low_pass` and the identity on band-limited blocks.
        ``consume`` as in :meth:`r_to_g`.
        """
        c = self.r_to_g(fr, consume=consume)[..., self.sphere_index]
        c *= np.sqrt(self.ngrid)
        return c

    def apply_cutoff(self, fg_flat: np.ndarray) -> np.ndarray:
        """Zero G-space coefficients outside the cutoff sphere (in place)."""
        kept = fg_flat[..., self.sphere_index]
        fg_flat[...] = 0.0
        fg_flat[..., self.sphere_index] = kept
        return fg_flat

    def low_pass(self, fr: np.ndarray) -> np.ndarray:
        """Project a real-space field onto the cutoff sphere."""
        return self.to_real(self.to_sphere(fr))

    # -- linear algebra on orbital blocks ---------------------------------------
    @traced("grid.inner")
    def inner(self, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
        """Overlap block ``<bra_i|ket_j>`` with quadrature weight.

        ``bra, ket``: real-space rows ``(nbands, ngrid)`` or sphere blocks
        ``(nbands, npw)`` (same value, see the module docstring).
        Returns an ``(nb, nk)`` complex matrix.
        """
        return (bra.conj() @ ket.T) * self.dv

    def random_orbitals(self, nbands: int, rng: np.random.Generator) -> np.ndarray:
        """Random band block restricted to the cutoff sphere, orthonormalized."""
        fg = rng.standard_normal((nbands, self.ngrid)) + 1j * rng.standard_normal(
            (nbands, self.ngrid)
        )
        self.apply_cutoff(fg)
        phi = self.g_to_r(fg)
        # Löwdin-free: QR on the coefficient matrix is stable enough here
        q, _ = np.linalg.qr(phi.T)
        return np.ascontiguousarray(q.T) / np.sqrt(self.dv)
