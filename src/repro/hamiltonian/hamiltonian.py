"""The time-dependent Kohn–Sham Hamiltonian ``H[P] = T + V_ext + V_Hxc + alpha V_x``.

One object carries all fixed pieces (ionic local potential, nonlocal
projectors, kinetic diagonal, exchange kernel) and the mutable state that
changes during SCF / propagation:

* the density-dependent effective potential (:meth:`update_density`);
* the vector potential A(t) of the laser (:meth:`set_time`);
* the exact-exchange configuration (:meth:`set_exchange_sources` /
  :meth:`set_ace`): the dense exchange of sigma's eigenbasis image (Sec.
  IV-A1) or the compressed ACE operator.  The Alg. 2 triple loop is a
  test oracle (``tests/oracles.py``), not a mode.  The dense ``H``, an
  ACE build and the exchange energy reach the dense exchange through
  :meth:`dense_exchange`.

``apply`` evaluates ``H Phi`` for a band block — the operation the whole
paper optimizes.  It is the one implementation of ``H`` and works on
sphere blocks (``grid/fftgrid.py``); ``apply_real`` wraps it between the
two transforms for callers that hold real-space rows.
"""

from __future__ import annotations

from typing import Literal, Optional, Tuple

import numpy as np

from repro.constants import SPIN_DEGENERACY
from repro.grid.fftgrid import PlaneWaveGrid
from repro.hamiltonian.ace import ACEOperator
from repro.hamiltonian.fock import FockExchangeOperator
from repro.hamiltonian.kinetic import KineticOperator
from repro.hartree.poisson import hartree_energy, hartree_potential
from repro.pseudo.local import LocalPseudopotential
from repro.pseudo.nonlocal_ import NonlocalPseudopotential
from repro.trace import traced
from repro.utils.validation import require
from repro.xc.hybrid import HybridFunctional, SemilocalFunctional

ExchangeMode = Literal["none", "dense-diag", "ace"]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """``a`` and ``b`` hold the same bytes in the same shape and dtype."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.array_equal(np.ascontiguousarray(a).view(np.uint8), b.view(np.uint8))


class Hamiltonian:
    """Plane-wave Kohn–Sham Hamiltonian for one cell + functional.

    Parameters
    ----------
    grid:
        Plane-wave discretization (holds the cell).
    functional:
        :class:`SemilocalFunctional` or :class:`HybridFunctional`.
    field:
        Optional laser field providing ``vector_potential(t)``.
    degeneracy:
        Electrons per orbital (2 for the paper's spin-restricted setup).
    """

    @traced("hamiltonian.init")
    def __init__(
        self,
        grid: PlaneWaveGrid,
        functional: SemilocalFunctional | HybridFunctional,
        field=None,
        degeneracy: float = SPIN_DEGENERACY,
        fock_batch_size: int = 16,
        fock_factory=None,
    ) -> None:
        self.grid = grid
        self.cell = grid.cell
        self.functional = functional
        self.field = field
        self.degeneracy = float(degeneracy)

        self.local_pseudo = LocalPseudopotential(grid)
        self.nonlocal_pseudo = NonlocalPseudopotential(grid)
        self.kinetic = KineticOperator(grid)
        if functional.is_hybrid:
            # ``fock_factory`` (grid, kernel_g, batch_size) -> operator lets
            # callers substitute a FockExchangeOperator subclass — the
            # band-parallel DistributedFockExchange
            factory = FockExchangeOperator if fock_factory is None else fock_factory
            self.fock = factory(grid, functional.kernel(grid), fock_batch_size)
        else:
            self.fock = None

        # mutable state
        self.v_eff: np.ndarray = self.local_pseudo.v_real.copy()
        self.v_hartree: Optional[np.ndarray] = None
        self.v_xc: Optional[np.ndarray] = None
        self.rho: Optional[np.ndarray] = None
        self.e_hartree: float = 0.0
        self.e_xc_semilocal: float = 0.0
        self.time: float = 0.0

        self.exchange_mode: ExchangeMode = "none"
        # (phi~, d): sigma's eigenbasis rows and eigenvalues
        self._exx_sources: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._ace: Optional[ACEOperator] = None
        # the last dense self-application: copies of its (phi~, d), and V_x phi~
        self._dense_record: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # -- electron count -------------------------------------------------------
    @property
    def n_electrons(self) -> float:
        """Valence electrons in the cell (from pseudopotential charges)."""
        return self.local_pseudo.zion_total

    # -- density-dependent pieces ------------------------------------------------
    @traced("hamiltonian.update_density")
    def update_density(self, rho: np.ndarray) -> None:
        """Rebuild ``V_H + V_xc`` (and their energies) from a real density."""
        require(rho.shape == (self.grid.ngrid,), "density must be flat on the grid")
        rho = np.asarray(rho, dtype=float)
        self.rho = rho
        self.v_hartree = hartree_potential(self.grid, rho)
        eps_xc, v_xc = self.functional.semilocal(rho)
        self.v_xc = v_xc
        self.v_eff = self.local_pseudo.v_real + self.v_hartree + self.v_xc
        self.e_hartree = hartree_energy(self.grid, rho, self.v_hartree)
        self.e_xc_semilocal = float(np.dot(rho, eps_xc)) * self.grid.dv

    # -- time-dependent external field ---------------------------------------------
    def set_time(self, t: float) -> None:
        """Move the Hamiltonian to time ``t`` (updates A(t) in the kinetic)."""
        self.time = float(t)
        if self.field is not None:
            self.kinetic.set_vector_potential(self.field.vector_potential(t))

    # -- exact exchange configuration --------------------------------------------
    def set_exchange_sources(self, phi: np.ndarray, d: np.ndarray) -> None:
        """Fix the density matrix ``P = Phi sigma Phi*`` defining the dense
        V_x, given as sigma's eigenbasis image (paper Fig. 2(b),
        :mod:`repro.occupation.sigma`): real-space rows ``phi~ = Phi Q``
        and the eigenvalues ``d``.  The rows are the sources as given, and
        their self-application needs no rotation.  The dense exchange acts
        on these rows only, recognized by identity: :meth:`apply` must be
        handed this very array as ``phi_r``, so do not modify it in place
        between this call and :meth:`apply`.
        """
        require(self.functional.is_hybrid, "exchange sources need a hybrid functional")
        require(np.ndim(d) == 1, "exchange sources take sigma's eigenvalues; decompose sigma first")
        self._exx_sources = (phi, d)
        self.exchange_mode = "dense-diag"
        self._ace = None

    def set_ace(self, ace: ACEOperator) -> None:
        """Use a prebuilt compressed exchange operator (inner-SCF fast path)."""
        require(self.functional.is_hybrid, "ACE needs a hybrid functional")
        self._ace = ace
        self.exchange_mode = "ace"
        self._exx_sources = None

    def clear_exchange(self) -> None:
        self.exchange_mode = "none"
        self._exx_sources = None
        self._ace = None

    @traced("hamiltonian.build_ace")
    def build_ace(
        self, phi: np.ndarray, d: np.ndarray, c: Optional[np.ndarray] = None
    ) -> ACEOperator:
        """Construct an ACE operator from the dense action on ``phi``.

        This is the outer-SCF "ACE preparation" step of Fig. 4(b): one
        dense (N^2-FFT) self-application on the real-space rows ``phi``,
        then compression on the sphere (``c`` is the sphere image of
        ``phi`` when the caller has it; ``W`` is packed here, once).
        ``(phi, d)`` is sigma's eigenbasis image, as in
        :meth:`set_exchange_sources`.  ``V_ACE = W (Phi* W)^-1 W*`` does
        not change when its generating block is rotated by a unitary, so
        this is the operator of ``(Phi, sigma)``.
        """
        require(self.fock is not None, "ACE requires a hybrid functional")
        w = self.dense_exchange(phi, d)
        c = self.grid.to_sphere(phi) if c is None else c
        # a read-only W (the record's) is transformed out of place
        return ACEOperator.from_dense_action(self.grid, c, self.grid.to_sphere(w, consume=True))

    # -- exchange application -------------------------------------------------------
    def dense_exchange(self, phi: np.ndarray, d: np.ndarray) -> np.ndarray:
        """``V_x phi`` (no alpha) of the dense exchange on its own sources,
        sigma's eigenbasis image ``(phi, d)``: the Hamiltonian's one entry
        to the dense self-application, returned read-only.

        ``V_x`` depends on ``(phi, d)`` and the fixed kernel alone — not on
        the density, the time or A(t) — so a request bit-identical to the
        last one (shape included) is answered from a one-entry record with
        no transform and no communication: a recorded energy's application
        is the one the next step starts from.  The record keeps copies of
        the request, and ``d`` is compared first, so a miss costs almost
        nothing.  The kernel, ``self.fock.apply_diag``, keeps no record.
        """
        require(self.fock is not None, "the dense exchange needs a hybrid functional")
        d = np.asarray(d, dtype=float)
        record = self._dense_record
        if record is not None and _same_bits(d, record[1]) and _same_bits(phi, record[0]):
            return record[2]
        vx = self.fock.apply_diag(phi, d)
        vx.flags.writeable = False
        self._dense_record = (phi.copy(), d.copy(), vx)
        return vx

    def exchange_energy(self, phi: np.ndarray, d: np.ndarray) -> float:
        """``E_x`` (no alpha) of sigma's eigenbasis image ``(phi, d)``, from
        :meth:`dense_exchange`'s ``V_x phi``: the SCF's outer-loop measure
        and the total energy's exchange term read it alike."""
        vx = self.dense_exchange(phi, d)
        return self.fock.exchange_energy(phi, d, self.degeneracy, vx_phi=vx)

    def apply_exchange(self, phi_r: np.ndarray) -> Optional[np.ndarray]:
        """``alpha * V_x phi`` in real space for the dense exchange; ``None``
        when there is no dense exchange to add (semilocal, cleared, ACE —
        the compressed operator acts on the sphere inside :meth:`apply`,
        on any block).  The dense exchange applies only to the block that
        defines ``P``: ``phi_r`` must be the array given to
        :meth:`set_exchange_sources`."""
        if self.exchange_mode != "dense-diag":
            return None
        src, d = self._exx_sources
        require(
            phi_r is src,
            "the dense exchange applies only to the very rows given to "
            "set_exchange_sources; use set_ace to apply exchange to another block",
        )
        return self.functional.alpha * self.dense_exchange(src, d)

    # -- full application ---------------------------------------------------------
    @traced("hamiltonian.apply")
    def apply(
        self,
        c: np.ndarray,
        phi_r: Optional[np.ndarray] = None,
        *,
        include_exchange: bool = True,
    ) -> np.ndarray:
        """``H Phi`` for a sphere block ``(nb, npw)``, as a sphere block.

        ``T c + V_nl c + gather(FFT(v_eff phi_r + alpha V_x^dense phi_r))
        + alpha V_ACE c``: the kinetic diagonal, the projectors and the
        ACE vectors act on the sphere, real space is visited for the
        local product and the dense exchange only.  Gathering is the
        cutoff projection — the operator diagonalized/propagated is
        ``P_ecut H P_ecut``, the standard plane-wave discretization
        (otherwise local-potential scattering to high G makes
        eigen-residuals non-vanishing).

        ``phi_r`` is the real-space image of ``c`` when the caller
        already has it (the PT-IM loop transformed the midpoint block for
        its density): two batched transforms per call without it, one
        with it.  Under the dense exchange ``phi_r`` must be the rows
        given to :meth:`set_exchange_sources` (see :meth:`apply_exchange`).
        """
        grid = self.grid
        if phi_r is None:
            phi_r = grid.to_real(c)
        h = self.kinetic.apply_g(c)
        h += self.nonlocal_pseudo.apply_g(c)
        local = self.v_eff[None, :] * phi_r
        if include_exchange:
            dense = self.apply_exchange(phi_r)
            if dense is not None:
                local += dense
            if self.exchange_mode == "ace":
                require(self._ace is not None, "ACE operator not set")
                h += self.functional.alpha * self._ace.apply(c)
        # `local` is a step temporary: the backend transforms it in place
        h += grid.to_sphere(local, consume=True)
        return h

    def apply_real(self, phi_r: np.ndarray, *, include_exchange: bool = True) -> np.ndarray:
        """:meth:`apply` for real-space rows ``(nb, ngrid)``, returning
        real-space rows (RK4, tests): pack, apply, unpack."""
        c = self.grid.to_sphere(phi_r)
        return self.grid.to_real(self.apply(c, phi_r, include_exchange=include_exchange))

    def subspace_matrix(self, c: np.ndarray, h_c: Optional[np.ndarray] = None) -> np.ndarray:
        """Rayleigh quotient block ``(Phi* H Phi)`` of a sphere block — hermitized."""
        if h_c is None:
            h_c = self.apply(c)
        m = self.grid.inner(c, h_c)
        return 0.5 * (m + m.conj().T)
