"""PT-IM: the parallel-transport implicit-midpoint propagator (Alg. 1).

One time step solves the fixed-point problem Eq. (6)-(7) in the unknowns
``{Phi_{n+1}, sigma_{n+1}}``:

    Phi_{n+1}   = Phi_n  - i dt (I - P~_{n+1/2}) H_{n+1/2} Phi_{n+1/2}
    sigma_{n+1} = sigma_n - i dt [Phi*_{n+1/2} H_{n+1/2} Phi_{n+1/2}, sigma_{n+1/2}]

with midpoint averages Eq. (4), Anderson mixing of the concatenated
(wavefunction, sigma) unknowns, midpoint-density stopping, and a final
Löwdin orthonormalization + sigma conjugate-symmetrization (Alg. 1
line 13).

Map.  Writing the right-hand sides as ``T(x)``, the loop iterates
``x <- x + M^{-1} (T(x) - x)`` with the stiff linear part of ``1 - T'``
inverted exactly: the orbital residual is divided by ``1 + i dt/2 |G|^2/2``
on the sphere, the sigma residual by ``1 + i dt/2 (eps_i - eps_j)`` in the
eigenbasis of ``h = Phi*_mid H Phi_mid`` (the resolvent of ``ad_h``).
Every divisor has modulus >= 1, so ``M`` is invertible and the fixed
points are those of ``T``: only the path to them changes.  ``T`` itself
has Jacobian ``-i dt/2 (I - P~) H``, of norm ``dt ecut / 2`` from the
kinetic energy alone (3.1 at 50 as and ``ecut`` 3): expansive, and more
so at every higher cutoff, which cost Anderson half its iterations.
Price per iteration: one ``(N, npw)`` divide, one ``N x N`` ``eigh`` and
four ``N^3`` products; no transform.  Working in sigma's eigenbasis
(below) adds one ``eigh`` of ``sigma_mid`` and two ``N^2 npw`` products,
the rotation and the rotate-back of ``H c~``, for the density, ``H`` and
the exchange together.

Stopping.  Iteration ``k`` builds ``rho_mid,k = rho[(X_n + x_k)/2]`` to
update the Hamiltonian, and the same density is the test:
``r_k = 2 ||rho_mid,k - rho_mid,k-1||_1 dv / N_e`` (the 2 reads a midpoint
change as the end-of-step change it is half of, so ``density_tol`` bounds
the relative density change of ``x_k``), taken before ``H`` is applied;
the loop returns ``x_k`` once *two consecutive* residuals are below
``density_tol``.  Two, because a density test is blind at first order
where the density matrix is real (every ground state): the first move
``-i dt [H, P]`` is imaginary and shows in the density at ``O(dt^2)``, so
from ``x_0 = X_n`` the first iterate passes one check at any tolerance,
and ``x_2``, where ``H`` has acted on the imaginary part, does not.

Representation.  A step packs ``state.phi`` once (``real -> sphere``),
iterates on the packed unknown ``x = (c~, sigma)`` — sphere block and
occupation matrix, ``N npw + N^2`` numbers, same 2-norm as
``(Phi_r, sigma)`` because the sphere block is unitary-scaled
(``grid/fftgrid.py``) — and unpacks once in :meth:`_finish_step`.  The
loop sees each midpoint through its :class:`MidpointImage` (paper Sec.
IV-A1): ``hermitize(sigma_mid) = Q diag(d) Q*`` is decomposed once and
the sphere block rotated, ``c~ = Q^T c_mid``, before it is taken to
real space, ``phi~``.  The first midpoint is the state itself, imaged
as ``observe`` images it: real-space rows rotated, ``phi~ = Phi_n Q``,
then packed.  Its ``phi~`` is bit for bit the rows a recorded energy's
exchange was evaluated on, so the step's first dense self-application
or ACE build is answered from ``Hamiltonian.dense_exchange``'s record.
The density ``Σ d_i |phi~_i|^2``, ``H``, and the
dense exchange or the ACE build all act on ``(c~, phi~, d)``; only
``H c~`` goes back, on the sphere, to ``H c_mid`` (``H`` is linear), and
the exchange's self-application needs no rotation at all.  The last
midpoint of an ACE inner loop is the first of the next, so one
PT-IM-ACE step decomposes ``n_inner + 1`` matrices, a dense PT-IM step
``n + 1``.  Nothing outside ``rt/`` decomposes or rotates (``observe``
does it once per recorded state).  One inner iteration makes two
batched transforms: ``sphere -> real`` of the rotated midpoint block
(shared by the density, the residual, the dense-exchange sources and
``v_eff phi``) and ``real -> sphere`` of the local product inside
``Hamiltonian.apply``; the start's image costs one batch too, its
``real -> sphere``.  The midpoint algebra, the projector ``(I -
P~)``, the mixer history and Löwdin are all ``npw`` wide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal, NamedTuple, Optional, Tuple

import numpy as np

from repro.occupation.sigma import (
    diagonalize_sigma,
    hermitize,
    rotate_orbitals,
    unrotate_orbitals,
)
from repro.rt.propagator import PropagatorBase, StepStats, TDState
from repro.scf.eigensolver import lowdin_orthonormalize
from repro.scf.mixing import AndersonMixer
from repro.trace import traced
from repro.utils.validation import check_settings, setting


class MidpointImage(NamedTuple):
    """A midpoint ``(c_mid, sigma_mid)`` as the iteration sees it.

    ``c = Q^T c_mid`` is the sphere block in sigma's eigenbasis, ``phi``
    its real-space rows and ``d`` the eigenvalues of
    ``hermitize(sigma_mid) = Q diag(d) Q*``.
    """

    c: np.ndarray
    phi: np.ndarray
    d: np.ndarray
    q: np.ndarray

    def back(self, block: np.ndarray) -> np.ndarray:
        """A sphere block computed on ``c`` (as ``H c``), in ``c_mid``'s basis."""
        return unrotate_orbitals(block, self.q)


@dataclass
class PTIMOptions:
    """Fixed-point solver knobs (tolerance and history: paper Sec. VI),
    the keys of a config's ``[propagation.options]``."""

    #: bound on the relative density change of each of the last two
    #: iterates (the residual ``r_k`` of the module docstring)
    density_tol: float = setting(1.0e-6, float, lo=0, open=True)
    #: cap on the applications of the map T per step (at least one)
    max_scf: int = setting(30, int, lo=1)
    mix_beta: float = setting(1.0, float, lo=0, hi=1, open=True)
    mix_history: int = setting(20, int, lo=1)
    #: the dense exchange acts on sigma's eigenbasis image (Sec. IV-A1;
    #: Alg. 2 is a kernel, not a mode): one value, kept as a key so that
    #: configs naming it keep loading and hashing as before
    fock_mode: Literal["dense-diag"] = setting("dense-diag", str, choices=("dense-diag",))

    def __post_init__(self) -> None:
        check_settings(self, "propagation.options")


class PTIMPropagator(PropagatorBase):
    """Single-loop PT-IM (Fig. 4(a)): dense exchange in every SCF iteration."""

    name = "pt-im"
    options_class = PTIMOptions

    def __init__(self, ham, options: Optional[PTIMOptions] = None, **kwargs) -> None:
        super().__init__(ham, **kwargs)
        self.options = options or self.options_class()
        # one mixer for the propagator's lifetime: every fixed-point loop
        # resets it, so its history buffers are allocated once
        self._mixer = AndersonMixer(history=self.options.mix_history, beta=self.options.mix_beta)

    # -- helpers ---------------------------------------------------------------
    def _image(self, c_mid: np.ndarray, sigma_mid: np.ndarray) -> MidpointImage:
        """The midpoint's image the iteration works on: sigma decomposed
        once and the sphere block rotated into its eigenbasis, then taken
        to real space."""
        d, q = diagonalize_sigma(hermitize(sigma_mid))
        c = rotate_orbitals(c_mid, q)
        return MidpointImage(c, self.grid.to_real(c), d, q)

    def _start_image(self, state: TDState) -> MidpointImage:
        """The image of the first midpoint, which is ``state`` itself:
        sigma decomposed and the real-space rows rotated, as ``observe``
        does, then packed."""
        d, q = diagonalize_sigma(hermitize(state.sigma))
        phi = rotate_orbitals(state.phi, q)
        return MidpointImage(self.grid.to_sphere(phi), phi, d, q)

    def _pack(self, state: TDState) -> Tuple[TDState, np.ndarray]:
        """``state`` with its orbitals as a sphere block, and the packed
        vector ``x = (c~, sigma)`` that starts the fixed-point iteration."""
        packed = TDState(self.grid.to_sphere(state.phi), state.sigma, state.time)
        return packed, np.concatenate([packed.phi.ravel(), packed.sigma.ravel()])

    def _unpack(self, x: np.ndarray, nb: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(c, sigma)`` views of a packed ``nb*npw + nb*nb`` vector."""
        cut = nb * self.grid.npw
        return x[:cut].reshape(nb, self.grid.npw), x[cut:].reshape(nb, nb)

    def _midpoint(self, state: TDState, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Midpoint averages Eq. (4) of the packed ``state`` and guess ``x``."""
        c_g, sigma_g = self._unpack(x, state.nbands)
        return 0.5 * (state.phi + c_g), 0.5 * (state.sigma + sigma_g)

    def _set_midpoint_exchange(self, image: MidpointImage) -> None:
        """Point the dense exchange at the midpoint density matrix, given
        as its image: ``H`` is then applied to the sources themselves."""
        if self.ham.functional.is_hybrid:
            self.ham.set_exchange_sources(image.phi, image.d)

    @traced("rt.fixed_point_update")
    def _fixed_point_update(
        self,
        state: TDState,
        c_mid: np.ndarray,
        sigma_mid: np.ndarray,
        image: MidpointImage,
        dt: float,
        c_out: np.ndarray,
        sigma_out: np.ndarray,
    ) -> None:
        """One evaluation of the IMEX map ``x + M^{-1}(T(x) - x)`` (module
        docstring) at the midpoint ``(c_mid, sigma_mid)`` of the packed
        ``state`` and the current guess ``x = 2 x_mid - X_n``, written into
        ``c_out`` / ``sigma_out``.  ``H`` acts on the midpoint's ``image``;
        being linear, ``H c_mid`` is that result rotated back."""
        grid = self.grid
        h_phi = image.back(self.ham.apply(image.c, image.phi))
        # projector P~ built from the (non-orthonormal) midpoint block
        s = grid.inner(c_mid, c_mid)
        c = grid.inner(c_mid, h_phi)  # <phi_k | H phi_l>
        coeff = np.linalg.solve(s, c)  # S^{-1} (Phi* H Phi)
        h_perp = h_phi - coeff.T @ c_mid  # (I - P~) H Phi_mid

        h_perp *= 1j * dt
        c_x = 2.0 * c_mid - state.phi
        np.subtract(state.phi, h_perp, out=c_out)  # T_c(x), Eq. (6)
        c_out -= c_x
        c_out /= 1.0 + 0.5j * dt * grid.kinetic_sphere
        c_out += c_x
        self._sigma_update(state, 0.5 * (c + c.conj().T), sigma_mid, dt, sigma_out)

    def _sigma_update(self, state, h_sub, sigma_mid, dt, sigma_out) -> None:
        """The sigma block of the IMEX map: Eq. (7)'s residual through the
        resolvent ``(1 + i dt/2 ad_h)^{-1}``, diagonal in the eigenbasis of
        ``h_sub`` (and so independent of the basis ``eigh`` picks inside a
        degenerate eigenspace)."""
        sigma_x = 2.0 * sigma_mid - state.sigma
        resid = state.sigma - 1j * dt * (h_sub @ sigma_mid - sigma_mid @ h_sub) - sigma_x
        eps, u = np.linalg.eigh(h_sub)
        resid = u.conj().T @ resid @ u
        resid /= 1.0 + 0.5j * dt * (eps[:, None] - eps[None, :])
        sigma_out[...] = sigma_x + u @ resid @ u.conj().T

    def _solve_fixed_point(
        self,
        state: TDState,
        dt: float,
        x: np.ndarray,
        max_iter: int,
        image: MidpointImage,
    ) -> Tuple[np.ndarray, int, float, bool, MidpointImage]:
        """Anderson-accelerated fixed-point loop (Alg. 1 lines 4-11).

        ``state`` is the packed ``(c~_n, sigma_n)`` and ``x`` packs the
        guess for ``{Phi_{n+1}, sigma_{n+1}}`` as one vector (Alg. 1 line
        8 mixes them together); ``image`` is the image of their midpoint.
        Returns the accepted iterate, the number of applications of the
        map T (at most ``max_iter``), the last midpoint-density residual,
        whether two consecutive residuals fell below ``density_tol``, and
        the image of the accepted iterate's midpoint.
        """
        grid, ham = self.grid, self.ham
        tol = self.options.density_tol
        gx = np.empty_like(x)
        c_new, sigma_new = self._unpack(gx, state.nbands)
        self._mixer.reset()
        rho_prev, resid, converged = None, np.inf, False
        c_mid, sigma_mid = self._midpoint(state, x)
        for n_iter in itertools.count():
            rho_mid = self.density(image.phi, image.d)
            if rho_prev is not None:
                last = resid
                resid = 2.0 * float(np.abs(rho_mid - rho_prev).sum()) * grid.dv / ham.n_electrons
                converged = max(last, resid) < tol
            if converged or n_iter == max_iter:
                return x, n_iter, resid, converged, image
            rho_prev = rho_mid
            ham.update_density(rho_mid)
            ham.set_time(state.time + 0.5 * dt)
            self._set_midpoint_exchange(image)
            self._fixed_point_update(state, c_mid, sigma_mid, image, dt, c_new, sigma_new)
            x = self._mixer.mix(x, gx)
            c_mid, sigma_mid = self._midpoint(state, x)
            image = self._image(c_mid, sigma_mid)

    def _finish_step(self, state: TDState, dt: float, x: np.ndarray) -> TDState:
        """Löwdin orthonormalization + sigma symmetrization (Alg. 1 line
        13), then the one ``sphere -> real`` back to the public state."""
        c, sigma = self._unpack(x, state.nbands)
        phi = self.grid.to_real(lowdin_orthonormalize(self.grid, c))
        return TDState(phi, hermitize(sigma), state.time + dt)

    # -- the step -------------------------------------------------------------
    @traced("rt.step")
    def step(self, state: TDState, dt: float) -> Tuple[TDState, StepStats]:
        packed, x = self._pack(state)
        x, n_scf, resid, converged, _ = self._solve_fixed_point(
            packed, dt, x, self.options.max_scf, self._start_image(state)
        )
        stats = StepStats(
            scf_iterations=n_scf,
            outer_iterations=1,
            fock_applications=n_scf if self.ham.functional.is_hybrid else 0,
            residual=resid,
            converged=converged,
        )
        return self._finish_step(packed, dt, x), stats
