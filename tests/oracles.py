"""Oracles: bodies that left ``src``, kept for the tests to compare against.

Real-space-row oracles for the sphere-block solvers (and the
generalized Ritz step they were written with), the whole-grid projector
table :func:`per_atom_projectors` the nonlocal operator no longer holds,
:class:`SeedNumpyBackend`, the copying default FFT engine, and
:func:`plain_fixed_point_update`, the PT-IM map before the IMEX map.

Until PR 16 every orbital block inside ``Hamiltonian.apply``, ``davidson``
and the PT-IM fixed point was ``(N, ngrid)`` real-space rows.  Those
bodies left ``src`` when the solvers moved onto ``(N, npw)`` sphere
blocks; they are kept here, verbatim up to the names they call, as the
oracles the sphere kernels are tested against (the way
``test_scf_solvers.py`` keeps the stack-and-solve mixer).

The real-space step builds its densities with the pairwise kernel and,
on request, its dense exchange with Alg. 2 (:class:`TripleLoopExchange`):
the two baselines that used to be propagator modes.  The Alg. 2 triple
loop itself, :func:`tripleloop_exchange`, and the grouped mixed-state
reference :func:`grouped_exchange` were ``FockExchangeOperator`` methods
until no run took them.
"""

import itertools

import numpy as np
from scipy.linalg import block_diag

from repro.backend import Backend
from repro.hamiltonian.ace import ACEOperator
from repro.occupation.sigma import (
    clip_and_normalize,
    density_from_orbitals_diag,
    density_from_orbitals_pairwise,
    diagonalize_sigma,
    hermitize,
    rotate_orbitals,
    unrotate_orbitals,
)
from repro.pseudo.database import get_pseudopotential
from repro.pseudo.hgh import h_matrix, projector_fourier
from repro.pseudo.nonlocal_ import _real_sph_harm
from repro.rt import PTIMACEPropagator, TDState
from repro.rt.ptcn import PTCNPropagator
from repro.scf.eigensolver import (
    DavidsonResult,
    _inverse_sqrt,
    _normalize_rows,
    canonical_orthonormalize,
    lowdin_orthonormalize,
)
from repro.scf.mixing import AndersonMixer


def per_atom_projectors(grid):
    """Every Kleinman–Bylander projector on the whole grid, the construction
    before the per-species, per-|G|-shell tables: ``projector_fourier`` on
    every grid point inside the atom loop.  Returns the ``(nproj, ngrid)``
    table ``β(G)``, the coupling and the labels."""
    cell = grid.cell
    q = np.sqrt(grid.gvec.g2)
    q_flat = grid.to_flat(q[None])[0]
    unit_flat = (grid.gvec.cartesian / np.where(q[..., None] > 1e-12, q[..., None], 1.0)).reshape(-1, 3)
    betas, blocks, labels = [], [], []
    for atom_index, symbol in enumerate(cell.species):
        params = get_pseudopotential(symbol)
        sfac = grid.to_flat(grid.gvec.structure_factor(cell.positions[atom_index])[None])[0]
        for l in range(params.lmax + 1):
            nproj = params.nproj(l)
            radial = [projector_fourier(params, l, i, q_flat) for i in range(nproj)]
            for m in range(-l, l + 1):
                ylm = _real_sph_harm(l, m, unit_flat)
                for i in range(nproj):
                    betas.append(((-1j) ** l / cell.volume) * radial[i] * ylm * sfac)
                    labels.append((atom_index, symbol, l, m, i))
                blocks.append(h_matrix(params, l))
    return np.vstack(betas), block_diag(*blocks), labels


_FULL_GRID_PROJECTORS = {}


def full_grid_projectors(grid):
    """:func:`per_atom_projectors` of ``grid``'s cell, shape and cutoff, made
    once per test session (about a second each)."""
    cell = grid.cell
    key = (grid.shape, grid.ecut, cell.lattice.tobytes(), cell.positions.tobytes(), cell.species)
    if key not in _FULL_GRID_PROJECTORS:
        _FULL_GRID_PROJECTORS[key] = per_atom_projectors(grid)
    return _FULL_GRID_PROJECTORS[key]


class SeedNumpyBackend(Backend):
    """The default engine's transforms as they were until PR 17.

    ``np.fft.fftn(a, axes=...)`` makes three out-of-place axis passes, each
    into a fresh batch-sized array, and the result is then scaled into the
    caller's ``out`` — twice the batch's bytes in transients even for
    ``out is a``.  ``Backend`` is one pocketfft call with the scale folded
    in since 1.11.0 and must agree with this to round-off.  Only
    ``_fftn`` / ``_ifftn`` are overridden, so counting is the engine's own
    and a test can ``monkeypatch`` the two onto ``Backend`` itself.
    """

    def _fftn(self, a, out):
        scale = 1.0 / float(np.prod(a.shape[-3:]))
        r = np.fft.fftn(a, axes=(-3, -2, -1))
        if out is None:
            r *= scale
            return r
        np.multiply(r, scale, out=out)
        return out

    def _ifftn(self, a, out):
        scale = float(np.prod(a.shape[-3:]))
        r = np.fft.ifftn(a, axes=(-3, -2, -1))
        if out is None:
            r *= scale
            return r
        np.multiply(r, scale, out=out)
        return out


def _generalized_lowest(h, s, nb):
    """Lowest ``nb`` eigenpairs of the generalized problem ``H v = e S v``.

    Solved via canonical orthogonalization of S (dropping null modes), so
    mildly ill-conditioned expansion bases remain stable.  ``davidson``'s
    Ritz step until PR 22, which stopped building ``S``: its expanded basis
    is orthonormal by construction.  ``real_space_davidson`` below and
    ``reapplying_davidson`` (``test_scf_solvers.py``) still call it.
    """
    lam, u = np.linalg.eigh(s)
    keep = lam > 1e-12 * float(lam.max())
    t = u[:, keep] / np.sqrt(lam[keep])[None, :]
    h_t = t.conj().T @ h @ t
    h_t = 0.5 * (h_t + h_t.conj().T)
    e, v = np.linalg.eigh(h_t)
    return e[:nb], (t @ v[:, :nb])


def real_space_apply(ham, phi_r, *, include_exchange=True, ace=None):
    """``H Phi`` on real-space rows: the pre-PR-16 ``Hamiltonian.apply``.

    Three full-box transforms, kinetic and projectors over all ``ngrid``
    coefficients (the projectors its own table, :func:`full_grid_projectors`),
    the mask applied at the end.  ``ace`` is a *real-space*
    compressed operator (``ACEOperator.from_dense_action`` on real-space
    rows) standing in for the one ``set_ace`` used to hold.
    """
    grid = ham.grid
    mask = grid.gvec.sphere_mask.ravel()
    phi_g = grid.r_to_g(phi_r)
    g = grid.gvec.cartesian.reshape(-1, 3)
    a = ham.kinetic.vector_potential
    h_g = phi_g * (0.5 * (grid.gvec.g2.ravel() + 2.0 * (g @ a) + float(a @ a)))
    beta_g, coupling, _ = full_grid_projectors(grid)
    if len(beta_g):
        amps = grid.cell.volume * (beta_g.conj() @ phi_g.T)
        h_g += (beta_g.T @ (coupling @ amps)).T
    local = ham.v_eff[None, :] * phi_r
    if include_exchange and ace is not None:
        local = local + ham.functional.alpha * ace.apply(phi_r)
    elif include_exchange and ham.exchange_mode != "none":
        assert ham.exchange_mode != "ace", "pass the real-space ACE operator as ace="
        local = local + ham.apply_exchange(phi_r)
    h_g += grid.r_to_g(local)
    h_g[..., ~mask] = 0.0
    return grid.g_to_r(h_g)


def real_space_teter(grid, phi_g, ekin_band):
    """The pre-PR-16 ``teter_preconditioner`` on full-box coefficients."""
    x = grid.gvec.kinetic.ravel()[None, :] / np.maximum(ekin_band, 1e-8)[:, None]
    poly = 27.0 + 18.0 * x + 12.0 * x**2 + 8.0 * x**3
    return phi_g * (poly / (poly + 16.0 * x**4))


def real_space_davidson(grid, apply_h, phi0, tol=1e-7, max_iter=60, nconv=None):
    """The pre-PR-16 ``davidson`` on real-space rows: three full-box
    transforms per iteration besides ``H``, everything ``ngrid`` wide."""
    phi = lowdin_orthonormalize(grid, phi0.copy())
    nb = phi.shape[0]
    nconv = nb if nconv is None else min(nconv, nb)
    eig = np.zeros(nb)
    res_norms = np.full(nb, np.inf)
    h_phi = apply_h(phi)
    mask = grid.gvec.sphere_mask.ravel()
    t_diag = grid.gvec.kinetic.ravel()

    for it in range(1, max_iter + 1):
        h_sub = grid.inner(phi, h_phi)
        h_sub = 0.5 * (h_sub + h_sub.conj().T)
        eig, vec = np.linalg.eigh(h_sub)
        phi = np.ascontiguousarray(vec.T @ phi)
        h_phi = np.ascontiguousarray(vec.T @ h_phi)

        resid = h_phi - eig[:, None] * phi
        res_norms = np.sqrt(np.einsum("ij,ij->i", resid.conj(), resid).real * grid.dv)
        if res_norms[:nconv].max() < tol:
            return DavidsonResult(eig, phi, res_norms, it, True)

        phi_g = grid.r_to_g(phi)
        ekin_band = grid.cell.volume * np.einsum("ng,g,ng->n", phi_g.conj(), t_diag, phi_g).real
        corr_g = real_space_teter(grid, grid.r_to_g(resid), np.maximum(ekin_band, 0.1))
        corr_g[..., ~mask] = 0.0
        corr = grid.g_to_r(corr_g)

        corr -= grid.inner(phi, corr).T @ phi
        corr = _normalize_rows(corr, grid.dv)
        if corr.shape[0] == 0:
            return DavidsonResult(eig, phi, res_norms, it, res_norms[:nconv].max() < tol)
        corr = canonical_orthonormalize(grid, corr, drop_tol=1e-8)
        corr -= grid.inner(phi, corr).T @ phi
        basis = np.vstack([phi, corr])
        h_basis = np.vstack([h_phi, apply_h(corr)])
        h_sub2 = grid.inner(basis, h_basis)
        h_sub2 = 0.5 * (h_sub2 + h_sub2.conj().T)
        s_sub2 = grid.inner(basis, basis)
        s_sub2 = 0.5 * (s_sub2 + s_sub2.conj().T)
        _, vec2 = _generalized_lowest(h_sub2, s_sub2, nb)
        rot = _inverse_sqrt(vec2.conj().T @ s_sub2 @ vec2).T @ vec2.T
        phi = np.ascontiguousarray(rot @ basis)
        h_phi = np.ascontiguousarray(rot @ h_basis)

    return DavidsonResult(eig, phi, res_norms, max_iter, False)


def eigenbasis_image(phi, sigma):
    """sigma's eigenbasis image ``(phi~ = Phi Q, d)`` of real-space rows, as
    ``PropagatorBase.observe`` makes it: decompose ``hermitize(sigma)``,
    rotate the rows."""
    d, q = diagonalize_sigma(hermitize(sigma))
    return rotate_orbitals(phi, q), d


def matrix_diag_density(grid, phi, sigma, degeneracy=1.0):
    """``density_from_orbitals_diag`` on a sigma *matrix*, its branch until
    it took only the eigenbasis image: decompose, rotate the real-space
    rows, sum ``d_i |phi~_i|^2``."""
    return density_from_orbitals_diag(grid, *eigenbasis_image(phi, sigma), degeneracy)


def mixed_exchange(fock, phi, sigma):
    """``V_x[P] Phi`` with ``P = Phi sigma Phi*``, on the block that defines
    ``P``, by Sec. IV-A1: decompose sigma, rotate, ``apply_diag`` on the
    rotated block (its own target), rotate back."""
    d, q = diagonalize_sigma(hermitize(sigma))
    return unrotate_orbitals(fock.apply_diag(rotate_orbitals(phi, q), d), q)


def tripleloop_exchange(fock, phi, sigma, targets=None):
    """``V_x[P] targets`` of ``P = Phi sigma Phi*`` by paper Alg. 2: N^3
    band-by-band transforms, the (k, j) pair potential recomputed inside
    the i loop as the memory-constrained distributed baseline does.
    Through ``fock``'s pair solve, so the grid's backend counts 2 N^3
    transforms for a dense sigma (no alpha factor)."""
    n = phi.shape[0]
    assert sigma.shape == (n, n), "sigma must match band count"
    if targets is None:
        targets = phi
    out = np.zeros_like(targets)
    for k in range(n):
        for i in range(n):
            s_ik = sigma[i, k]
            if abs(s_ik) < 1e-15:
                continue
            for j in range(targets.shape[0]):
                pot = fock._pair_potential(phi[k].conj() * targets[j])
                out[j] -= s_ik * phi[i] * pot
    return out


def grouped_exchange(fock, phi, sigma, targets=None):
    """The N^2-transform mixed-state reference: contract over i before the
    k loop, ``V_x psi_j = -Σ_k W_k [K * (phi_k^* psi_j)]`` with ``W =
    sigma^T Phi``, ``fock.batch_size`` pair densities per transform."""
    n = phi.shape[0]
    assert sigma.shape == (n, n), "sigma must match band count"
    if targets is None:
        targets = phi
    w_rows = sigma.T @ phi
    out = np.zeros_like(targets)
    for j in range(targets.shape[0]):
        acc = np.zeros(fock.grid.ngrid, dtype=complex)
        for start in range(0, n, fock.batch_size):
            blk = slice(start, min(start + fock.batch_size, n))
            pot = fock._pair_potential(phi[blk].conj() * targets[j][None, :])
            acc += np.einsum("kr,kr->r", w_rows[blk], pot)
        out[j] = -acc
    return out


class TripleLoopExchange:
    """The dense exchange of ``(phi, sigma)`` by Alg. 2
    (:func:`tripleloop_exchange`), as an operator on real-space rows that
    ``real_space_apply`` takes as ``ace=``."""

    def __init__(self, fock, phi, sigma):
        self.fock, self.phi, self.sigma = fock, phi, sigma

    def apply(self, targets):
        return tripleloop_exchange(self.fock, self.phi, self.sigma, targets=targets)


class SelfExchange:
    """``V_x[P] Phi`` of ``(phi, sigma)`` by :func:`mixed_exchange`, as an
    operator that ``real_space_apply`` takes as ``ace=``: the dense
    exchange acts on the block that defines ``P`` only."""

    def __init__(self, fock, phi, sigma):
        self.phi = phi
        self.vx = mixed_exchange(fock, phi, sigma)

    def apply(self, block):
        assert block is self.phi, "the dense exchange acts on its own sources only"
        return self.vx


def _real_space_loop(prop, state, dt, phi_g, sigma_g, max_iter, ace, tripleloop=False):
    """The PT-IM inner loop on real-space rows, a mixer per loop, the
    ``(Phi_r, sigma)`` unknowns concatenated and split on every iteration.
    The density is the pairwise kernel's; ``ace`` (real-space) replaces the
    dense exchange when given, which is otherwise that of sigma's
    eigenbasis image, or Alg. 2's with ``tripleloop``.  The stopping rule is
    ``_solve_fixed_point``'s and the map is the IMEX map of
    ``_fixed_point_update`` (the orbital residual divided by
    ``1 + i dt/2 |G|^2/2`` over the whole box, one FFT round trip; the sigma
    resolvent as there): this oracle tests the representation, so it must
    stop on the same iteration."""
    grid, ham, opts = prop.grid, prop.ham, prop.options
    phi_n, sigma_n, nb = state.phi, state.sigma, state.nbands
    mixer = AndersonMixer(history=opts.mix_history, beta=opts.mix_beta)
    tol = opts.density_tol
    rho_prev, resid, converged = None, np.inf, False
    for n_iter in itertools.count():
        phi_mid = 0.5 * (phi_n + phi_g)
        sigma_mid = 0.5 * (sigma_n + sigma_g)
        sigma_h = hermitize(sigma_mid)
        rho_mid = density_from_orbitals_pairwise(grid, phi_mid, sigma_h, ham.degeneracy)
        rho_mid = clip_and_normalize(rho_mid, ham.n_electrons, grid.dv)
        if rho_prev is not None:
            last = resid
            resid = 2.0 * float(np.abs(rho_mid - rho_prev).sum()) * grid.dv / ham.n_electrons
            converged = max(last, resid) < tol
        if converged or n_iter == max_iter:
            return phi_g, sigma_g, n_iter, resid, converged
        rho_prev = rho_mid
        ham.update_density(rho_mid)
        ham.set_time(state.time + 0.5 * dt)
        exchange = ace
        if ace is None and ham.functional.is_hybrid:
            kernel = TripleLoopExchange if tripleloop else SelfExchange
            exchange = kernel(ham.fock, phi_mid, sigma_h)
        h_phi = real_space_apply(ham, phi_mid, ace=exchange)
        c = grid.inner(phi_mid, h_phi)
        h_perp = h_phi - np.linalg.solve(grid.inner(phi_mid, phi_mid), c).T @ phi_mid
        h_sub = 0.5 * (c + c.conj().T)
        resid_g = grid.r_to_g(phi_n - 1j * dt * h_perp - phi_g)
        phi_new = phi_g + grid.g_to_r(resid_g / (1.0 + 0.5j * dt * grid.kinetic_flat))
        if isinstance(prop, PTCNPropagator):
            sigma_new = sigma_n.copy()
        else:
            eps, u = np.linalg.eigh(h_sub)
            f_sigma = sigma_n - 1j * dt * (h_sub @ sigma_mid - sigma_mid @ h_sub) - sigma_g
            f_sigma = (u.conj().T @ f_sigma @ u) / (1.0 + 0.5j * dt * (eps[:, None] - eps[None, :]))
            sigma_new = sigma_g + u @ f_sigma @ u.conj().T
        x_next = mixer.mix(
            np.concatenate([phi_g.ravel(), sigma_g.ravel()]),
            np.concatenate([phi_new.ravel(), sigma_new.ravel()]),
        )
        phi_g = x_next[: nb * grid.ngrid].reshape(nb, grid.ngrid)
        sigma_g = x_next[nb * grid.ngrid :].reshape(nb, nb)


def plain_fixed_point_update(prop, state, c_mid, sigma_mid, image, dt, c_out, sigma_out):
    """``PTIMPropagator._fixed_point_update`` as it was until PR 19: the
    *map* oracle, ``T`` of Eq. (6)-(7) itself with nothing inverted.

    Its Jacobian ``-i dt/2 (I - P~) H`` has norm ``~dt ecut / 2`` (3.1 on
    the hybrid test systems), which Anderson mixing at ``mix_beta = 0.5``
    (the default then; pass it) had to resolve.  Same fixed points as the
    IMEX map.  Drop-in for the method (``monkeypatch.setattr(PTIMPropagator,
    "_fixed_point_update", plain_fixed_point_update)``); PT-CN, which
    overrode it to freeze sigma, is folded in.
    """
    grid = prop.grid
    h_phi = image.back(prop.ham.apply(image.c, image.phi))
    # projector P~ built from the (non-orthonormal) midpoint block
    s = grid.inner(c_mid, c_mid)
    c = grid.inner(c_mid, h_phi)  # <phi_k | H phi_l>
    coeff = np.linalg.solve(s, c)  # S^{-1} (Phi* H Phi)
    h_perp = h_phi - coeff.T @ c_mid  # (I - P~) H Phi_mid

    h_perp *= 1j * dt
    np.subtract(state.phi, h_perp, out=c_out)
    h_sub = 0.5 * (c + c.conj().T)
    sigma_out[...] = state.sigma - 1j * dt * (h_sub @ sigma_mid - sigma_mid @ h_sub)
    if isinstance(prop, PTCNPropagator):
        sigma_out[...] = state.sigma


def real_space_step(prop, state, dt, tripleloop=False):
    """One step of ``prop``'s scheme (PT-IM, PT-IM-ACE or PT-CN) entirely
    on real-space rows, with ``prop``'s options and Hamiltonian;
    ``tripleloop`` evaluates the dense exchange of PT-IM and PT-CN by
    Alg. 2.

    Returns ``(state, (inner, outer, fock applications, ACE builds,
    residual, converged))``.
    """
    grid, ham, opts = prop.grid, prop.ham, prop.options
    if isinstance(prop, PTCNPropagator):
        state = TDState(state.phi, hermitize(state.sigma), state.time)
    phi_g, sigma_g = state.phi.copy(), state.sigma.copy()
    if isinstance(prop, PTIMACEPropagator) and ham.functional.is_hybrid:
        ham.clear_exchange()
        n_inner = n_outer = 0
        prev_ex, converged = None, False
        for _ in range(opts.max_outer):
            n_outer += 1
            phi_mid = 0.5 * (state.phi + phi_g)
            sigma_mid = hermitize(0.5 * (state.sigma + sigma_g))
            w = mixed_exchange(ham.fock, phi_mid, sigma_mid)
            ace = ACEOperator.from_dense_action(grid, phi_mid, w)
            phi_g, sigma_g, n, resid, inner_ok = _real_space_loop(
                prop, state, dt, phi_g, sigma_g, opts.max_inner, ace
            )
            n_inner += n
            # the matrix formula (deg/2) Re Tr[sigma <phi|V_ACE phi>], the
            # reference for the eigenbasis-image energy the propagator reads
            phi_mid = 0.5 * (state.phi + phi_g)
            sigma_mid = hermitize(0.5 * (state.sigma + sigma_g))
            overlap = grid.inner(phi_mid, ace.apply(phi_mid))
            ex = 0.5 * ham.degeneracy * float(np.trace(sigma_mid @ overlap).real)
            if prev_ex is not None and abs(ex - prev_ex) < opts.exchange_tol:
                converged = inner_ok
                break
            prev_ex = ex
        counts = (n_inner, n_outer, n_outer, n_outer, resid, converged)
    else:
        phi_g, sigma_g, n, resid, converged = _real_space_loop(
            prop, state, dt, phi_g, sigma_g, opts.max_scf, None, tripleloop
        )
        counts = (n, 1, n if ham.functional.is_hybrid else 0, 0, resid, converged)
    sigma = state.sigma if isinstance(prop, PTCNPropagator) else hermitize(sigma_g)
    return TDState(lowdin_orthonormalize(grid, phi_g), sigma, state.time + dt), counts
