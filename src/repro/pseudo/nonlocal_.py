"""Kleinman–Bylander separable nonlocal pseudopotential.

``V_nl = Σ_{a,l,m,i,j} |β_{a,l,m,i}> h^l_{ij} <β_{a,l,m,j}|``

Projectors are assembled in G space:

``β(G) = (1/Ω) p̃_i^l(|G|) (-i)^l Y_lm(Ĝ) e^{-i G·τ_a}``

so that with our FFT convention (coefficients ``c(G)``, real-space norm
``Ω Σ|c|²``) the matrix element is ``<β|φ> = Ω Σ_G β*(G) c_φ(G)``.

Applying ``V_nl`` to a band block is two skinny GEMMs (project then
expand) — exactly the structure PWDFT exploits on GPU/ARM.  They run on
the cutoff sphere: ``beta_sphere = sqrt(Ω) β`` gathered on
``grid.sphere_index``, so for unitary-scaled sphere blocks ``c~`` (see
``grid/fftgrid.py``) ``V_nl c~ = beta_sphere^T h (beta_sphere^* c~)``
with no further factor and ``<β|φ> = sqrt(dV) beta_sphere^* c~``.

What is evaluated once: the radial factor ``p̃_i^l(|G|)`` (a 512-point
Fourier–Bessel quadrature per value) depends on the species, ``(l, i)``
and ``|G|`` only — not on the atom and not on the direction of ``G``.
Each ``(species, l, i)`` table is therefore computed once per object, on
the distinct ``|G|`` values of the grid (77 of 1728 points at 12³), and
gathered back to the grid; grid points that share ``|G|`` receive the
very number the quadrature gives for that ``|G|``, so this is exact, not
an interpolation.  Only the structure factor, ``Y_lm`` and the product
are per atom.  Nothing outlives the object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.grid.fftgrid import PlaneWaveGrid
from repro.pseudo.database import get_pseudopotential
from repro.pseudo.hgh import h_matrix, projector_fourier
from repro.trace import traced


def _real_sph_harm(l: int, m: int, unit_g: np.ndarray) -> np.ndarray:
    """Real spherical harmonics for l <= 1 on unit vectors, flat shape."""
    if l == 0:
        return np.full(unit_g.shape[:-1], 0.5 / math.sqrt(math.pi))
    if l == 1:
        c = math.sqrt(3.0 / (4.0 * math.pi))
        # order m = -1, 0, 1 -> y, z, x
        comp = {-1: 1, 0: 2, 1: 0}[m]
        return c * unit_g[..., comp]
    raise NotImplementedError(f"l={l} spherical harmonics not implemented (HGH set needs l<=1)")


@dataclass
class NonlocalPseudopotential:
    """All Kleinman–Bylander projectors of a cell, ready to apply.

    Attributes
    ----------
    beta_g:
        Projector coefficient fields, shape ``(nprojectors, ngrid)`` in
        G space (flat).
    beta_sphere:
        The table the operator applies: ``sqrt(Ω) beta_g`` on the cutoff
        sphere, shape ``(nprojectors, npw)``.
    coupling:
        Block-diagonal coupling matrix ``h`` over all projectors,
        shape ``(nprojectors, nprojectors)``.
    """

    grid: PlaneWaveGrid

    @traced("pseudo.nonlocal.init")
    def __post_init__(self) -> None:
        grid = self.grid
        cell = grid.cell
        volume = cell.volume
        q = np.sqrt(grid.gvec.g2)
        q_flat = grid.to_flat(q[None])[0]
        with np.errstate(invalid="ignore", divide="ignore"):
            unit_g = grid.gvec.cartesian / np.where(q[..., None] > 1e-12, q[..., None], 1.0)
        unit_flat = unit_g.reshape(-1, 3)
        q_shell, shell_of = np.unique(q_flat, return_inverse=True)
        radial_of: Dict[Tuple[str, int], List[np.ndarray]] = {}

        betas: List[np.ndarray] = []
        blocks: List[np.ndarray] = []
        labels: List[Tuple[int, str, int, int, int]] = []

        for atom_index, symbol in enumerate(cell.species):
            params = get_pseudopotential(symbol)
            if params.lmax < 0:
                continue
            sfac = grid.to_flat(
                grid.gvec.structure_factor(cell.positions[atom_index])[None]
            )[0]
            for l in range(params.lmax + 1):
                nproj = params.nproj(l)
                if nproj == 0:
                    continue
                if (symbol, l) not in radial_of:
                    radial_of[symbol, l] = [
                        projector_fourier(params, l, i, q_shell)[shell_of]
                        for i in range(nproj)
                    ]
                radial = radial_of[symbol, l]
                h = h_matrix(params, l)
                for m in range(-l, l + 1):
                    ylm = _real_sph_harm(l, m, unit_flat)
                    phase = (-1j) ** l
                    group: List[np.ndarray] = []
                    for i in range(nproj):
                        beta = (phase / volume) * radial[i] * ylm * sfac
                        group.append(beta)
                        labels.append((atom_index, symbol, l, m, i))
                    betas.extend(group)
                    blocks.append(h)

        if betas:
            self.beta_g: np.ndarray = np.ascontiguousarray(np.vstack(betas))
            dim = sum(b.shape[0] for b in blocks)
            coupling = np.zeros((dim, dim))
            off = 0
            for b in blocks:
                n = b.shape[0]
                coupling[off : off + n, off : off + n] = b
                off += n
            self.coupling: np.ndarray = coupling
        else:
            self.beta_g = np.zeros((0, grid.ngrid), dtype=complex)
            self.coupling = np.zeros((0, 0))
        self.labels = labels
        self.beta_sphere: np.ndarray = np.sqrt(volume) * self.beta_g[:, grid.sphere_index]

    @property
    def nprojectors(self) -> int:
        return self.beta_g.shape[0]

    # -- application ---------------------------------------------------------
    def project(self, c: np.ndarray) -> np.ndarray:
        """``beta_sphere^* c~`` for a sphere block ``(nbands, npw)``: the
        projector amplitudes ``<beta_p | phi_n>`` over ``sqrt(dV)``,
        shape ``(nproj, nbands)``."""
        return self.beta_sphere.conj() @ c.T

    @traced("pseudo.nonlocal.apply_g")
    def apply_g(self, c: np.ndarray) -> np.ndarray:
        """``V_nl phi`` for a sphere block ``(nbands, npw)``."""
        if self.nprojectors == 0:
            return np.zeros_like(c)
        return (self.coupling @ self.project(c)).T @ self.beta_sphere

    def energy(self, c: np.ndarray, weights: np.ndarray) -> float:
        """Nonlocal energy ``Σ_n w_n <phi_n|V_nl|phi_n>`` of a sphere block."""
        if self.nprojectors == 0:
            return 0.0
        amps = self.project(c)  # (nproj, nbands)
        per_band = np.einsum("pn,pq,qn->n", amps.conj(), self.coupling, amps).real
        return self.grid.dv * float(np.dot(np.asarray(weights, float), per_band))
