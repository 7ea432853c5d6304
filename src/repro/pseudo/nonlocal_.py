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
the distinct ``|G|`` values of the whole grid (77 of 1728 points at 12³),
and gathered to the cutoff sphere; sphere points that share ``|G|``
receive the very number the quadrature gives for that ``|G|``, so this is
exact, not an interpolation.  ``|G|``, ``Ĝ`` and each atom's structure
factor are gathered to the sphere too, so the per-atom products and the
table itself are ``npw`` wide, never ``ngrid``.  Nothing outlives the
object.
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
    """Real spherical harmonics for l <= 1 on unit vectors, flat shape
    (:class:`~repro.pseudo.hgh.HGHParameters` refuses a higher channel)."""
    if l == 0:
        return np.full(unit_g.shape[:-1], 0.5 / math.sqrt(math.pi))
    c = math.sqrt(3.0 / (4.0 * math.pi))
    # order m = -1, 0, 1 -> y, z, x
    comp = {-1: 1, 0: 2, 1: 0}[m]
    return c * unit_g[..., comp]


@dataclass
class NonlocalPseudopotential:
    """All Kleinman–Bylander projectors of a cell, ready to apply.

    Attributes
    ----------
    beta_sphere:
        The table the operator applies: ``sqrt(Ω) β`` on the cutoff
        sphere, shape ``(nprojectors, npw)``.
    coupling:
        Block-diagonal coupling matrix ``h`` over all projectors,
        shape ``(nprojectors, nprojectors)``.
    labels:
        ``(atom, symbol, l, m, i)`` of each projector row.
    """

    grid: PlaneWaveGrid

    @traced("pseudo.nonlocal.init")
    def __post_init__(self) -> None:
        grid = self.grid
        cell = grid.cell
        volume = cell.volume
        sphere = grid.sphere_index
        q_flat = grid.to_flat(np.sqrt(grid.gvec.g2)[None])[0]
        # the radial tables are evaluated on the whole grid's |G| shells:
        # the quadrature's last bit depends on how many values it is given
        q_shell, shell_of = np.unique(q_flat, return_inverse=True)
        shell_of = shell_of[sphere]
        q = q_flat[sphere, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = grid.gvec.cartesian.reshape(-1, 3)[sphere] / np.where(q > 1e-12, q, 1.0)
        radial_of: Dict[Tuple[str, int], List[np.ndarray]] = {}

        betas: List[np.ndarray] = []
        blocks: List[np.ndarray] = []
        labels: List[Tuple[int, str, int, int, int]] = []

        for atom_index, symbol in enumerate(cell.species):
            params = get_pseudopotential(symbol)
            sfac = grid.to_flat(
                grid.gvec.structure_factor(cell.positions[atom_index])[None]
            )[0][sphere]
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
                phase = (-1j) ** l
                for m in range(-l, l + 1):
                    ylm = _real_sph_harm(l, m, unit)
                    for i in range(nproj):
                        betas.append(np.sqrt(volume) * ((phase / volume) * radial[i] * ylm * sfac))
                        labels.append((atom_index, symbol, l, m, i))
                    blocks.append(h)

        self.coupling: np.ndarray = np.zeros((len(labels), len(labels)))
        off = 0
        for b in blocks:
            self.coupling[off : off + len(b), off : off + len(b)] = b
            off += len(b)
        self.labels = labels
        self.beta_sphere: np.ndarray = np.array(betas, dtype=complex).reshape(-1, grid.npw)

    @property
    def nprojectors(self) -> int:
        return self.beta_sphere.shape[0]

    # -- application ---------------------------------------------------------
    def project(self, c: np.ndarray) -> np.ndarray:
        """``beta_sphere^* c~`` for a sphere block ``(nbands, npw)``: the
        projector amplitudes ``<beta_p | phi_n>`` over ``sqrt(dV)``,
        shape ``(nproj, nbands)``."""
        return self.beta_sphere.conj() @ c.T

    @traced("pseudo.nonlocal.apply_g")
    def apply_g(self, c: np.ndarray) -> np.ndarray:
        """``V_nl phi`` for a sphere block ``(nbands, npw)``."""
        return (self.coupling @ self.project(c)).T @ self.beta_sphere

    def energy(self, c: np.ndarray, weights: np.ndarray) -> float:
        """Nonlocal energy ``Σ_n w_n <phi_n|V_nl|phi_n>`` of a sphere block."""
        amps = self.project(c)  # (nproj, nbands)
        per_band = np.einsum("pn,pq,qn->n", amps.conj(), self.coupling, amps).real
        return self.grid.dv * float(np.dot(np.asarray(weights, float), per_band))
