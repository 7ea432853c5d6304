"""PT-IM-ACE: the double-SCF-loop propagator of paper Fig. 4(b).

The expensive dense Fock operator is evaluated only in the *outer* loop,
where each iteration builds one ACE operator, on the current midpoint
estimate.  The *inner* loop then runs the PT-IM fixed-point iteration
with that compressed operator, whose application is two skinny GEMMs
instead of N^2 FFTs — on the cutoff sphere, like the whole fixed point
(see ``rt/ptim.py``); only the dense evaluation that feeds an ACE build
sees real-space rows.  The first build's midpoint is the state itself,
imaged as ``observe`` images it, so when the state's energy was recorded
its dense self-application is answered from the record
(``Hamiltonian.dense_exchange``) and the step computes one fewer.

Each later build starts from the midpoint's eigenbasis image the last
inner loop's last density was taken on: ``W~ = V_x phi~`` is the
dense operator's self-application with weights ``d``, compressed with
``c~``.  ``V_ACE = W (Phi* W)^-1 W*`` does not change under a unitary
rotation of its generating block, so this is the operator of ``(c_mid,
sigma_mid)``, and a build neither decomposes sigma nor rotates: per
step ``sigma`` is decomposed ``n_inner + 1`` times.

Outer convergence follows the paper: the exchange energy change between
consecutive outer iterations falls below ``exchange_tol``; inner
convergence is the fixed point's midpoint-density test, and the image
it is taken on is the one the exchange energy is read on and the next
ACE build starts from.  Paper statistics for 384-atom silicon: ~5 outer
x ~13 inner, reducing dense-exchange work by ~80 % versus the 25 dense
applications of single-loop PT-IM; here, on the 8-atom ``si8-hse-ace``
benchmark with the IMEX map of ``rt/ptim.py``: 6.7 outer x 5.3 inner,
versus 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.rt.propagator import StepStats, TDState
from repro.rt.ptim import MidpointImage, PTIMOptions, PTIMPropagator
from repro.trace import traced
from repro.utils.validation import setting


@dataclass
class PTIMACEOptions(PTIMOptions):
    """Double-loop controls (inherits the PT-IM fixed-point knobs)."""

    exchange_tol: float = setting(1.0e-6, float, lo=0, open=True)
    max_outer: int = setting(10, int, lo=1)
    max_inner: int = setting(20, int, lo=1)


class PTIMACEPropagator(PTIMPropagator):
    """PT-IM with adaptively compressed exchange (paper Sec. IV-A2)."""

    name = "pt-im-ace"
    options_class = PTIMACEOptions

    def _set_midpoint_exchange(self, image: MidpointImage) -> None:
        """Exchange is the fixed compressed operator for a whole inner loop."""

    @traced("rt.step")
    def step(self, state: TDState, dt: float) -> Tuple[TDState, StepStats]:
        opts: PTIMACEOptions = self.options  # type: ignore[assignment]
        ham = self.ham
        if not ham.functional.is_hybrid:
            # without exact exchange the double loop degenerates to PT-IM
            return super().step(state, dt)

        packed, x = self._pack(state)
        n_inner_total = 0
        n_outer = 0
        prev_ex: Optional[float] = None
        resid = np.inf
        converged = False

        # each midpoint is decomposed and taken to real space once: the
        # loop tests its last iterate on the image the next ACE build needs
        image = self._start_image(state)
        for _ in range(opts.max_outer):
            n_outer += 1
            # one dense (N^2-FFT) exchange evaluation on the midpoint's
            # eigenbasis rows + compression on the sphere
            ace_mid = ham.build_ace(image.phi, image.d, image.c)
            ham.set_ace(ace_mid)

            x, n_inner, resid, inner_converged, image = self._solve_fixed_point(
                packed, dt, x, opts.max_inner, image
            )
            n_inner_total += n_inner

            # outer convergence: exchange-energy stability (Fig. 4(b)), read
            # on the accepted iterate's midpoint image
            ex = ace_mid.exchange_energy(image.c, image.d, ham.degeneracy)
            if prev_ex is not None and abs(ex - prev_ex) < opts.exchange_tol:
                converged = inner_converged
                break
            prev_ex = ex

        stats = StepStats(
            scf_iterations=n_inner_total,
            outer_iterations=n_outer,
            fock_applications=n_outer,
            ace_builds=n_outer,
            residual=resid,
            converged=converged,
        )
        return self._finish_step(packed, dt, x), stats
