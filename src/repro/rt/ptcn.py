"""PT-CN: the parallel-transport Crank–Nicolson scheme (pure states).

The predecessor method (Jia, An, Wang & Lin, JCTC 2018) that PT-IM
generalizes: applicable when the occupation matrix is diagonal and
*constant* (gapped systems at zero temperature — paper Sec. I).  One step
solves the fixed point

``Phi_{n+1} = Phi_n - i dt/2 [ H_{n+1/2} Phi_{n+1/2}
             - Phi_{n+1/2} (Phi*_{n+1/2} H_{n+1/2} Phi_{n+1/2}) ]``

with PT-IM's own Anderson-accelerated fixed-point driver and IMEX map:
the step is a PT-IM step whose sigma update returns the frozen matrix.
Included for completeness and as a cross-check: for a diagonal constant
sigma, PT-IM and PT-CN trajectories agree to the integrator order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.occupation.sigma import hermitize
from repro.rt.propagator import StepStats, TDState
from repro.rt.ptim import PTIMOptions, PTIMPropagator


@dataclass
class PTCNOptions(PTIMOptions):
    """Same knobs as PT-IM (the fixed-point machinery is shared)."""


class PTCNPropagator(PTIMPropagator):
    """Parallel-transport Crank–Nicolson for (near-)pure states.

    ``sigma`` is held fixed during the step; only the orbitals evolve.
    For genuinely mixed states use :class:`~repro.rt.ptim.PTIMPropagator`
    — PT-CN silently ignores sigma dynamics, which is exactly its
    documented limitation (the motivation for PT-IM).
    """

    name = "pt-cn"
    options_class = PTCNOptions

    def _sigma_update(self, state, h_sub, sigma_mid, dt, sigma_out) -> None:
        """The occupation matrix frozen: its residual is zero, no resolvent."""
        sigma_out[...] = state.sigma

    def step(self, state: TDState, dt: float) -> Tuple[TDState, StepStats]:
        frozen = TDState(state.phi, hermitize(state.sigma), state.time)
        new, stats = super().step(frozen, dt)
        # the mixed sigma is a sum-to-one combination of copies of the
        # frozen one: equal to round-off, so hand back the exact matrix
        return TDState(new.phi, frozen.sigma, new.time), stats
