"""Regenerate the paper's evaluation tables from the calibrated model.

Prints Fig. 9 (step-by-step speedups), Fig. 10 (strong scaling), Fig. 11
(weak scaling) and Table I (communication breakdown) for both platforms,
next to the paper's reported numbers.  The report itself lives in
:mod:`repro.perf.experiments`; the same text is available from the facade CLI
as ``python -m repro perf``.

Run:  python examples/scaling_projection.py
"""

from repro.perf.experiments import scaling_report


def main() -> None:
    print(scaling_report())


if __name__ == "__main__":
    main()
