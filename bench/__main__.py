"""``python -m bench`` — run from the repository root.

Modes::

    python -m bench                       all four workloads, fresh process each, report
    python -m bench --traced              ... plus a traced pass: per-layer metrics, trace files
    python -m bench --compare A.json B.json
    python -m bench --selftest
    python -m bench --workload W --seed N --seconds S --trace 0|1
                                          one run; last stdout line is the result object

Everything this module does at import is set two environment defaults
and one ``sys.path`` entry, so spawned workers (which re-import it as
``__mp_main__``) start nothing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

# before numpy is imported anywhere: one BLAS/OpenMP thread per process,
# so "at most min(2, nproc) compute processes" means that many cores
for _pin in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pin] = "1"

# ``repro`` is used from the checkout, never from an installed copy;
# children (pool, service workers, set-up probes) inherit the path
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(_ROOT / "src"), str(_ROOT)]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload and print the result object")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="size of a run (default: 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3, help="fresh-process runs per workload (suite)")
    parser.add_argument("--traced", action="store_true", help="suite: add a traced pass")
    parser.add_argument("--out", type=Path, default=None, help="output directory (default: bench/out)")
    parser.add_argument("--detail", type=Path, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not (_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {_ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    if args.compare:
        from bench.compare import compare_files

        return compare_files(*args.compare)
    if args.selftest:
        from bench.selftest import selftest

        return selftest()

    from bench import layers, runner
    from bench.workloads import REFERENCE_SECONDS

    seconds = float(REFERENCE_SECONDS) if args.seconds is None else args.seconds
    if seconds <= 0:
        parser.error("--seconds must be positive")
    out = runner.DEFAULT_OUT if args.out is None else args.out

    if args.setup_probe:
        return runner.setup_probe(args.setup_probe, args.seed, seconds, out)
    if args.workload:
        if args.workload not in layers.WORKLOAD_NAMES:
            parser.error(f"unknown workload {args.workload!r}; one of {', '.join(layers.WORKLOAD_NAMES)}")
        result = runner.run_once(
            args.workload, args.seed, seconds, bool(args.trace), out_dir=out, detail_path=args.detail
        )
        print(json.dumps(result))
        return 0

    from bench.suite import run_suite

    return run_suite(seed=args.seed, seconds=seconds, runs=args.runs, traced=args.traced, out_dir=out)


if __name__ == "__main__":
    from bench.procs import owning_descendants

    # sidecars, probes, pool and service workers, the spawn pool's resource
    # tracker: all ended and waited for before this command returns
    with owning_descendants():
        _code = main()
    sys.exit(_code)
