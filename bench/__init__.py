"""Whole-workload benchmark of the ``repro`` package, measured from outside.

Four workloads (a hybrid PT-IM-ACE run, a dense-exchange run on two
simulated ranks, a resumable sweep, a served burst), seven end-to-end
metrics (five timings, peak memory, and the failed fraction every result
carries), and a per-layer trace obtained by wrapping ``repro``'s public
callables at run time.  Nothing under ``src/`` knows this package
exists.  See ``bench/README.md`` for the metric definitions and
``BENCHMARK.json`` at the repository root for the contract.

Run ``python -m bench --help`` from the repository root.
"""
