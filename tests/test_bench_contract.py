"""The names ``bench/`` wraps must exist in ``repro``.

The benchmark traces from outside: ``bench.layers.SPAN_TARGETS`` names
public callables of ``repro`` — ``FockExchangeOperator.apply_diag``,
``DistributedFockExchange.apply_diag``, ``Hamiltonian.build_ace``, the
``SimComm`` methods, ... — and ``bench.trace.Tracer.install`` replaces
them by name.  A PR that claims a gain may not edit ``bench/``, so a
rename or a method moved to a base class has to fail here, in tier-1,
not in the benchmark run after the PR is closed.
"""

import importlib

import pytest

from bench.layers import SPAN_TARGETS


@pytest.mark.parametrize("target", SPAN_TARGETS, ids=lambda t: f"{t.module}:{t.qualname}")
def test_span_target_resolves_to_a_callable(target):
    module = importlib.import_module(target.module)
    if "." in target.qualname:
        # the tracer patches the class's own attribute, so an inherited
        # method does not count
        cls_name, attr = target.qualname.split(".", 1)
        owner = vars(getattr(module, cls_name))
        assert attr in owner, f"{target.qualname} is not defined on the class itself"
        assert callable(owner[attr])
    else:
        assert callable(getattr(module, target.qualname))
