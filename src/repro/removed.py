"""Names this package used to export, and what replaced them.

One table, two readers: the ``removed-api`` lint rule flags any import or
attribute access in source that would bring a name back, and
the backend registry refuses an engine name this package used to ship
with its remedy instead of as a typo.

A tombstone lives two minor versions after the one that removed the
name: an entry added in 1.N.0 is deleted in 1.(N+3).0, and from then on
the name is an ordinary unknown name.  Nothing outside this repository
imports ``repro``, so that is long enough for a stale branch or notebook
to be told where the name went.
"""

from __future__ import annotations

from typing import Dict

#: dotted module/function/attribute name -> where its job went
REMOVED_NAMES: Dict[str, str] = {
    # 1.11.0
    "repro.backend.scipy_backend": "repro.backend.numpy_backend (the one engine)",
    "ScipyBackend": "NumpyBackend: its transforms are the pocketfft calls ScipyBackend made",
    "HAVE_SCIPY": "nothing: scipy is a hard dependency",
    "FFTPlan": "nothing: the normalization is folded into the transform",
    "Backend.plan": "nothing: the normalization is folded into the transform",
    "Backend.scratch": "Backend.empty (nothing in the package reused a workspace)",
}

#: ``[backend] name`` this package used to register -> what the user should do
REMOVED_BACKENDS: Dict[str, str] = {
    # 1.11.0
    "scipy": "merged into the default engine in 1.11.0: delete `name`, keep `fft_workers`",
    "counting": "removed in 1.11.0: delete `name`; `count_ffts = true` (the default) "
    "counts transforms on any engine",
}
