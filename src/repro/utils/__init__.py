"""Shared helpers: validation, atomic IO, deterministic RNG, lazy facades.

Import the module that defines a helper (``repro.utils.validation``,
``repro.utils.io``, ...): this package re-exports nothing, so the
facades that import :mod:`repro.utils.lazy` do not import numpy for it.
"""
