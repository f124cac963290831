"""Collects acceptance verdict lines and prints them after the test run,
outside pytest's output capture, and holds the fixture that puts scipy's
OpenBLAS on numpy's thread count for the scipy oracle comparisons."""

import ctypes

import pytest

_VERDICTS = []


def register_verdict(line):
    _VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in _VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def scipy_blas_threads_as_numpy():
    """Sets scipy's OpenBLAS to numpy's thread count, through scipy's own
    LAPACK handle, under the first symbol decoration it exports.

    The toolkit pins numpy's OpenBLAS alone, and the two libraries give the
    same bytes only when they split a product alike: a complex stack's
    refit differs in 1 of 60 random stacks with numpy on 1 thread and scipy
    on 2.  Nothing is restored, as the toolkit restores nothing either.
    """
    import scipy.linalg
    from hypercs.kernels import OPENBLAS_THREADS, SYMBOL_DECORATIONS, openblas_threads

    lib = ctypes.CDLL(scipy.linalg._flapack.__file__)
    (name, prototype), _ = OPENBLAS_THREADS
    setters = [prototype((symbol, lib)) for prefix, suffix, _ in SYMBOL_DECORATIONS
               if hasattr(lib, symbol := prefix + name + suffix)]
    for (_, getter), setter in zip(openblas_threads(), setters):
        setter(getter())
