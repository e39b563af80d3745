"""Optional numba compilation for the hot numeric kernels.

Every kernel in ``kernels`` has one body.  When numba imports, the body
is compiled with ``@njit`` (cached on disk after the first build);
otherwise it runs as plain Python over numpy arrays.  Whether numba
imports is the only backend decision.
"""

try:
    import numba as _numba
    HAS_NUMBA = True
except ImportError:  # pragma: no cover - depends on environment
    _numba = None
    HAS_NUMBA = False


def njit_compile(func):
    """Compile ``func`` with numba if available, else return it unchanged."""
    if not HAS_NUMBA:
        return func
    return _numba.njit(cache=True)(func)


def backend_name() -> str:
    return "numba" if HAS_NUMBA else "numpy"
