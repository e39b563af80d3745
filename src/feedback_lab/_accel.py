"""The backend stamp of ``perfbench/run.py``, its only reader.

Every kernel is plain Python, so there is one backend and no numba.
"""

HAS_NUMBA = False


def backend_name() -> str:
    return "python"
