"""Metaplectic time-frequency machinery.

Symplectic factorizations and generator words, an exact calculus of
generalized Gaussians under metaplectic letters, an FFT grid engine,
Alternative I/II certificates for doubled-phase-space representations,
and numerical checkers for Beurling / Hardy / Gelfand-Shilov / Nazarov
conditions.  Names live in their modules (``mtfr.certify.certify``); the
package only loads the modules.
"""

from . import errors  # loads no numpy, so the thread caps below still come first


def _thread_cap():
    """MTFR_THREADS as a positive integer, or None when it is unset or empty.

    The one rule for MTFR_THREADS: any other value raises MtfrError.
    """
    import os

    cap = os.environ.get("MTFR_THREADS")
    if not cap:
        return None
    try:
        threads = int(cap)
    except ValueError:
        threads = 0
    if threads < 1:
        raise errors.MtfrError(f"MTFR_THREADS must be a positive integer, got {cap!r}")
    return threads


def _cap_threads():
    """Copy a valid MTFR_THREADS into the BLAS/OpenMP caps; must run before numpy loads.

    A bad value is copied nowhere: `mtfr.cli.main` and the grid's pool report it.
    """
    import os

    try:
        cap = _thread_cap()
    except errors.MtfrError:
        return
    if cap is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(cap))


_cap_threads()

from . import certify, checks, gaussian, grid, serialize, symplectic, unitary  # noqa: E402

__version__ = "0.1.0"
