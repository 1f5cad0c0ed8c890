"""Metaplectic time-frequency machinery.

Symplectic factorizations and generator words, an exact calculus of
generalized Gaussians under metaplectic letters, an FFT grid engine,
Alternative I/II certificates for doubled-phase-space representations,
and numerical checkers for Beurling / Hardy / Gelfand-Shilov / Nazarov
conditions.  Names live in their modules (``mtfr.certify.certify``); the
package only loads the modules.
"""


def _cap_threads():
    """Copy MTFR_THREADS into the BLAS/OpenMP caps; must run before numpy loads."""
    import os

    cap = os.environ.get("MTFR_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_cap_threads()

from . import certify, checks, errors, gaussian, grid, serialize, symplectic, unitary  # noqa: E402

__version__ = "0.1.0"
