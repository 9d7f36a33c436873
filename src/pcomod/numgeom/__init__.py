import os
import sys

# No numeric check calls BLAS or LAPACK, yet numpy's bundled OpenBLAS starts a
# worker pool at load that spins on a second core.  OpenBLAS reads its thread
# count once, when numpy loads it, so pin it for that import only: later code
# and child processes see the environment the user gave, and a user's own
# setting (or a numpy already loaded) is left alone.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .grids import TOL, GridConfig, circle_angles, interval_nodes
from .circle import (
    delta_angle,
    gauge_conjugation_report,
    omega_hat,
    phi_hat,
    phi_hat_grid,
    phi_identities_report,
    splitting_identities_report,
)
from .toeplitz import (
    symbol,
    toeplitz_flip,
)
from .membership import (
    SphereElement,
    decomposition_report,
    disc_membership,
    equivariant_parts,
    face_atlas,
    pi_n,
    pi_n_inverse,
    rp2_membership,
)
from .probes import (
    ParityReport,
    equivariant_parity_probe,
    mattprop_report,
    peter_weyl_report,
    winding_numbers,
)
