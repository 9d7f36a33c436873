from .grids import GridConfig, circle_angles, interval_nodes
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
    random_toeplitz_poly,
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
    WindingError,
    equivariant_parity_probe,
    mattprop_report,
    peter_weyl_report,
    winding_number,
)
