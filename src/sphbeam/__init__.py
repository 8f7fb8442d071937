"""Optimal modal beamforming and independent steering for spherical
loudspeaker arrays."""

from .design import (
    Sweep,
    dolph_chebyshev_weights,
    max_directivity_weights,
    max_wng_weights,
    sweep,
)
from .metrics import (
    MetricReport,
    directivity_factor,
    directivity_index,
    report,
    wng,
)
from .radiation import (
    ArrayGeometry,
    C,
    RHO0,
    beam_pattern_modal,
    cap_gain,
    dodecahedron,
    great_circle_angle,
    radial_far,
    radial_near,
)
from .synthesis import (
    TransformMatrices,
    build_transform,
    near_field_steer,
    steer,
    unit_weights,
)
from .virtualmeas import (
    SamplingGrid,
    Simulation,
    TransferMatrix,
    discrete_sft,
    gaussian_grid,
    measured_pattern,
    pattern_error,
    perturb_transfer,
    simulate,
    transfer_matrix,
    virtual_measure,
)

__version__ = "0.1.0"
