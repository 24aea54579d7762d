"""Volume registration of tiled acquisitions (Section V-C).

The third of the paper's three use cases: align a grid of overlapping 3D
stacks by correlating their overlap regions (a 2D neighbor dataflow over
Z slabs) and solving for global positions.
"""

from repro.analysis.registration.correlate import (
    OffsetEstimate,
    consensus_offset,
    ncc_shift,
)
from repro.analysis.registration.tasks import (
    RegistrationCostParams,
    RegistrationWorkload,
)
from repro.analysis.registration.volumes import SyntheticVolumeGrid, VolumeGridSpec

__all__ = [
    "OffsetEstimate",
    "RegistrationCostParams",
    "RegistrationWorkload",
    "SyntheticVolumeGrid",
    "VolumeGridSpec",
    "consensus_offset",
    "ncc_shift",
]
