"""repro.api — the single entry point for all beamforming.

The paper's three execution paths (classical, learned, FPGA-quantized)
share one contract: dataset in, complex IQ image out.  This package
exposes that contract as :class:`Beamformer` with concrete adapters for
every datapath and a string-spec factory:

    from repro.api import create_beamformer

    bf = create_beamformer("mvdr")
    iq = bf.beamform(dataset)

    quantized = create_beamformer("tiny_vbf@20 bits")
    images = quantized.beamform_batch(frames)   # one ToF plan, N frames

Under the hood every adapter fetches its per-pixel delay tables from the
LRU-cached :class:`~repro.beamform.tof.TofPlan`, so repeated frames on
one acquisition geometry skip the delay recomputation entirely (the
architecture and cache contract are documented in DESIGN.md).
"""

from repro.api.base import (
    Beamformer,
    NonFiniteRfError,
    dataset_plan_key,
    dataset_tof_plan,
    dataset_tofc,
    group_indices_by_geometry,
    normalized_tofc,
)
from repro.api.adapters import (
    DasBeamformer,
    LearnedBeamformer,
    MvdrBeamformer,
    QuantizedBeamformer,
)
from repro.api.factory import (
    create_beamformer,
    parse_spec,
    register_beamformer,
    registered_beamformers,
)

__all__ = [
    "Beamformer",
    "DasBeamformer",
    "MvdrBeamformer",
    "NonFiniteRfError",
    "LearnedBeamformer",
    "QuantizedBeamformer",
    "create_beamformer",
    "parse_spec",
    "register_beamformer",
    "registered_beamformers",
    "dataset_plan_key",
    "dataset_tof_plan",
    "dataset_tofc",
    "group_indices_by_geometry",
    "normalized_tofc",
]
