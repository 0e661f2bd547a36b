"""Site-specific RIS-assisted MU-MISO modeling and max-min rate optimization.

The package splits into:

- scene / coupling: deterministic 2D channel synthesis (image-method ray
  tracing plus a synthetic port coupling matrix), or ingestion of externally
  computed channel files.
- ris: varactor capacitance law, load impedances, control modes.
- channel: effective-channel assembly from components and loads, with
  analytic capacitance derivatives.
- beamforming: noise, SINR/rate metrics, and the max-min downlink beamformer
  via uplink-downlink duality.
- optimizer: alternating optimization (coordinate ascent + duality), the
  exhaustive 1-bit sweep, and the user-location perturbation study.
- cli: batch experiment commands emitting CSV/JSON reports.
"""

from .beamforming import (
    BeamformerMatrix,
    SinrReport,
    downlink_power_recovery,
    downlink_sinr,
    duality_beamformer,
    fixed_point_power_balance,
    mmse_combiner,
    noise_power,
    rates_from_sinr,
    uplink_sinr,
)
from .channel import (
    ChannelComponents,
    EffectiveChannel,
    assemble_effective_channel,
    assemble_from_config,
    channel_derivative,
    evaluate_gain_map,
    gain_map_db,
    group_channel_derivative,
)
from .coupling import mutual_impedance_sidebyside, synthesize_mutual_impedance
from .errors import (
    ChannelFileError,
    DualityError,
    GeometryError,
    InfeasibleUserError,
    RisOptError,
    SceneFileError,
    SingularChannelError,
)
from .fileio import (
    load_components,
    load_ris_config,
    load_scene,
    load_varactor_model,
    save_components,
    save_ris_config,
    save_scene,
    save_varactor_model,
)
from .optimizer import (
    BcdSettings,
    ExhaustiveResult,
    OptimizationTrace,
    PerturbationResult,
    alternating_optimize,
    armijo_coordinate_step,
    bcd_sweep,
    exhaustive_1bit_search,
    min_sinr_gradient,
    perturbation_study,
    rate_histogram,
    suppress_boundary_gradient,
)
from .ris import (
    C_OFF,
    C_ON,
    DEFAULT_VARACTOR,
    RisConfiguration,
    VaractorModel,
    bias_from_capacitance,
    calibrate_varactor,
    capacitance_from_bias,
    column_paired_grouping,
    enumerate_1bit_configs,
    identity_grouping,
    load_impedances,
    onebit_configuration,
)
from .scene import (
    ObservationGrid,
    PropagationPath,
    SceneDescription,
    Wall,
    default_scene,
    field_matrix,
    path_gain,
    synthesize_components,
    trace_paths,
    trace_users,
    with_users,
)

__version__ = "0.1.0"
