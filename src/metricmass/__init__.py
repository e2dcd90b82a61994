"""Missing-mass estimation and concentration bounds in metric spaces.

Estimate the probability of observing data farther than a chosen distance
from every point of an iid sample, certify the estimate with closed-form
variance and tail bounds driven by an empirical local packing statistic,
and validate every inequality against analytic and Monte Carlo oracles.
"""

__version__ = "0.1.0"

from .applications import (
    CodingReport,
    ProximityClassifier,
    classify,
    classify_batch,
    coding_report,
    false_alarm_certificate,
    nn_encode,
)
from .bounds import (
    BoundReport,
    gt_error_bounds,
    tail_bound_G,
    tail_bound_Mhat,
    variance_bound_G,
    variance_bound_Mhat,
)
from .distributions import (
    BasisUniformSpec,
    DiscreteSpec,
    LowdimEmbeddingSpec,
    PointMassSpec,
    ScaledIndicatorSpec,
    SphereAtomSpec,
    UniformIntervalSpec,
    adversarial_pair,
    discrete_uniform,
    discrete_zipf,
    draw_sample,
    indicator_process,
    sample_points,
    spec_from_dict,
    spec_to_dict,
)
from .estimators import (
    Estimate,
    all_martingale_estimates,
    good_turing,
    good_turing_interval,
    martingale_estimate,
    martingale_upper_bound,
    net_missing_mass_bound,
    subsample_supremum_slack,
)
from .meb import meb_radius, minimum_enclosing_ball
from .oracles import (
    OracleEstimate,
    conditional_missing_mass,
    conditional_missing_masses,
    exact_wasserstein_1d,
    expected_missing_mass,
    smoothed_oracle_H,
)
from .samples import (
    InvalidNetError,
    Sample,
    farthest_first_net,
    is_r_separated,
    make_sample,
    sample_from_csv,
    sample_from_json,
    verify_net,
)
from .separation import (
    SeparationReport,
    eh_upper_from_sample,
    h_clique_relaxed,
    h_exact,
)
from .simulate import SimulationConfig, run_campaign
from .spaces import (
    DimensionError,
    MetricSpace,
    ball_contains,
    discrete,
    euclidean,
    lp,
    precomputed,
    scaled_indicator,
)
from .wasserstein import (
    WassersteinReport,
    default_r_grid,
    w1_lower_bound,
    w1_report,
    w1_upper_bounds,
)
