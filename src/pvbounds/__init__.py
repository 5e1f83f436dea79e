"""Exact maximal Dirichlet character sums, explicit Polya-Vinogradov-type
bounds, and the numeric verification harness tying them together."""

from .characters import (
    DirichletCharacter,
    UnitGroupStructure,
    character_from_label,
    conductor,
    enumerate_characters,
    gauss_sum,
    unit_group,
)
from .charsums import (
    PrefixWalk,
    brute_force_s,
    char_sum_result,
    max_initial_sum,
    max_interval_sum,
    prefix_walk,
)
from .bounds import (
    BoundValue,
    EULER_GAMMA,
    c0,
    catalog_bounds,
    crossover,
    evaluate_bound,
    pomerance_bound,
    theorem1_bound,
)
from .kernel import (
    GridSpec,
    KernelParams,
    constant_derivation,
    default_grid,
    g_p_closed,
    g_p_direct,
    lambda_identity_check,
    lemma3_check,
    lemma4_check,
    omega,
    omega_star,
    s_u_p,
    sawtooth,
    theta,
)
from .lemmas import (
    LemmaSweepConfig,
    default_lemma1_config,
    default_lemma2_config,
    lemma1_check,
    lemma2_check,
)
from .harness import (
    SweepConfig,
    SweepReport,
    gauss_check_range,
    run_sweep,
    twist_check_range,
    verify_all,
)

__version__ = "0.1.0"
