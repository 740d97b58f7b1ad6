"""freefock: free-semigroup operator models on truncated Fock spaces.

Creation-operator matrices, free power series and Cayley transforms,
noncommutative Poisson/Berezin/Herglotz/Fantappie transforms,
multi-Toeplitz positivity, and a certified Caratheodory interpolation
solver.
"""

__version__ = "0.1.0"

from .caratheodory import (
    CaratheodoryProblem,
    CFProblem,
    ExtensionResult,
    cayley_route,
    cf_check,
    cf_to_caratheodory,
    check_feasibility,
    extend,
    moment_problem_view,
    verify_solution,
)
from .errors import (
    InfeasibleError,
    InputError,
    ScopeError,
    SizeLimitError,
)
from .fock import (
    FockTrunc,
    OperatorTuple,
    SplitMix64,
    berezin_kernel,
    berezin_transform,
    isometric_dilation,
    poisson_kernel,
    poisson_transform,
    random_nilpotent_stack,
    random_nilpotent_tuple,
    reconstruction_operator,
    tail_bound,
)
from .multianalytic import hinf_norm
from .pluriharmonic import (
    PluriharmonicFn,
    check_positive,
    coefficient_bound_check,
    harnack_check,
    is_multi_toeplitz,
    mean_value_check,
    pluriharmonic_poisson_kernel,
    poisson_at,
    radial_boundary,
    real_part,
)
from .series import (
    FreeSeries,
    JsrEstimate,
    cayley_forward,
    cayley_inverse,
    eval_at,
    eval_at_creation,
    extract_coeffs,
    jsr_estimate,
    multiply,
    neumann_inverse,
    radius_estimate,
    truncated_cayley,
)
from .toeplitz import assemble_T
from .transforms import (
    MomentFunctional,
    fantappie_transform,
    fejer_check,
    from_vector_states,
    herglotz_from_isometries,
    herglotz_transform,
    kernel_from_series,
    poisson_pluriharmonic,
    poisson_transform_of,
    positivity_equivalence_check,
    radial_functional,
)
from .words import GradedBasis, left_quotient, reverse, right_quotient
