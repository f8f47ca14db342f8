"""Gaussian belief propagation for bundle adjustment.

A factor graph of keyframes and landmarks, held as one columnar layout of
stacked per-node arrays (`FactorGraph`), is solved by synchronous,
bulk-synchronous-parallel message passing in information form, three
vectorised phases per round over those arrays, with Huber robust factors,
local relinearisation, message damping and automatically generated
weakening priors.  A dense MAP/marginal oracle and an internal
Levenberg-Marquardt baseline verify every claim the solver makes.
"""

from .camera import Intrinsics, retract
from .dataset_io import (
    FormatVersionError,
    GenerationError,
    ParseError,
    ProblemSpec,
    import_bal,
    inject_outliers,
    load,
    perturb,
    save,
    synthesize,
)
from .dense_oracle import (
    DenseSystem,
    LMReport,
    OracleScaleError,
    SingularSystemError,
    assemble,
    lm_solve,
    map_solve,
    marginals,
)
from .engine import (
    IterationReport,
    ScheduleParams,
    SolveReport,
    iterate,
    run,
    solve,
)
from .factor_graph import (
    BuildError,
    FactorGraph,
    build,
    huber_energy,
    huber_weight,
)

__version__ = "0.1.0"
