"""Motif-based reconfigurable architecture engine.

Components live on motif maps; guarded parametric rules move, connect
and reconfigure them.  Deliberative agents plan against two-player game
abstractions of the rest of the system.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    EffectError,
    EngineError,
    InvariantViolation,
    NoSafePlan,
    ReplayDivergence,
    StateBudgetExceeded,
)
from .games import (  # noqa: F401
    Controller,
    export_controller,
    ground,
    import_controller,
    plan_horizon,
    solve_reach,
    solve_safety,
)
from .goals import Goal  # noqa: F401
from .lang import load, parse, print_model  # noqa: F401
from .sim import World, replay, run  # noqa: F401
