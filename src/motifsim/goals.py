"""Goal vocabulary shared by the planner and the agent runtime.

A goal's predicate is compiled like a guard (`expr.compile_guard`): it
is a bool, and a reference to an unbound optional is false.  A utility
is an int, a real or a node, and scores 0 where it is undefined or fails
to evaluate.  `Model.build` rejects a goal of another type, and, since
goals are evaluated in no motif, one whose map lookup names no motif.
"""

from .errors import EngineError
from .expr import INT, NODE, REAL, UNDEF, Ctx, Scope, UnboundParam, compile_guard

CRITICAL = "critical"
BEST_EFFORT = "best_effort"

AVOID = "avoid"
REACH = "reach"
UTILITY = "utility"


class Goal:
    """A named objective.

    Critical goals are avoid/reach properties that must hold; best-effort
    goals are pursued when compatible.  Lower priority = more important.
    A goal compiles its expressions once, when it is made; given `cfg`,
    as `Model.build` gives it, it checks every name they use against it,
    and their types (`Scope`).  Without one it checks nothing.
    """

    __slots__ = ("name", "kind", "predicate", "utility", "criticality",
                 "priority", "order", "_pred_c", "_util_c")

    def __init__(self, name, kind, predicate=None, utility=None,
                 criticality=BEST_EFFORT, priority=0, order=0, cfg=None):
        if kind not in (AVOID, REACH, UTILITY):
            raise ValueError(f"bad goal kind {kind!r}")
        if criticality not in (CRITICAL, BEST_EFFORT):
            raise ValueError(f"bad criticality {criticality!r}")
        if criticality == CRITICAL and kind == UTILITY:
            raise ValueError("critical goals must be avoid or reach")
        if kind == UTILITY and utility is None:
            raise ValueError("utility goal needs an expression")
        if kind in (AVOID, REACH) and predicate is None:
            raise ValueError(f"{kind} goal needs a predicate")
        self.name = name
        self.kind = kind
        self.predicate = predicate
        self.utility = utility
        self.criticality = criticality
        self.priority = priority
        self.order = order
        scope = Scope(cfg=cfg)
        self._pred_c = None if predicate is None else compile_guard(predicate, scope)
        self._util_c = None if utility is None else utility.compile(scope, (INT, REAL, NODE))

    def holds(self, cfg):
        """Evaluate the avoid/reach predicate on a configuration."""
        return self._pred_c(Ctx(cfg))

    def score(self, cfg):
        """Evaluate the utility expression on a configuration; an unbound
        parameter, an engine error (an evaluation error, a node the map
        lacks) and an undefined address score 0."""
        try:
            v = self._util_c(Ctx(cfg))
        except (UnboundParam, EngineError):
            return 0
        return 0 if v is UNDEF else v

    def sort_key(self):
        return (0 if self.criticality == CRITICAL else 1, self.priority, self.order)
