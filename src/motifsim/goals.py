"""Goal vocabulary shared by the planner and the agent runtime.

A goal's predicate is compiled like a guard (`expr.compile_guard`): it
is boolean, a reference to an unbound optional is false, and any other
value is an `EvalError` naming the goal.  A utility scores 0 where it
is undefined or fails to evaluate.  Goals are evaluated in no motif, so
`Model.build` rejects a goal whose map lookup names no motif.
"""

from .errors import EvalError
from .expr import UNDEF, Ctx, Scope, UnboundParam, compile_guard

CRITICAL = "critical"
BEST_EFFORT = "best_effort"

AVOID = "avoid"
REACH = "reach"
UTILITY = "utility"


class Goal:
    """A named objective.

    Critical goals are avoid/reach properties that must hold; best-effort
    goals are pursued when compatible.  Lower priority = more important.
    """

    __slots__ = ("name", "kind", "predicate", "utility", "criticality",
                 "priority", "order", "_pred_c", "_util_c")

    def __init__(self, name, kind, predicate=None, utility=None,
                 criticality=BEST_EFFORT, priority=0, order=0):
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
        self._pred_c = self._util_c = None

    def compile(self, cfg=None):
        """Compile the predicate and the utility; with `cfg`, check every
        name they use against it (`Scope`)."""
        scope = Scope(cfg=cfg)
        if self.predicate is not None:
            self._pred_c = compile_guard(self.predicate, scope,
                                         f"goal {self.name!r}")
        if self.utility is not None:
            self._util_c = self.utility.compile(scope)

    def holds(self, cfg):
        """Evaluate the avoid/reach predicate on a configuration."""
        if self._pred_c is None:
            self.compile()
        return self._pred_c(Ctx(cfg))

    def score(self, cfg):
        """Evaluate the utility expression on a configuration; an unbound
        parameter, an evaluation error and an undefined address score 0."""
        if self._util_c is None:
            self.compile()
        try:
            v = self._util_c(Ctx(cfg))
        except (UnboundParam, EvalError):
            return 0
        return 0 if v is UNDEF else v

    def sort_key(self):
        return (0 if self.criticality == CRITICAL else 1, self.priority, self.order)
