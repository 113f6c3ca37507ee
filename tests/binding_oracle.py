"""Reference binding enumeration for `rules.enabled_bindings`.

Builds every full binding of a rule's required parameters and only then
runs the guard, with no pruning: the enumeration the engine used before
its per-rule binding plans.  `enabled_bindings` must return the same
list in the same order, or raise the same error.
"""

from motifsim.expr import Ctx


def enabled_bindings(cfg, motif_id, rule, fixed=None):
    motif = cfg.motif(motif_id)
    guard = rule.guard_fn()
    fixed = fixed or {}

    by_param = {}
    members = sorted(motif.members)
    for p in rule.params:
        if p.name in fixed:
            continue
        by_param[p.name] = [
            cid for cid in members
            if cid in cfg.components and cfg.components[cid].type.name == p.type
        ]

    required = [p for p in rule.params if p.required and p.name not in fixed]
    optional = [p for p in rule.params if not p.required and p.name not in fixed]
    ctx = Ctx(cfg, motif)
    out = []

    def extend_optionals(binding, used):
        for p in optional:
            for cid in by_param[p.name]:
                if cid in used:
                    continue
                binding[p.name] = cid
                ctx.binding = binding
                if guard(ctx):
                    used.add(cid)
                    break
                del binding[p.name]

    def rec(i, binding, used):
        if i == len(required):
            binding = dict(binding)
            used = set(used)
            extend_optionals(binding, used)
            ctx.binding = binding
            if guard(ctx):
                out.append(binding)
            return
        p = required[i]
        for cid in by_param[p.name]:
            if cid in used:
                continue
            binding[p.name] = cid
            used.add(cid)
            rec(i + 1, binding, used)
            used.discard(cid)
            del binding[p.name]

    base = dict(fixed)
    rec(0, base, set(base.values()))
    return out
