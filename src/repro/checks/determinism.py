"""Determinism rules: the byte-identical-artifacts contract, machine-checked.

The reproduction's headline guarantee is that a fixed seed produces
byte-identical artifacts across worker counts, fault schedules and tracing.
That only holds while no code path reads ambient state: wall clocks, the
process-shared ``random`` module, environment variables, or the
hash-seed-dependent iteration order of a ``set``.  These rules turn each of
those into a gate.

``det.wall-clock``       direct ``time.time()``/``time.monotonic()``/
                         ``time.perf_counter()``/``datetime.now()`` reads
                         anywhere but the injectable-clock module
``det.unseeded-random``  module-level ``random.*`` calls or a seedless
                         ``random.Random()`` — RNG streams must come from
                         ``derive_seed`` plumbing
``det.env-read``         ``os.environ``/``os.getenv`` outside the CLI
``det.set-iteration``    iterating a ``set`` into an order-sensitive sink
                         (``for``, ``list()``, ``tuple()``, ``join``) —
                         ``sorted(...)`` it first; covers a set expression
                         in the sink and a function-local name bound only
                         to set expressions
"""

from __future__ import annotations

import ast

from repro.analysis.diagnostics import Severity
from repro.checks.engine import FileContext, Rule

#: ``time.<attr>`` reads that observe a clock (sleeping is a concurrency
#: concern, not a determinism one).
_CLOCK_READS = {
    "time", "monotonic", "perf_counter", "process_time", "thread_time",
    "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
}

#: ``datetime``/``date`` constructors that read the wall clock.
_DATETIME_READS = {"now", "utcnow", "today"}

#: Functions of the shared module-level RNG (``random.choice`` etc.).
_MODULE_RNG_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "getrandbits", "seed",
}


def _attr_root(node: ast.Attribute) -> str | None:
    return node.value.id if isinstance(node.value, ast.Name) else None


class WallClockRule(Rule):
    id = "det.wall-clock"
    severity = Severity.ERROR
    description = (
        "wall-clock reads are allowed only in the injectable-clock module "
        "(repro/resilience/clock.py); everywhere else, take a clock object"
    )

    #: The one module allowed to touch ``time`` directly.
    allowed = ("repro/resilience/clock.py",)

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.path.endswith(self.allowed)

    def visit(self, node: ast.AST, ctx: FileContext):
        if not isinstance(node, ast.Attribute):
            return
        root = _attr_root(node)
        if root == "time" and node.attr in _CLOCK_READS:
            yield self.finding(
                ctx, node,
                f"direct wall-clock read time.{node.attr}; route through the "
                "injectable clock (repro.resilience.clock)",
            )
        elif root in ("datetime", "date") and node.attr in _DATETIME_READS:
            yield self.finding(
                ctx, node,
                f"wall-clock read {root}.{node.attr}(); timestamps must come "
                "from an injected clock or the caller",
            )


class UnseededRandomRule(Rule):
    id = "det.unseeded-random"
    severity = Severity.ERROR
    description = (
        "no shared module-level RNG and no seedless random.Random(); every "
        "stream must be derived from the run seed (repro.runtime.derive_seed)"
    )

    def visit(self, node: ast.AST, ctx: FileContext):
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if isinstance(func, ast.Attribute) and _attr_root(func) == "random":
            if func.attr in _MODULE_RNG_FUNCS:
                yield self.finding(
                    ctx, node,
                    f"random.{func.attr}() consumes the process-shared RNG; "
                    "pass a seeded random.Random derived via derive_seed",
                )
            elif func.attr in ("Random", "SystemRandom") and not node.args:
                yield self.finding(
                    ctx, node,
                    f"random.{func.attr}() without a seed is "
                    "nondeterministic; seed it from derive_seed",
                )
        elif (
            isinstance(func, ast.Name)
            and func.id in ("Random", "SystemRandom")
            and not node.args
        ):
            yield self.finding(
                ctx, node,
                f"{func.id}() without a seed is nondeterministic; seed it "
                "from derive_seed",
            )


class EnvReadRule(Rule):
    id = "det.env-read"
    severity = Severity.ERROR
    description = (
        "os.environ is ambient configuration; only the CLI entry point may "
        "read it and must pass values down explicitly"
    )

    allowed = ("repro/cli.py",)

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.path.endswith(self.allowed)

    def visit(self, node: ast.AST, ctx: FileContext):
        if not isinstance(node, ast.Attribute):
            return
        if _attr_root(node) == "os" and node.attr in ("environ", "getenv"):
            yield self.finding(
                ctx, node,
                f"os.{node.attr} read outside the CLI; plumb the value "
                "through parameters so runs are environment-independent",
            )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _scope_nodes(func: ast.AST):
    """Every node of ``func``'s own body, not descending into nested
    functions, lambdas or classes (each is checked as its own scope)."""
    pending = list(ast.iter_child_nodes(func))
    while pending:
        node = pending.pop()
        yield node
        if not isinstance(node, _NESTED_SCOPES):
            pending.extend(ast.iter_child_nodes(node))


def _set_bindings(func: ast.AST) -> tuple[set[str], set[str]]:
    """``(set_bound, other_bound)`` names of ``func``'s own scope.

    A name is set-bound by ``x = set(...)``, ``x: set[T] = set()``, a set
    literal or a set comprehension; ``x |= ...`` keeps it a set.  Any other
    binding — a parameter, a loop target, ``x = sorted(x)`` — is other."""
    set_bound: set[str] = set()
    other = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
    set_targets: set[int] = set()  # ids of the Name targets bound to sets
    for node in _scope_nodes(func):
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
        elif isinstance(node, ast.AugAssign):
            target = node.target
        if isinstance(target, ast.Name) and (
            isinstance(node, ast.AugAssign) or _is_set_expr(node.value)
        ):
            set_targets.add(id(target))
            if not isinstance(node, ast.AugAssign):
                set_bound.add(target.id)
        elif (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and id(node) not in set_targets
        ):
            other.add(node.id)
    return set_bound, other


class SetIterationRule(Rule):
    id = "det.set-iteration"
    severity = Severity.ERROR
    description = (
        "set iteration order is hash-seed dependent; wrap in sorted() before "
        "feeding a loop, list, tuple or join"
    )

    _SINK_CALLS = {"list", "tuple", "enumerate", "iter", "next"}

    def visit(self, node: ast.AST, ctx: FileContext):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._local_sinks(node, ctx)
        yield from self._sinks(node, ctx, _is_set_expr, "a set")

    def _local_sinks(self, func: ast.AST, ctx: FileContext):
        set_bound, other = _set_bindings(func)
        yield from self._scan(func, frozenset(set_bound - other), ctx)

    def _scan(self, scope: ast.AST, names: frozenset[str], ctx: FileContext):
        """Sinks fed by ``names`` in ``scope`` and the closures nested in it
        (minus the names a closure rebinds)."""
        if not names:
            return

        def is_set_local(expr: ast.expr) -> bool:
            return isinstance(expr, ast.Name) and expr.id in names

        for node in _scope_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                set_bound, other = _set_bindings(node)
                yield from self._scan(node, names - set_bound - other, ctx)
            else:
                yield from self._sinks(node, ctx, is_set_local, "a set-valued local")

    def _sinks(self, node: ast.AST, ctx: FileContext, is_set, what: str):
        if isinstance(node, (ast.For, ast.AsyncFor)) and is_set(node.iter):
            yield self.finding(
                ctx, node.iter,
                f"iterating {what} directly; order is hash-seed dependent — "
                "use sorted(...)",
            )
        elif isinstance(node, ast.comprehension) and is_set(node.iter):
            yield self.finding(
                ctx, node.iter,
                f"comprehension over {what}; order is hash-seed dependent — "
                "use sorted(...)",
            )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in self._SINK_CALLS
                and node.args
                and is_set(node.args[0])
            ):
                yield self.finding(
                    ctx, node,
                    f"{func.id}() over {what} preserves hash-seed-dependent "
                    "order; use sorted(...)",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "join"
                and node.args
                and is_set(node.args[0])
            ):
                yield self.finding(
                    ctx, node,
                    f"join() over {what} concatenates in hash-seed-dependent "
                    "order; use sorted(...)",
                )


RULES: tuple[Rule, ...] = (
    WallClockRule(),
    UnseededRandomRule(),
    EnvReadRule(),
    SetIterationRule(),
)
