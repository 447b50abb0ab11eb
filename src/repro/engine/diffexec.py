"""Differential execution: the row engine vs the vector engine vs sqlite.

``sciencebenchmark diff-exec`` runs a domain's query sets (gold Seed/Dev,
and optionally the pipeline's silver Synth split) through three engines in
one pass: the row :class:`~repro.engine.executor.Executor` (the baseline),
the vector engine behind :meth:`Database.execute` (the production path)
and sqlite (an independent :class:`~repro.engine.backends.ExecutionBackend`).
Every disagreement with the baseline becomes a structured
:class:`Divergence` diagnostic.  Agreement with sqlite uses the same
comparison as execution accuracy (:func:`repro.metrics.execution.results_match`):
multiset equality over canonicalised rows, order-sensitive only when the
query carries an ORDER BY.

This is correctness fuzzing for the engine — thousands of generated silver
queries probing NULL handling, aggregates and set semantics against SQLite,
the reference engine of Spider's execution evaluation — and the template for
running future domains against a real database.
Two comparison refinements beyond :func:`results_match` are cross-engine
necessities (same-engine accuracy scoring never needs them):

* **Tie-aware ORDER BY.**  Two engines may legitimately permute rows whose
  ORDER BY keys tie.  When every ORDER BY key maps onto a projected column,
  agreement requires only that the key-value *sequences* match and the rows
  form the same multiset; otherwise the comparison stays strictly ordered.
* **Float tolerance.**  Both engines compute correct sums in a different
  order, so aggregates can differ by one ULP — which the canonicaliser's
  ``round(x, 6)`` can amplify into different 6-decimal values exactly at a
  rounding half-boundary.  Near-equal floats (``rel_tol=1e-6``) therefore
  compare equal here.

Neither refinement applies to the vector engine: its contract is
*byte-identity* with the row engine (same columns, same rows, same order,
same value objects), so it is compared strictly — no tie tolerance, no
float slack.

The same pass is the engine benchmark.  Each query is parsed once; the row
and vector arms are timed on that parsed query, sqlite on the SQL text,
each as the per-query minimum over ``repeat`` runs.  Every report carries
per-arm latency summaries, and the vector report the speedup over the row
engine (``speedup_p50``: the median per-query ratio; ``speedup_total``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from repro.datasets.records import BenchmarkDomain
from repro.engine.backends import ExecutionBackend, get_backend
from repro.engine.executor import Executor, Result, _canonical
from repro.errors import ReproError
from repro.metrics.execution import _is_ordered, results_match
from repro.obs import get_tracer
from repro.obs.metrics import MetricsRegistry
from repro.resilience.clock import SYSTEM_CLOCK
from repro.sql import parse
from repro.sql.printer import to_sql

#: Divergence sample size: differing canonical rows included per diagnostic.
MAX_SAMPLE_ROWS = 3

#: Split names accepted by :func:`run_diff_exec`.
GOLD_SPLITS = ("seed", "dev")
ALL_SPLITS = ("seed", "dev", "synth")


@dataclass(frozen=True)
class Divergence:
    """One query on which the two backends disagreed."""

    domain: str
    split: str
    question: str
    sql: str
    #: "result-mismatch" | "engine-error" | "backend-error"
    kind: str
    detail: str
    engine_rows: int | None = None
    backend_rows: int | None = None
    #: Canonical rows present in one result but not the other (bounded).
    sample: tuple = ()

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DiffReport:
    """One domain's comparison of the row engine with one other arm."""

    domain: str
    backend: str
    splits: tuple[str, ...]
    n_queries: int = 0
    n_agreements: int = 0
    #: Queries both engines rejected (consistent behaviour, not divergence).
    n_both_errors: int = 0
    per_split: dict = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)
    #: Latency summary per arm: ``native`` and this report's backend.
    arms: dict = field(default_factory=dict)
    #: ``(native_s, vector_s)`` of every query both arms ran (vector only).
    paired: list = field(default_factory=list, repr=False)
    _registry: MetricsRegistry = field(
        default_factory=MetricsRegistry, init=False, repr=False
    )

    def __post_init__(self) -> None:
        for name in ("queries", "agreements", "divergences"):
            self._registry.counter(f"diffexec.{name}")

    @property
    def n_divergences(self) -> int:
        return len(self.divergences)

    @property
    def agreed(self) -> bool:
        return self.n_divergences == 0

    @property
    def metrics(self) -> dict:
        return self._registry.snapshot()

    def record(self, split_name: str, verdict: Divergence | str) -> None:
        """Count one query's verdict (``"agree"``, ``"both-error"`` or a
        :class:`Divergence`) under ``split_name``."""
        counts = self.per_split[split_name]
        counts["queries"] += 1
        self.n_queries += 1
        self._registry.inc("diffexec.queries")
        if isinstance(verdict, Divergence):
            counts["divergences"] += 1
            self._registry.inc("diffexec.divergences")
            self.divergences.append(verdict)
            return
        counts["agreements"] += 1
        self.n_agreements += 1
        self._registry.inc("diffexec.agreements")
        if verdict == "both-error":
            self.n_both_errors += 1

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "backend": self.backend,
            "splits": list(self.splits),
            "n_queries": self.n_queries,
            "n_agreements": self.n_agreements,
            "n_divergences": self.n_divergences,
            "n_both_errors": self.n_both_errors,
            "per_split": self.per_split,
            "divergences": [d.to_dict() for d in self.divergences],
            "metrics": self.metrics,
            "arms": self.arms,
            **_speedup(self.paired),
        }

    def render(self) -> str:
        lines = [
            f"diff-exec[{self.domain}] engine vs {self.backend}: "
            f"{self.n_agreements}/{self.n_queries} queries agree, "
            f"{self.n_divergences} divergences"
        ]
        for split, counts in sorted(self.per_split.items()):
            lines.append(
                f"  {split:6s} {counts['agreements']:4d}/{counts['queries']:<4d} agree"
                + (f", {counts['divergences']} diverge" if counts["divergences"] else "")
            )
        for name, arm in self.arms.items():
            lines.append(
                f"  {name:7s} p50 {arm['p50_us']:9.1f}us  p95 {arm['p95_us']:9.1f}us  "
                f"total {arm['total_ms']:8.1f}ms"
                + (f", {arm['errors']} errors" if arm["errors"] else "")
            )
        speedup = _speedup(self.paired)
        if speedup:
            lines.append(
                f"  vector speedup: p50 {speedup['speedup_p50']}x, "
                f"total {speedup['speedup_total']}x"
            )
        for divergence in self.divergences[:10]:
            lines.append(
                f"  DIVERGE [{divergence.split}] {divergence.kind}: "
                f"{divergence.sql}  ({divergence.detail})"
            )
        if self.n_divergences > 10:
            lines.append(f"  ... and {self.n_divergences - 10} more")
        return "\n".join(lines)


def _value_close(a, b) -> bool:
    """Canonical equality, with one-ULP slack for cross-engine floats."""
    if _canonical(a) == _canonical(b):
        return True
    if (
        isinstance(a, (int, float)) and not isinstance(a, bool)
        and isinstance(b, (int, float)) and not isinstance(b, bool)
    ):
        return math.isclose(float(a), float(b), rel_tol=1e-6, abs_tol=1e-9)
    return False


def _canonical_sort_key(row: tuple) -> str:
    return repr(tuple(_canonical(value) for value in row))


def _rows_close(rows_a: list[tuple], rows_b: list[tuple]) -> bool:
    """Pairwise :func:`_value_close` over two equal-length row lists."""
    for row_a, row_b in zip(rows_a, rows_b):
        if len(row_a) != len(row_b):
            return False
        for value_a, value_b in zip(row_a, row_b):
            if not _value_close(value_a, value_b):
                return False
    return True


def _multiset_close(engine_result: Result, backend_result: Result) -> bool:
    """Order-insensitive row-set equality with float tolerance."""
    if engine_result.to_multiset() == backend_result.to_multiset():
        return True
    return _rows_close(
        sorted(engine_result.rows, key=_canonical_sort_key),
        sorted(backend_result.rows, key=_canonical_sort_key),
    )


def _order_key_indices(sql: str) -> tuple[list[int] | None, bool]:
    """``(indices, keys_hidden)`` for the query's ORDER BY keys.

    ``indices`` holds the projection index of every key when all keys are
    themselves projected expressions; otherwise None.  ``keys_hidden`` is
    True when the query *is* ordered but at least one key is absent from
    the projection — then tie order is unverifiable from the result rows
    (e.g. ``SELECT name ... ORDER BY COUNT(*)``) and only row content can
    be compared across engines."""
    try:
        query = parse(sql)
    except ReproError:
        return None, False
    if query.set_op is not None or not query.select.order_by:
        return None, False
    projected = []
    for item in query.select.items:
        expr = getattr(item, "expr", None)
        projected.append(to_sql(expr).lower() if expr is not None else "")
    indices = []
    for order_item in query.select.order_by:
        key_sql = to_sql(order_item.expr).lower()
        if key_sql not in projected:
            return None, True
        indices.append(projected.index(key_sql))
    return indices, False


def _ordered_agree(sql: str, engine_result: Result, backend_result: Result) -> bool:
    """Ordered agreement that tolerates tie permutations between engines.

    Requires the same row multiset *and* identical ORDER BY key sequences —
    rows with equal sort keys may appear in either order.  When the keys
    aren't projected at all, order is unverifiable: both engines sort
    correctly by construction, so content (multiset) equality is the
    strongest cross-engine check available.
    """
    indices, keys_hidden = _order_key_indices(sql)
    if indices is None:
        if keys_hidden:
            return _multiset_close(engine_result, backend_result)
        return False
    if not _multiset_close(engine_result, backend_result):
        return False
    keys_engine = [tuple(row[i] for i in indices) for row in engine_result.rows]
    keys_backend = [tuple(row[i] for i in indices) for row in backend_result.rows]
    return _rows_close(keys_engine, keys_backend)


def _results_agree(sql: str, engine_result: Result, backend_result: Result) -> bool:
    ordered = _is_ordered(sql)
    if results_match(engine_result, backend_result, ordered):
        return True
    if len(engine_result.rows) != len(backend_result.rows):
        return False
    if engine_result.rows and len(engine_result.rows[0]) != len(
        backend_result.rows[0]
    ):
        return False
    if ordered:
        return _ordered_agree(sql, engine_result, backend_result)
    return _multiset_close(engine_result, backend_result)


def _row_sample(engine_result: Result, backend_result: Result) -> tuple:
    """Up to :data:`MAX_SAMPLE_ROWS` canonical rows unique to either side."""
    engine_multiset = engine_result.to_multiset()
    backend_multiset = backend_result.to_multiset()
    sample = []
    for label, mine, theirs in (
        ("engine-only", engine_multiset, backend_multiset),
        ("backend-only", backend_multiset, engine_multiset),
    ):
        extra = [key for key, count in mine.items() if count != theirs.get(key, 0)]
        for key in sorted(map(repr, extra))[:MAX_SAMPLE_ROWS]:
            sample.append({"side": label, "row": key})
    return tuple(sample[: 2 * MAX_SAMPLE_ROWS])


def _identical(engine_result: Result, backend_result: Result) -> bool:
    """Byte-identity: the vector engine's agreement contract."""
    return (
        list(engine_result.columns) == list(backend_result.columns)
        and engine_result.rows == backend_result.rows
    )


def _classify(
    domain_name: str,
    split_name: str,
    pair,
    engine: tuple[Result | None, str | None],
    backend_name: str,
    other: tuple[Result | None, str | None],
    strict: bool,
) -> Divergence | str:
    """One pair's verdict from both arms' ``(result, error)`` outcomes: a
    :class:`Divergence` or ``"agree"`` / ``"both-error"``.

    ``strict`` switches agreement from the tolerant cross-engine comparison
    to byte-identity (columns, rows, order) — used for the vector engine,
    whose contract is exact equality with the row engine."""
    (engine_result, engine_error), (backend_result, backend_error) = engine, other
    if engine_result is None and backend_result is None:
        return "both-error"
    if engine_result is None:
        return Divergence(
            domain=domain_name, split=split_name, question=pair.question,
            sql=pair.sql, kind="engine-error",
            detail="the in-repo engine rejected a query the backend accepts: "
            + str(engine_error),
            backend_rows=len(backend_result.rows),
        )
    if backend_result is None:
        return Divergence(
            domain=domain_name, split=split_name, question=pair.question,
            sql=pair.sql, kind="backend-error",
            detail=f"{backend_name} rejected a query the engine accepts: "
            + str(backend_error),
            engine_rows=len(engine_result.rows),
        )
    if strict:
        if _identical(engine_result, backend_result):
            return "agree"
    elif _results_agree(pair.sql, engine_result, backend_result):
        return "agree"
    ordered = _is_ordered(pair.sql)
    if len(engine_result.rows) != len(backend_result.rows):
        detail = (
            f"row count {len(engine_result.rows)} vs {len(backend_result.rows)}"
        )
    elif engine_result.rows and len(engine_result.rows[0]) != len(
        backend_result.rows[0]
    ):
        detail = (
            f"column count {len(engine_result.rows[0])} vs "
            f"{len(backend_result.rows[0])}"
        )
    elif strict:
        detail = "results not byte-identical (strict comparison)"
    else:
        detail = "row contents differ" + (" (ordered comparison)" if ordered else "")
    return Divergence(
        domain=domain_name, split=split_name, question=pair.question,
        sql=pair.sql, kind="result-mismatch", detail=detail,
        engine_rows=len(engine_result.rows),
        backend_rows=len(backend_result.rows),
        sample=_row_sample(engine_result, backend_result),
    )


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation surprises)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _arm_summary(times: list[float], errors: int) -> dict:
    return {
        "p50_us": round(_percentile(times, 0.50) * 1e6, 1),
        "p95_us": round(_percentile(times, 0.95) * 1e6, 1),
        "total_ms": round(sum(times) * 1e3, 3),
        "errors": errors,
    }


def _speedup(paired: list[tuple[float, float]]) -> dict:
    """Vector-over-row speedup of ``(native_s, vector_s)`` pairs: the median
    per-query ratio and the ratio of totals (empty without pairs)."""
    ratios = [native / vector for native, vector in paired if vector > 0]
    if not ratios:
        return {}
    native_total = sum(native for native, _ in paired)
    vector_total = sum(vector for _, vector in paired)
    return {
        "speedup_p50": round(_percentile(ratios, 0.50), 2),
        "speedup_total": round(native_total / max(vector_total, 1e-12), 2),
    }


def _timed(run, arg, repeat: int) -> tuple[Result | None, str | None, float | None]:
    """``(result, error, seconds)`` of ``run(arg)``: the per-query minimum
    over ``repeat`` runs, or the error of the first failing run."""
    best = math.inf
    result = None
    for _ in range(max(1, repeat)):
        start = SYSTEM_CLOCK.now()
        try:
            result = run(arg)
        except (ReproError, RecursionError) as exc:
            return None, f"{type(exc).__name__}: {exc}", None
        best = min(best, SYSTEM_CLOCK.now() - start)
    return result, None, best


def _run_arms(
    sql: str, native: Executor, database, backend: ExecutionBackend, repeat: int
) -> dict[str, tuple[Result | None, str | None, float | None]]:
    """Every arm's :func:`_timed` outcome for one query, parsed once: a
    query the parser rejects is an error of both in-repo arms."""
    try:
        query = parse(sql)
    except (ReproError, RecursionError) as exc:
        failed = (None, f"{type(exc).__name__}: {exc}", None)
        outcomes = {"native": failed, "vector": failed}
    else:
        outcomes = {
            "native": _timed(native.execute, query, repeat),
            "vector": _timed(database.execute, query, repeat),
        }
    outcomes[backend.name] = _timed(backend.execute, sql, repeat)
    return outcomes


def run_diff_exec(
    domain: BenchmarkDomain,
    splits: tuple[str, ...] = GOLD_SPLITS,
    repeat: int = 1,
    backend: ExecutionBackend | None = None,
) -> list[DiffReport]:
    """Execute ``domain``'s query sets on every arm; one report per
    compared arm: ``[vector (strict), sqlite (tolerant)]``.

    ``splits`` picks the query sets: ``("seed", "dev")`` is the gold
    standard; add ``"synth"`` for the silver split (skipped with a per-split
    note when the domain has none materialised).  Each query is parsed
    once; the row ``Executor`` and :meth:`Database.execute` run the parsed
    query, ``backend`` (default: sqlite) the SQL text.  Every arm runs
    ``repeat`` times per query and keeps its fastest time.
    """
    database = domain.database
    native = Executor(database)
    backend = backend or get_backend("sqlite")
    backend.load(database)
    vector_report = DiffReport(domain=domain.name, backend="vector", splits=splits)
    backend_report = DiffReport(domain=domain.name, backend=backend.name, splits=splits)
    times: dict[str, list[float]] = {"native": [], "vector": [], backend.name: []}
    errors = dict.fromkeys(times, 0)

    tracer = get_tracer()
    with tracer.span("diffexec.domain", domain=domain.name, repeat=repeat):
        for split_name in splits:
            split = getattr(domain, split_name, None)
            counts = {"queries": 0, "agreements": 0, "divergences": 0}
            if split is None:
                counts["skipped"] = "split not materialised"
            for report in (vector_report, backend_report):
                report.per_split[split_name] = dict(counts)
            if split is None:
                continue
            with tracer.span(
                "diffexec.split", split=split_name, n_queries=len(split.pairs)
            ):
                for pair in split.pairs:
                    outcomes = _run_arms(pair.sql, native, database, backend, repeat)
                    for name, (_, _, seconds) in outcomes.items():
                        if seconds is None:
                            errors[name] += 1
                        else:
                            times[name].append(seconds)
                    native_s, vector_s = outcomes["native"][2], outcomes["vector"][2]
                    if native_s is not None and vector_s is not None:
                        vector_report.paired.append((native_s, vector_s))
                    for report, strict in ((vector_report, True), (backend_report, False)):
                        verdict = _classify(
                            domain.name, split_name, pair, outcomes["native"][:2],
                            report.backend, outcomes[report.backend][:2], strict,
                        )
                        report.record(split_name, verdict)
    backend.close()
    for report in (vector_report, backend_report):
        report.arms = {
            name: _arm_summary(times[name], errors[name])
            for name in ("native", report.backend)
        }
    return [vector_report, backend_report]


def build_report(reports: list[DiffReport], repeat: int) -> dict:
    """The JSON document of a run: one entry per domain × compared arm,
    plus the vector speedup pooled over every domain's queries."""
    return {
        "schema_version": 1,
        "benchmark": "diff-exec",
        "repeat": repeat,
        "agreed": all(report.agreed for report in reports),
        **_speedup([pair for report in reports for pair in report.paired]),
        "reports": [report.to_dict() for report in reports],
    }


def evaluate_gates(report: dict, assert_speedup: float | None = None) -> list[str]:
    """Gate failures of a :func:`build_report` document: any divergence,
    and (with ``assert_speedup``) a pooled vector p50 speedup below it."""
    failures = [
        f"{entry['domain']}: engine vs {entry['backend']}: "
        f"{entry['n_divergences']} divergences"
        for entry in report["reports"]
        if entry["n_divergences"]
    ]
    if assert_speedup is not None:
        speedup = report.get("speedup_p50", 0.0)
        if speedup < assert_speedup:
            failures.append(
                f"vector p50 speedup {speedup:.2f}x is below the required "
                f"{assert_speedup:.2f}x"
            )
    return failures


def render_report(reports: list[DiffReport]) -> str:
    """Every comparison's summary plus the pooled vector speedup."""
    lines = [report.render() for report in reports]
    speedup = _speedup([pair for report in reports for pair in report.paired])
    if speedup:
        lines.append(
            f"overall: vector {speedup['speedup_p50']}x p50 / "
            f"{speedup['speedup_total']}x total vs native"
        )
    return "\n".join(lines)
