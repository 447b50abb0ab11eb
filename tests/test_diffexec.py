"""Tests for differential execution (repro.engine.backends + diffexec)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine.backends import (
    ExecutionBackend,
    available_backends,
    get_backend,
)
from repro.engine.backends.sqlite import SqliteBackend
from repro.engine.diffexec import (
    ALL_SPLITS,
    GOLD_SPLITS,
    build_report,
    evaluate_gates,
    render_report,
    run_diff_exec,
)
from repro.engine.executor import Result
from repro.errors import ExecutionError
from repro.obs.export import write_json_report

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def climate_domain():
    import sys

    from repro import adapters

    # Force a fresh import so the build callable is this file's, regardless
    # of what other test modules loaded earlier.
    sys.modules.pop("repro_adapter_climate_adapter", None)
    module = adapters.load_adapter_source(
        str(REPO_ROOT / "examples" / "climate_adapter.py")
    )
    adapters.unregister("climate")  # the import self-registers; keep it clean
    yield module.build(scale=0.5, seed=7)
    sys.modules.pop("repro_adapter_climate_adapter", None)


# -- backend plumbing -----------------------------------------------------------


def test_backend_registry():
    assert available_backends() == ("sqlite",)
    assert isinstance(get_backend("sqlite"), SqliteBackend)
    with pytest.raises(ExecutionError, match="unknown execution backend"):
        get_backend("postgres")


def test_native_arm_runs_the_row_engine(climate_domain, monkeypatch):
    """The native arm must be the row executor, not ``Database.execute``
    (the vector engine), or diff-exec would compare the vector engine with
    itself: a sabotaged ``Database.execute`` must show up as vector
    divergences while sqlite still agrees with the native arm."""
    from repro.engine.database import Database
    from repro.obs import Tracer, use_tracer

    real_execute = Database.execute

    def drop_last_row(self, sql):
        result = real_execute(self, sql)
        return Result(columns=result.columns, rows=result.rows[:-1])

    monkeypatch.setattr(Database, "execute", drop_last_row)
    tracer = Tracer()
    with use_tracer(tracer):
        vector, sqlite = run_diff_exec(climate_domain)
    assert sqlite.agreed, sqlite.render()
    assert vector.n_divergences > 0
    assert {d.kind for d in vector.divergences} == {"result-mismatch"}
    assert all(d.engine_rows == d.backend_rows + 1 for d in vector.divergences)
    row_engine_spans = [s for s in tracer.finished() if s.name == "engine.query"]
    assert len(row_engine_spans) >= vector.n_queries


def test_sqlite_backend_executes_and_reports_errors(climate_domain):
    with get_backend("sqlite") as backend:
        backend.load(climate_domain.database)
        result = backend.execute("SELECT COUNT(*) FROM station")
        expected = len(climate_domain.database.table("station").rows)
        assert result.rows[0][0] == expected
        with pytest.raises(ExecutionError, match="sqlite"):
            backend.execute("SELECT nope FROM missing_table")
        assert backend.try_execute("SELECT nope FROM missing_table") is None


# -- agreement on gold queries --------------------------------------------------


def test_gold_queries_agree_on_toy_domain(climate_domain):
    reports = run_diff_exec(climate_domain)
    assert [report.backend for report in reports] == ["vector", "sqlite"]
    for report in reports:
        assert report.agreed
        assert report.n_queries == len(climate_domain.seed) + len(climate_domain.dev)
        assert report.n_divergences == 0
        assert set(report.per_split) == set(GOLD_SPLITS)
        assert report.metrics["diffexec.queries"]["value"] == report.n_queries


def test_gold_queries_agree_on_builtin_domain():
    from repro import adapters

    domain = adapters.get_adapter("oncomx").build(scale=0.1)
    for report in run_diff_exec(domain):
        assert report.agreed, report.render()


def test_missing_synth_split_is_noted_not_fatal(climate_domain):
    for report in run_diff_exec(climate_domain, splits=ALL_SPLITS):
        assert report.agreed
        assert report.per_split["synth"].get("skipped")


def test_sql_only_the_backend_accepts_is_an_engine_error(sdss_domain):
    """The in-repo parser rejects GLOB, sqlite runs it: an engine-error
    divergence for sqlite (the vector arm shares the parse, so both-error),
    never a crash of the whole run."""
    import dataclasses

    from repro.datasets.records import NLSQLPair, Split

    sql = "SELECT COUNT(*) FROM photoobj WHERE 1 GLOB '1'"
    domain = dataclasses.replace(
        sdss_domain,
        seed=Split("seed", [NLSQLPair("how many objects?", sql, "sdss")]),
        dev=Split("dev", []),
    )
    vector, sqlite = run_diff_exec(domain)
    assert vector.agreed and vector.n_both_errors == 1
    assert [d.kind for d in sqlite.divergences] == ["engine-error"]
    divergence = sqlite.divergences[0]
    assert "SqlSyntaxError" in divergence.detail
    assert divergence.backend_rows == 1


def test_every_arm_is_timed_and_the_speedup_gates(climate_domain):
    reports = run_diff_exec(climate_domain, repeat=2)
    vector, sqlite = reports
    n_queries = len(climate_domain.seed) + len(climate_domain.dev)
    assert set(vector.arms) == {"native", "vector"}
    assert set(sqlite.arms) == {"native", "sqlite"}
    for arm in (*vector.arms.values(), *sqlite.arms.values()):
        assert arm["errors"] == 0
        assert 0 < arm["p50_us"] <= arm["p95_us"]
        assert arm["total_ms"] > 0
    # The native arm ran once per pair, shared by both comparisons.
    assert vector.arms["native"] == sqlite.arms["native"]
    assert len(vector.paired) == n_queries
    entry = vector.to_dict()
    assert entry["speedup_p50"] > 0 and entry["speedup_total"] > 0
    assert "speedup_p50" not in sqlite.to_dict()

    report = build_report(reports, repeat=2)
    assert report["repeat"] == 2 and report["speedup_p50"] == entry["speedup_p50"]
    assert evaluate_gates(report) == []
    assert evaluate_gates(report, assert_speedup=0.0) == []
    failures = evaluate_gates(report, assert_speedup=1e9)
    assert len(failures) == 1 and "speedup" in failures[0]
    assert "overall: vector" in render_report(reports)


# -- intentional divergence -----------------------------------------------------


class _RowDroppingBackend(ExecutionBackend):
    """A sabotaged sqlite backend: silently drops the last row of every
    non-empty result.  Exists to prove diff-exec actually catches
    divergences instead of vacuously agreeing."""

    name = "dropping-sqlite"

    def __init__(self) -> None:
        self._inner = SqliteBackend()

    def load(self, database) -> None:
        self._inner.load(database)

    def execute(self, sql: str) -> Result:
        result = self._inner.execute(sql)
        if result.rows:
            return Result(columns=result.columns, rows=result.rows[:-1])
        return result

    def close(self) -> None:
        self._inner.close()


def test_sabotaged_backend_is_caught(climate_domain):
    vector, report = run_diff_exec(climate_domain, backend=_RowDroppingBackend())
    assert vector.agreed
    assert not report.agreed
    assert report.n_divergences > 0
    kinds = {d.kind for d in report.divergences}
    assert kinds == {"result-mismatch"}
    one = report.divergences[0]
    assert one.domain == "climate"
    assert one.engine_rows is not None and one.backend_rows is not None
    assert one.engine_rows == one.backend_rows + 1
    rendered = report.render()
    assert "DIVERGE" in rendered


class _ErroringBackend(ExecutionBackend):
    """Rejects every query — each one must surface as a backend-error."""

    name = "erroring"

    def load(self, database) -> None:
        pass

    def execute(self, sql: str) -> Result:
        raise ExecutionError("synthetic failure")


def test_backend_errors_surface_as_divergences(climate_domain):
    _, report = run_diff_exec(climate_domain, backend=_ErroringBackend())
    assert not report.agreed
    assert {d.kind for d in report.divergences} == {"backend-error"}
    assert all("synthetic failure" in d.detail for d in report.divergences)
    assert report.arms["erroring"]["errors"] == report.n_queries


# -- report serialization -------------------------------------------------------


def test_write_reports_json(climate_domain, tmp_path):
    good = run_diff_exec(climate_domain)
    bad = run_diff_exec(climate_domain, backend=_RowDroppingBackend())
    report = build_report(good + bad, repeat=1)
    path = write_json_report(report, tmp_path / "reports" / "diffexec.json")
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["agreed"] is False
    assert [entry["backend"] for entry in payload["reports"]] == [
        "vector", "sqlite", "vector", "dropping-sqlite",
    ]
    entry = payload["reports"][3]
    assert entry["n_divergences"] == len(entry["divergences"]) > 0
    sample = entry["divergences"][0]
    assert {"domain", "split", "question", "sql", "kind", "detail"} <= set(sample)
    failures = evaluate_gates(payload)
    assert failures == [
        f"climate: engine vs dropping-sqlite: {entry['n_divergences']} divergences"
    ]


# -- the CLI subcommand ---------------------------------------------------------


def test_diff_exec_cli_gold(tmp_path, capsys):
    import sys

    from repro import adapters, cli

    sys.modules.pop("repro_adapter_climate_adapter", None)
    out_file = tmp_path / "diffexec.json"
    code = cli.main(
        [
            "diff-exec",
            "--adapter", str(REPO_ROOT / "examples" / "climate_adapter.py"),
            "--domain", "climate",
            "--out", str(out_file),
        ]
    )
    try:
        assert code == 0
        out = capsys.readouterr().out
        assert "diff-exec[climate] engine vs vector" in out
        assert "diff-exec[climate] engine vs sqlite" in out
        assert out.count(" 0 divergences") == 2
        payload = json.loads(out_file.read_text())
        assert payload["agreed"] is True
        assert payload["speedup_p50"] > 0
        code = cli.main(
            [
                "diff-exec", "--domain", "climate", "--repeat", "2",
                "--assert-speedup", "1e9",
            ]
        )
        assert code == 1
        assert "FAIL: vector p50 speedup" in capsys.readouterr().err
    finally:
        adapters.unregister("climate")
        import sys

        sys.modules.pop("repro_adapter_climate_adapter", None)
