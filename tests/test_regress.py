"""Tests for bench persistence (``benchmarks/common``) and the
perf-regression gate (``python -m repro.obs.regress``).

The gate's contract is its exit codes: 0 when the current run is within
tolerance of the baseline, 1 when a deterministic work counter drifted
beyond it, 2 on unusable input (format, bench-name or bench-mode
mismatch).  CI scripts depend on exactly this, so the tests drive
``main()`` end to end over files produced by the real writer.
"""

import json
import subprocess

import pytest

import benchmarks.common
from benchmarks.common import (
    BENCH_CHIP_SPECS,
    BENCH_MAX_RUNS,
    BENCH_SCHEMA_NAME,
    BENCH_SCHEMA_VERSION,
    DEFAULT_CHIP_COUNT,
    bench_mode,
    bench_observability,
    bench_specs,
    obs_work_counters,
    write_bench_record,
)
from repro.obs import OBS
from repro.obs.regress import (
    BenchFormatError,
    compare_runs,
    load_latest_run,
    main,
)


@pytest.fixture(autouse=True)
def _bench_env(monkeypatch):
    """Benches read the environment; isolate every test from the shell."""
    for var in ("REPRO_BENCH_QUICK", "REPRO_BENCH_FULL",
                "REPRO_BENCH_DIR", "REPRO_BENCH_PERSIST"):
        monkeypatch.delenv(var, raising=False)
    OBS.reset()
    OBS.enabled = False
    yield monkeypatch
    OBS.reset()
    OBS.enabled = False


def _write(tmp_path, work, wall_clock=None, bench="table1"):
    path = write_bench_record(
        bench, wall_clock or {}, work, directory=str(tmp_path)
    )
    assert path is not None
    return str(path)


class TestBenchMode:
    def test_default_mode(self):
        assert bench_mode() == "default"
        assert bench_specs() == BENCH_CHIP_SPECS[:DEFAULT_CHIP_COUNT]

    def test_quick_mode_selects_smallest_chip(self, _bench_env):
        _bench_env.setenv("REPRO_BENCH_QUICK", "1")
        assert bench_mode() == "quick"
        assert bench_specs() == [BENCH_CHIP_SPECS[0]]

    def test_full_mode_selects_all_chips(self, _bench_env):
        _bench_env.setenv("REPRO_BENCH_FULL", "1")
        assert bench_specs() == BENCH_CHIP_SPECS

    def test_quick_wins_over_full(self, _bench_env):
        _bench_env.setenv("REPRO_BENCH_FULL", "1")
        _bench_env.setenv("REPRO_BENCH_QUICK", "1")
        assert bench_mode() == "quick"


class TestBenchObservability:
    def test_enables_and_restores(self):
        with bench_observability() as observer:
            assert observer is OBS and OBS.enabled
            OBS.count("pathsearch.labels_pushed", 7)
            assert obs_work_counters("br.") == {"br.pathsearch.labels_pushed": 7}
        assert not OBS.enabled
        assert not OBS.counters

    def test_disabled_yields_none(self):
        with bench_observability(enabled=False) as observer:
            assert observer is None
            assert not OBS.enabled

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with bench_observability():
                raise RuntimeError("bench blew up")
        assert not OBS.enabled


class TestWriteBenchRecord:
    def test_creates_versioned_document(self, tmp_path):
        path = _write(tmp_path, {"br.vias": 12}, {"br.time_s": 1.23456})
        document = json.loads(open(path).read())
        assert document["schema"] == BENCH_SCHEMA_NAME
        assert document["version"] == BENCH_SCHEMA_VERSION
        assert document["bench"] == "table1"
        (run,) = document["runs"]
        assert run["work"] == {"br.vias": 12}
        assert run["wall_clock"] == {"br.time_s": 1.2346}  # rounded
        assert run["env"]["mode"] == "default"
        assert "python" in run["env"]

    def test_appends_and_truncates(self, tmp_path):
        for index in range(4):
            write_bench_record(
                "table1", {}, {"n": index}, directory=str(tmp_path), max_runs=3
            )
        document = json.loads(
            open(tmp_path / "BENCH_table1.json").read()
        )
        assert [run["work"]["n"] for run in document["runs"]] == [1, 2, 3]
        assert BENCH_MAX_RUNS >= 3  # default cap is at least as generous

    def test_persist_disabled(self, tmp_path, _bench_env):
        _bench_env.setenv("REPRO_BENCH_PERSIST", "0")
        assert write_bench_record("table1", {}, {"n": 1},
                                  directory=str(tmp_path)) is None
        assert not (tmp_path / "BENCH_table1.json").exists()

    def test_bench_dir_env_redirects(self, tmp_path, _bench_env):
        _bench_env.setenv("REPRO_BENCH_DIR", str(tmp_path / "sub"))
        path = write_bench_record("table9", {}, {"n": 1})
        assert path == tmp_path / "sub" / "BENCH_table9.json"
        assert path.exists()

    def test_records_whether_the_tree_was_dirty(self, tmp_path, _bench_env):
        repo = tmp_path / "repo"
        repo.mkdir()

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=bench", "-c", "user.email=bench@x",
                 "-c", "commit.gpgsign=false", *args],
                cwd=repo, check=True, capture_output=True, text=True,
            ).stdout.strip()

        git("init", "-q")
        (repo / "tracked.txt").write_text("one\n")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "init")
        head = git("rev-parse", "HEAD")
        _bench_env.setattr(benchmarks.common, "REPO_ROOT", repo)
        # Untracked files do not make the tree dirty.
        (repo / "untracked.txt").write_text("scratch\n")
        clean = json.loads(open(_write(tmp_path / "clean", {"n": 1})).read())
        (repo / "tracked.txt").write_text("two\n")
        dirty = json.loads(open(_write(tmp_path / "dirty", {"n": 1})).read())
        assert (clean["runs"][0]["git_sha"], clean["runs"][0]["git_dirty"]) == (
            head, False)
        assert (dirty["runs"][0]["git_sha"], dirty["runs"][0]["git_dirty"]) == (
            head, True)

    def test_corrupt_existing_file_is_replaced(self, tmp_path):
        target = tmp_path / "BENCH_table1.json"
        target.write_text("{not json")
        path = _write(tmp_path, {"n": 5})
        document = json.loads(open(path).read())
        assert [run["work"]["n"] for run in document["runs"]] == [5]


class TestLoadLatestRun:
    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "other", "runs": [{}]}))
        with pytest.raises(BenchFormatError, match="not a repro-bench"):
            load_latest_run(str(path))

    def test_rejects_empty_runs(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(
            {"schema": "repro-bench", "bench": "t", "runs": []}
        ))
        with pytest.raises(BenchFormatError, match="no recorded runs"):
            load_latest_run(str(path))

    def test_returns_latest(self, tmp_path):
        for index in range(2):
            _write(tmp_path, {"n": index})
        bench, run = load_latest_run(str(tmp_path / "BENCH_table1.json"))
        assert bench == "table1"
        assert run["work"] == {"n": 1}


class TestCompareRuns:
    def test_zero_baseline_nonzero_current_is_infinite_drift(self):
        (finding,) = compare_runs(
            {"work": {"errors": 0}}, {"work": {"errors": 3}}, 10.0
        )
        assert finding.delta_pct == float("inf")
        assert finding.status == "FAIL"

    def test_within_tolerance_ok(self):
        (finding,) = compare_runs(
            {"work": {"n": 100}}, {"work": {"n": 109}}, 10.0
        )
        assert finding.status == "ok"
        assert finding.delta_pct == pytest.approx(9.0)

    def test_missing_work_metric_fails_new_is_reported(self):
        findings = compare_runs(
            {"work": {"gone": 1}}, {"work": {"added": 2}}, 10.0
        )
        statuses = {f.name: f.status for f in findings}
        assert statuses == {"gone": "FAIL", "added": "new"}

    def test_wall_clock_not_gated_by_default(self):
        (finding,) = compare_runs(
            {"wall_clock": {"t": 1.0}}, {"wall_clock": {"t": 9.0}}, 10.0
        )
        assert finding.section == "wall_clock"
        assert finding.status == "ok"


class TestRegressCli:
    def test_self_comparison_passes(self, tmp_path, capsys):
        path = _write(tmp_path, {"br.labels": 63047, "br.vias": 33})
        assert main([path, path, "--tolerance-pct", "10"]) == 0
        assert "no regression detected" in capsys.readouterr().out

    def test_header_marks_dirty_runs(self, tmp_path, capsys):
        path = tmp_path / "BENCH_table1.json"
        run = {"git_sha": "0123456789abcdef", "work": {"n": 1}}
        document = {"schema": BENCH_SCHEMA_NAME, "version": BENCH_SCHEMA_VERSION,
                    "bench": "table1", "runs": [dict(run, git_dirty=False)]}
        path.write_text(json.dumps(document))
        dirty_path = tmp_path / "BENCH_dirty.json"
        document["runs"] = [dict(run, git_dirty=True)]
        dirty_path.write_text(json.dumps(document))
        assert main([str(path), str(dirty_path)]) == 0
        assert ("baseline 0123456789ab vs current 0123456789ab-dirty"
                in capsys.readouterr().out)

    def test_injected_regression_fails(self, tmp_path, capsys):
        base = _write(tmp_path, {"br.labels": 1000, "br.oracle": 60})
        current_dir = tmp_path / "cur"
        current_dir.mkdir()
        cur = _write(current_dir, {"br.labels": 1250, "br.oracle": 60})
        assert main([base, cur, "--tolerance-pct", "10"]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION: 1 metric(s)" in captured.err
        assert "+25.0%" in captured.out

    def test_improvement_passes_with_refresh_hint(self, tmp_path, capsys):
        base = _write(tmp_path, {"br.labels": 1000})
        current_dir = tmp_path / "cur"
        current_dir.mkdir()
        cur = _write(current_dir, {"br.labels": 700})
        assert main([base, cur, "--tolerance-pct", "10"]) == 0
        assert "refreshing the baseline" in capsys.readouterr().out

    def test_time_tolerance_gates_wall_clock(self, tmp_path, capsys):
        base = _write(tmp_path, {"n": 1}, {"t": 1.0})
        current_dir = tmp_path / "cur"
        current_dir.mkdir()
        cur = _write(current_dir, {"n": 1}, {"t": 2.0})
        assert main([base, cur]) == 0
        capsys.readouterr()
        assert main([base, cur, "--time-tolerance-pct", "50"]) == 1

    def test_format_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = _write(tmp_path, {"n": 1})
        assert main([str(bad), good]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_name_mismatch_exits_2(self, tmp_path, capsys):
        a = _write(tmp_path, {"n": 1}, bench="table1")
        b = _write(tmp_path, {"n": 1}, bench="table3")
        assert main([a, b]) == 2
        assert "bench mismatch" in capsys.readouterr().err

    def test_mode_mismatch_exits_2_unless_allowed(
        self, tmp_path, capsys, _bench_env
    ):
        base = _write(tmp_path, {"n": 100})
        _bench_env.setenv("REPRO_BENCH_QUICK", "1")
        current_dir = tmp_path / "cur"
        current_dir.mkdir()
        cur = _write(current_dir, {"n": 100})
        assert main([base, cur]) == 2
        assert "mode mismatch" in capsys.readouterr().err
        assert main([base, cur, "--allow-mode-mismatch"]) == 0
