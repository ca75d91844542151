"""Tests for the python -m repro.experiments CLI."""

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig10" in out

    def test_run_single(self, capsys):
        assert main(["run", "table2", "--scale", "0.3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "finished in" in out

    def test_run_grid_with_trials(self, capsys):
        # Not a grid runner -> trials ignored gracefully; grid runner path
        # exercised at minimum size.
        assert main(
            ["run", "table8", "--scale", "0.3", "--trials", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Tagset1" in out

    def test_unknown_experiment_raises(self):
        with pytest.raises(Exception):
            main(["run", "table999"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCompareCommand:
    def test_compare_grid_experiment(self, capsys):
        from repro.experiments.__main__ import main

        code = main(
            ["compare", "table8", "--scale", "0.3", "--trials", "1"]
        )
        out = capsys.readouterr().out
        assert "paper comparison" in out
        assert code in (0, 2)  # shapes may be noisy at tiny scale

    def test_compare_unknown_grid(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["compare", "fig10"]) == 1
        assert "no paper reference grid" in capsys.readouterr().out


class TestTuneCommand:
    def test_tune_dblp(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["tune", "dblp", "--scale", "0.3", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "best parameters" in out and "alpha" in out

    def test_tune_rejects_multilabel(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["tune", "acm", "--scale", "0.3", "--trials", "1"]) == 1
        assert "multi-label" in capsys.readouterr().out


class TestStdFlag:
    def test_run_grid_with_std(self, capsys):
        from repro.experiments.__main__ import main

        assert main(
            ["run", "table3", "--scale", "0.3", "--trials", "2", "--std"]
        ) == 0
        assert "±" in capsys.readouterr().out

    def test_run_grid_without_std(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "table8", "--scale", "0.3", "--trials", "1"]) == 0
        assert "±" not in capsys.readouterr().out


class TestTraceFlag:
    def test_run_with_trace_writes_parseable_jsonl(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main(["run", "example", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"[trace: " in out and str(trace) in out
        events = [
            json.loads(line)
            for line in trace.read_text(encoding="utf-8").strip().splitlines()
        ]
        kinds = {e["event"] for e in events}
        assert "chain_iteration" in kinds
        assert "fit" in kinds
        assert "counters" not in kinds

    def test_trace_summary_prints_breakdown(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "example", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace-summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "o_propagation" in out
        assert "phase coverage" in out

    def test_trace_summary_missing_file(self, capsys, tmp_path):
        assert main(["trace-summary", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such trace file" in capsys.readouterr().out

    def test_run_example_untraced(self, capsys):
        assert main(["run", "example"]) == 0
        out = capsys.readouterr().out
        assert "p3" in out and "p4" in out


@pytest.fixture(scope="module")
def example_trace(tmp_path_factory):
    """One traced example run shared by the diagnostics-command tests."""
    trace = tmp_path_factory.mktemp("diag") / "trace.jsonl"
    assert main(["run", "example", "--trace", str(trace)]) == 0
    return trace


class TestHealthCommand:
    def test_healthy_trace_exits_zero(self, capsys, example_trace):
        capsys.readouterr()
        assert main(["health", str(example_trace)]) == 0
        out = capsys.readouterr().out
        assert "overall: healthy" in out

    def test_unhealthy_trace_exits_four(self, capsys, tmp_path):
        import json

        trace = tmp_path / "bad.jsonl"
        events = [
            {"event": "chain_iteration", "t": t, "class_index": [0],
             "residual": [2.0], "frozen": [False]}
            for t in range(1, 11)
        ] + [{"event": "fit", "seconds": 0.01, "tol": 1e-8, "iterations": 10,
              "converged": False}]
        trace.write_text(
            "".join(json.dumps(e) + "\n" for e in events), encoding="utf-8"
        )
        assert main(["health", str(trace)]) == 4
        out = capsys.readouterr().out
        assert "oscillating" in out

    def test_missing_file_exits_one(self, capsys, tmp_path):
        assert main(["health", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such trace file" in capsys.readouterr().out

    def test_tol_flag_is_accepted(self, capsys, example_trace):
        assert main(["health", str(example_trace), "--tol", "1e-6"]) == 0


class TestTraceDiffCommand:
    def test_trace_diffed_against_itself_passes(self, capsys, example_trace):
        capsys.readouterr()
        assert main(["trace-diff", str(example_trace), str(example_trace)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out and "PASS" in out

    def test_regressed_trace_exits_three(self, capsys, tmp_path):
        import json

        old = tmp_path / "old.jsonl"
        new = tmp_path / "new.jsonl"
        for path, seconds in ((old, 0.05), (new, 0.5)):
            path.write_text(
                json.dumps({"event": "fit", "seconds": seconds}) + "\n",
                encoding="utf-8",
            )
        assert main(["trace-diff", str(old), str(new)]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_threshold_flag_relaxes_the_gate(self, capsys, tmp_path):
        import json

        old = tmp_path / "old.jsonl"
        new = tmp_path / "new.jsonl"
        for path, seconds in ((old, 0.05), (new, 0.06)):
            path.write_text(
                json.dumps({"event": "fit", "seconds": seconds}) + "\n",
                encoding="utf-8",
            )
        assert main(["trace-diff", str(old), str(new), "--threshold", "0.5"]) == 0
        assert main(["trace-diff", str(old), str(new), "--threshold", "0.1"]) == 3

    def test_example_trace_is_diffed_by_per_fit_medians(self, capsys, example_trace):
        from repro.experiments.runners import EXAMPLE_FITS

        assert EXAMPLE_FITS >= 5
        capsys.readouterr()
        assert main(["trace-diff", str(example_trace), str(example_trace)]) == 0
        out = capsys.readouterr().out
        assert f"per-fit medians ({EXAMPLE_FITS} vs {EXAMPLE_FITS} fits)" in out

    def test_missing_file_exits_one(self, capsys, tmp_path, example_trace):
        missing = tmp_path / "nope.jsonl"
        assert main(["trace-diff", str(example_trace), str(missing)]) == 1
        assert "no such trace file" in capsys.readouterr().out

    def test_reads_truncated_traces_leniently(self, capsys, example_trace, tmp_path):
        truncated = tmp_path / "truncated.jsonl"
        text = example_trace.read_text(encoding="utf-8")
        truncated.write_text(text + '{"event": "coun', encoding="utf-8")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["trace-diff", str(example_trace), str(truncated)]) == 0
            assert main(["health", str(truncated)]) == 0


class TestTraceSummaryJson:
    def test_json_flag_emits_parseable_summary(self, capsys, example_trace):
        import json

        capsys.readouterr()
        assert main(["trace-summary", str(example_trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_fits"] >= 1
        assert summary["n_spans"] >= 2
        assert isinstance(summary["span_names"], list)
        assert "fit_chains" in summary["span_names"]
        assert len(summary["trace_ids"]) == 1

    def test_plain_summary_mentions_spans(self, capsys, example_trace):
        capsys.readouterr()
        assert main(["trace-summary", str(example_trace)]) == 0
        assert "spans:" in capsys.readouterr().out


class TestObsCommand:
    def test_export_chrome_round_trips(self, capsys, example_trace, tmp_path):
        import json

        out = tmp_path / "trace.chrome.json"
        capsys.readouterr()
        assert main(
            ["obs", "export", str(example_trace), "--chrome", "-o", str(out)]
        ) == 0
        assert "perfetto" in capsys.readouterr().out
        payload = json.loads(out.read_text(encoding="utf-8"))
        events = payload["traceEvents"]
        assert events
        for entry in events:
            assert "ph" in entry and "ts" in entry
            assert "pid" in entry and "tid" in entry
            if entry["ph"] == "X":
                assert "dur" in entry
        names = {e.get("name") for e in events if e.get("ph") == "X"}
        assert {"fit", "fit_chains"} <= names

    def test_export_default_output_path(self, capsys, example_trace):
        assert main(["obs", "export", str(example_trace), "--chrome"]) == 0
        out = example_trace.with_name("trace.chrome.json")
        assert out.exists()

    def test_export_reads_gz_traces(self, capsys, tmp_path):
        import gzip
        import json
        import shutil

        from repro.obs import read_trace

        src = tmp_path / "trace.jsonl"
        gz = tmp_path / "trace.jsonl.gz"
        # Re-compress a tiny hand-written trace (cheaper than a rerun).
        src.write_text(
            '{"event": "fit", "ts": 1.0, "seconds": 0.5}\n', encoding="utf-8"
        )
        with open(src, "rb") as fin, gzip.open(gz, "wb") as fout:
            shutil.copyfileobj(fin, fout)
        assert read_trace(gz)  # sanity: the reader is gz-transparent
        out = tmp_path / "out.json"
        assert main(["obs", "export", str(gz), "--chrome", "-o", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert any(e.get("name") == "fit" for e in payload["traceEvents"])

    def test_export_missing_file_exits_1(self, capsys, tmp_path):
        assert main(["obs", "export", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such" in capsys.readouterr().out.lower()

    def test_flight_unreachable_url_exits_1(self, capsys):
        assert main(
            ["obs", "flight", "http://127.0.0.1:1/does-not-exist"]
        ) == 1
        assert "could not fetch" in capsys.readouterr().out.lower()

    def test_flight_pulls_a_live_daemon_ring(self, capsys, tmp_path):
        import json

        from repro.core.tmark import TMark
        from repro.datasets import make_worked_example
        from repro.serve import PredictionDaemon
        from repro.stream import StreamingSession

        session = StreamingSession(
            make_worked_example(), TMark(update_labels=False)
        )
        session.fit()
        daemon = PredictionDaemon(session).start()
        try:
            out = tmp_path / "flight.chrome.json"
            assert main(
                ["obs", "flight", daemon.url, "--chrome", "-o", str(out)]
            ) == 0
            payload = json.loads(out.read_text(encoding="utf-8"))
            assert payload["traceEvents"]
            capsys.readouterr()
            assert main(["obs", "flight", daemon.url, "--last", "5"]) == 0
            assert "events" in capsys.readouterr().out
        finally:
            daemon.stop()
