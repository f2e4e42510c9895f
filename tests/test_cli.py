import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kotzigcdc.catalog import cycle_graph, k4, petersen, prism, theta_graph
from kotzigcdc import cli
from kotzigcdc.cli import RunReport, main, run_pipeline
from kotzigcdc.io import graph_to_json, save_graph_json


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.json"
    save_graph_json(theta_graph(), path)
    return path


@pytest.fixture
def petersen_file(tmp_path):
    path = tmp_path / "petersen.json"
    save_graph_json(petersen(), path)
    return path


def test_pipeline_theta(theta_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code = main(["pipeline", str(theta_file), "--certificate", str(cert)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "verified"
    assert cert.exists()


def test_pipeline_and_verify_round_trip(theta_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["pipeline", str(theta_file), "--certificate", str(cert)]) == 0
    capsys.readouterr()
    assert main(["verify", str(theta_file), str(cert)]) == 0


def test_verify_tampered_exits_1(theta_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    main(["pipeline", str(theta_file), "--certificate", str(cert_path)])
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    for label, cycles in cert["classes"].items():
        if cycles:
            cycles.pop()
            break
    cert_path.write_text(json.dumps(cert))
    assert main(["verify", str(theta_file), str(cert_path)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out


@pytest.mark.parametrize("alias", [1.0, True], ids=["float_id", "bool_id"])
def test_verify_rejects_an_edge_id_equal_only_in_value(tmp_path, capsys, alias):
    """1.0 and true equal edge 1 as dictionary keys, but name no edge of
    the host: a certificate that lists one uses an unknown edge."""
    gpath = tmp_path / "k4.json"
    save_graph_json(k4(), gpath)
    cert_path = tmp_path / "cert.json"
    assert main(["pipeline", str(gpath), "--certificate", str(cert_path)]) == 0
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    cycle = next(c for cycles in cert["classes"].values() for c in cycles if 1 in c)
    cycle[cycle.index(1)] = alias
    cert_path.write_text(json.dumps(cert))
    assert main(["verify", str(gpath), str(cert_path)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and f"uses unknown edges [{alias!r}]" in out


def test_pipeline_petersen_needs_exhaustive(petersen_file, capsys):
    assert main(["pipeline", str(petersen_file)]) == 2
    capsys.readouterr()
    assert main(["pipeline", str(petersen_file), "--frame-strategy", "exhaustive"]) == 0


def test_pipeline_frame_file(tmp_path, capsys):
    g = k4()
    gpath = tmp_path / "k4.json"
    save_graph_json(g, gpath)
    fpath = tmp_path / "frame.json"
    fpath.write_text(json.dumps({"frame_edges": list(g.edge_ids)}))
    assert main([
        "pipeline", str(gpath), "--frame-strategy", "file", "--frame-file", str(fpath),
    ]) == 0


def test_pipeline_trace_and_report(theta_file, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    report = tmp_path / "report.json"
    assert main([
        "pipeline", str(theta_file), "--trace", str(trace), "--report", str(report),
    ]) == 0
    assert "steps" in json.loads(trace.read_text())
    assert json.loads(report.read_text())["outcome"] == "verified"


def test_pipeline_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"vertices\": [0]}")
    assert main(["pipeline", str(bad)]) == 3


def assert_one_input_error_line(capsys):
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")
    assert "Traceback" not in captured.err
    return err[0]


def test_pipeline_vertices_not_a_list(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": 5, "edges": []}))
    assert main(["pipeline", str(bad)]) == 3
    assert_one_input_error_line(capsys)


@pytest.mark.parametrize(
    "certificate", [{"classes": 5}, {"classes": {"1a": [5]}}], ids=["classes", "cycle"]
)
def test_verify_malformed_certificate(tmp_path, capsys, certificate):
    gpath = tmp_path / "k4.json"
    save_graph_json(k4(), gpath)
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(certificate))
    assert main(["verify", str(gpath), str(cpath)]) == 3
    assert_one_input_error_line(capsys)


def test_pipeline_invalid_frame_file(tmp_path, capsys):
    gpath = tmp_path / "k4.json"
    save_graph_json(k4(), gpath)
    fpath = tmp_path / "frame.json"
    fpath.write_text(json.dumps({"frame_edges": [0, 5]}))  # a matching, not a frame
    assert main([
        "pipeline", str(gpath), "--frame-strategy", "file", "--frame-file", str(fpath),
    ]) == 3


def test_pipeline_frame_file_without_frame_edges(tmp_path, capsys):
    gpath = tmp_path / "k4.json"
    save_graph_json(k4(), gpath)
    fpath = tmp_path / "frame.json"
    fpath.write_text(json.dumps({"components": []}))
    assert main([
        "pipeline", str(gpath), "--frame-strategy", "file", "--frame-file", str(fpath),
    ]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")


@pytest.mark.parametrize(
    "frame_file",
    [
        {"frame_edges": [99]},
        {"frame_edges": 5},
        {"frame_edges": [[1]]},
        {"frame_edges": [{}]},
        {"frame_edges": [0, 1.0, 2, 3, 4, 5]},
        {"frame_edges": [0, True, 2, 3, 4, 5]},
    ],
    ids=["unknown_edge", "not_a_list", "list_entry", "object_entry", "float_id", "bool_id"],
)
def test_pipeline_bad_frame_edges(tmp_path, capsys, frame_file):
    gpath = tmp_path / "k4.json"
    save_graph_json(k4(), gpath)
    fpath = tmp_path / "frame.json"
    fpath.write_text(json.dumps(frame_file))
    assert main([
        "pipeline", str(gpath), "--frame-strategy", "file", "--frame-file", str(fpath),
    ]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        JSON_VALUES,
        st.fixed_dictionaries({"frame_edges": JSON_VALUES}),
        st.fixed_dictionaries({"frame_edges": st.lists(st.integers(-1, 6) | JSON_VALUES, max_size=8)}),
    )
)
def test_pipeline_frame_file_fuzz(frame_json):
    """Any JSON value as the frame file of K4 gets a documented exit code
    and no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        gpath = Path(tmp) / "k4.json"
        save_graph_json(k4(), gpath)
        fpath = Path(tmp) / "frame.json"
        fpath.write_text(json.dumps(frame_json))
        code = main([
            "pipeline", str(gpath), "--frame-strategy", "file", "--frame-file", str(fpath),
        ])
    assert code in (0, 1, 2, 3)


def test_scan_rows_small(capsys):
    assert main(["scan-rows", "--columns", "2", "--max-edges", "4"]) == 0
    out = capsys.readouterr().out
    assert "0 counterexamples" in out


def test_scan_rows_archive(tmp_path, capsys):
    archive = tmp_path / "hits"
    assert main([
        "scan-rows", "--columns", "2", "--max-edges", "4", "--archive", str(archive),
    ]) == 0
    assert archive.exists()  # created even when empty


def test_scan_rows_three_columns(capsys):
    assert main(["scan-rows", "--columns", "3", "--max-edges", "6"]) == 0
    out = capsys.readouterr().out
    assert "scanned 629 " in out and "0 counterexamples" in out


def test_scan_rows_refuses_many_columns(tmp_path, capsys):
    archive = tmp_path / "hits"
    assert main(["scan-rows", "--columns", "9", "--archive", str(archive)]) == 3
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not archive.exists()


def test_scan_rows_oracle_limit(capsys):
    # orbits with 6 edges exceed the oracle's limit of 4
    assert main(["scan-rows", "--columns", "2", "--max-edges", "6", "--oracle-limit", "4"]) == 3
    line = assert_one_input_error_line(capsys)
    assert "6 edges > max_edges=4" in line and "--oracle-limit" in line


def test_corpus_directory(tmp_path, capsys):
    d = tmp_path / "graphs"
    d.mkdir()
    save_graph_json(theta_graph(), d / "theta.json")
    save_graph_json(prism(), d / "prism.json")
    report = tmp_path / "agg.json"
    assert main(["corpus", str(d), "--report", str(report)]) == 0
    agg = json.loads(report.read_text())
    assert agg["instances"] == 2
    assert agg["outcomes"] == {"verified": 2}
    # every embedded certificate re-verifies cold
    from kotzigcdc.cdc import CdcCertificate, verify_cdc
    from kotzigcdc.io import load_graphs

    for rep in agg["reports"]:
        name = rep["name"].split("[")[0]
        g = load_graphs(d / name)[0]
        cert = CdcCertificate.from_json(rep["certificate"])
        assert verify_cdc(g, cert).valid


def test_corpus_isolates_a_non_cubic_instance(tmp_path, capsys):
    d = tmp_path / "graphs"
    d.mkdir()
    save_graph_json(cycle_graph(4), d / "c4.json")
    save_graph_json(k4(), d / "k4.json")
    report = tmp_path / "agg.json"
    assert main(["corpus", str(d), "--report", str(report)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    agg = json.loads(report.read_text())
    assert agg["outcomes"] == {"input_error": 1, "verified": 1}
    by_name = {rep["name"]: rep for rep in agg["reports"]}
    assert by_name["c4.json[0]"]["outcome"] == "input_error"
    assert "3-regular" in by_name["c4.json[0]"]["error"]
    assert by_name["k4.json[0]"]["outcome"] == "verified"
    for outcome, row in agg["seconds_by_outcome"].items():
        assert row["count"] == agg["outcomes"][outcome]
        assert 0 <= row["seconds_p50"] <= row["seconds_p95"] <= row["seconds_sum"]


def test_corpus_isolates_an_unreadable_file(tmp_path, capsys):
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "bad.json").write_text("{\"vertices\": [0]}")
    (d / "broken.json").write_text("{not json")
    save_graph_json(k4(), d / "k4.json")
    report = tmp_path / "agg.json"
    assert main(["corpus", str(d), "--report", str(report)]) == 3
    agg = json.loads(report.read_text())
    assert agg["outcomes"] == {"input_error": 2, "verified": 1}
    assert main(["corpus", str(tmp_path / "missing")]) == 3


def test_corpus_isolates_a_crashing_instance(tmp_path, capsys, monkeypatch):
    d = tmp_path / "graphs"
    d.mkdir()
    save_graph_json(theta_graph(), d / "theta.json")
    save_graph_json(k4(), d / "k4.json")
    real_pipeline = cli.run_pipeline

    def crash_on_k4(g, name="graph", **kwargs):
        if name.startswith("k4"):
            raise RuntimeError("boom")
        return real_pipeline(g, name=name, **kwargs)

    monkeypatch.setattr(cli, "run_pipeline", crash_on_k4)
    report = tmp_path / "agg.json"
    assert main(["corpus", str(d), "--jobs", "1", "--report", str(report)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    agg = json.loads(report.read_text())
    assert agg["outcomes"] == {"crashed": 1, "verified": 1}
    by_name = {rep["name"]: rep for rep in agg["reports"]}
    assert by_name["k4.json[0]"]["error"] == "RuntimeError: boom"
    assert by_name["theta.json[0]"]["outcome"] == "verified"


def test_cli_import_leaves_out_networkx():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, kotzigcdc.cli; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_corpus_generated_small(capsys):
    assert main(["corpus", "--max-vertices", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["instances"] == 3  # theta + the two 4-vertex graphs
    assert out["outcomes"].get("verified") == 3


def test_corpus_refuses_orders_past_the_checked_counts(capsys):
    assert main(["corpus", "--max-vertices", "16"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: 16 vertices > 14")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("retry_outcome", ["verified", "no_frame"])
def test_corpus_worker_reports_both_attempts(monkeypatch, retry_outcome):
    seconds = {"two_factor": 0.25, "exhaustive": 0.5}
    outcomes = {"two_factor": "no_frame", "exhaustive": retry_outcome}

    def fake_pipeline(g, name="graph", strategy="two_factor", **kwargs):
        return RunReport(name=name, outcome=outcomes[strategy], seconds=seconds[strategy])

    monkeypatch.setattr(cli, "run_pipeline", fake_pipeline)
    report = cli._corpus_worker(("theta", graph_to_json(theta_graph()), "two_factor"))
    assert report.outcome == retry_outcome
    assert report.seconds == 0.75


def test_pipeline_and_corpus_on_a_snark_past_the_search_budget(tmp_path, capsys):
    from tests.test_frame import flower_snark

    g = flower_snark(21)
    gpath = tmp_path / "j21.json"
    save_graph_json(g, gpath)
    assert main(["pipeline", str(gpath)]) == 3
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:") and "gave up" in err[0]
    report = cli._corpus_worker(("j21", graph_to_json(g), "two_factor"))
    assert report.outcome == "input_error" and "gave up" in report.error


def test_run_pipeline_reports_deterministic():
    g = prism()
    r1 = run_pipeline(g, strategy="two_factor")
    r2 = run_pipeline(g, strategy="two_factor")
    assert r1.certificate == r2.certificate
    assert r1.frame == r2.frame


def test_run_pipeline_two_k_frame_end_to_end():
    from tests.test_frame import double_theta_graph, triple_theta_triangle

    g = double_theta_graph()
    rep = run_pipeline(g, strategy="user_supplied", frame_edges=list(range(10)))
    assert rep.outcome == "verified"

    g3 = triple_theta_triangle()
    rep = run_pipeline(g3, strategy="user_supplied", frame_edges=list(range(15)))
    assert rep.outcome == "no_witness"
    # the graph itself still has a cover through a different frame
    assert run_pipeline(g3, strategy="two_factor").outcome == "verified"


def test_run_pipeline_reports_a_certificate_that_fails_verification(monkeypatch):
    """construct_6cdc only assembles; run_pipeline's own verify_cdc call is
    what turns a broken cover into invariant_error."""
    from kotzigcdc import cdc

    two_cycle_cover_even = cdc.two_cycle_cover_even
    dropped = []

    def drop_one_cycle(g, cycle_edges, matching_edges):
        cycles_a, cycles_b = two_cycle_cover_even(g, cycle_edges, matching_edges)
        if cycles_a and not dropped:
            dropped.append(cycles_a.pop(0))
        return cycles_a, cycles_b

    monkeypatch.setattr(cdc, "two_cycle_cover_even", drop_one_cycle)
    report = run_pipeline(prism(), strategy="two_factor")
    assert dropped
    assert report.outcome == "invariant_error"
    assert report.certificate is None
    assert re.search(r"edge \d+ is covered 1 times, expected 2", report.error)
