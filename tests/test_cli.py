import hashlib
import json
import os
import random
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
from kotzigcdc.corpus import cubic_corpus
from kotzigcdc.io import graph_to_json, save_graph_json
from kotzigcdc.multigraph import Multigraph
from tests.test_cdc import planted_host, planted_multi_k_hosts


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


def test_verify_names_an_empty_cycle(theta_file, tmp_path, capsys):
    """A certificate that lists the cycle [] is refused, and the report
    says the cycle is empty."""
    cert_path = tmp_path / "cert.json"
    main(["pipeline", str(theta_file), "--certificate", str(cert_path)])
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    label = next(label for label, cycles in sorted(cert["classes"].items()) if cycles)
    cert["classes"][label].append([])
    cert_path.write_text(json.dumps(cert))
    assert main(["verify", str(theta_file), str(cert_path)]) == 1
    out = capsys.readouterr().out
    assert f"{label}[{len(cert['classes'][label]) - 1}] is empty" in out


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


def test_pipeline_on_graph6_with_data_past_the_matrix(tmp_path, capsys):
    bad = tmp_path / "k4_and_more.g6"
    bad.write_text("C~~~~~\n")
    assert main(["pipeline", str(bad)]) == 3
    assert "past the adjacency matrix" in assert_one_input_error_line(capsys)


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


def _seed_files() -> dict:
    """Valid inputs the fuzzing below starts from: graph JSON with int and
    mixed ids, graph6 and sparse6 lines (sparse6 with parallel edges and
    loops), and the certificate the pipeline writes for each JSON graph."""
    mixed = Multigraph(
        ["a", 1, ("t", 2), 3.5],
        [(0, "a", 1), ("x", "a", ("t", 2)), (("e", 2), "a", 3.5), (3, 1, ("t", 2)), (4, 1, 3.5), (5, ("t", 2), 3.5)],
    )
    graphs = {"theta": theta_graph(), "k4": k4(), "prism": prism(), "mixed": mixed}
    files = {f"{name}.json": json.dumps(graph_to_json(g)) for name, g in graphs.items()}
    files.update({"k4.g6": "C~\n", "petersen.g6": "IheA@GUAo\n", "two.g6": ">>graph6<<C~\nEhEG\n"})
    files.update({"triple.s6": ":A_\n", "dumbbell.s6": ">>sparse6<<:AH\n"})
    certs = {}
    for name, g in graphs.items():
        report = run_pipeline(g, strategy="exhaustive" if name == "mixed" else "two_factor")
        certs[f"{name}.json"] = json.dumps(report.certificate)
    return files, certs


SEED_FILES, SEED_CERTIFICATES = _seed_files()

BYTE_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete", "replace", "repeat")),
        st.integers(0, 10**4),
        st.sampled_from(b'{}[]:,"-.0123456789~?@_ \n\xff\xe9eE') | st.integers(0, 255),
    ),
    max_size=4,
)


def mutated_bytes(data: bytes, edits) -> bytes:
    """data with each edit made at its position (taken modulo the length):
    a byte inserted, deleted or replaced, or the bytes up to there
    repeated once."""
    for kind, pos, byte in edits:
        pos %= len(data) + 1
        if kind == "insert":
            data = data[:pos] + bytes([byte]) + data[pos:]
        elif kind == "delete":
            data = data[:pos] + data[pos + 1:]
        elif kind == "replace":
            data = data[:pos] + bytes([byte]) + data[pos + 1:]
        else:
            data = data[:pos] + data[:pos] + data[pos:]
    return data


@st.composite
def mutated_json(draw, text: str) -> str:
    """The JSON text with one value somewhere in it replaced by any JSON
    value, or a key dropped, or left as it is."""
    obj = json.loads(text)
    node, path = obj, []
    while isinstance(node, (list, dict)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append((node, key))
        node = node[key]
    if path:
        parent, key = path[-1]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JSON_VALUES)
    elif draw(st.booleans()):
        obj = draw(JSON_VALUES)
    return json.dumps(obj)


@st.composite
def fuzzed_input(draw, name: str, text: str) -> bytes:
    if name.endswith(".json") and draw(st.booleans()):
        text = draw(mutated_json(text))
    return mutated_bytes(text.encode(), draw(BYTE_EDITS))


def run_main(argv) -> tuple[int, str]:
    """main(argv) with its output captured: the exit code and stderr."""
    import contextlib
    import io

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_mutated_graph_and_certificate_files(data):
    """Mutated graph JSON, graph6 and sparse6 files and certificate JSON,
    run through pipeline, verify and corpus, each end with a documented
    exit code and at most one line on stderr, an input error line, never a
    traceback."""
    command = data.draw(st.sampled_from(("pipeline", "verify", "corpus")))
    if command == "verify":
        name = data.draw(st.sampled_from(sorted(SEED_CERTIFICATES)))
        cert = SEED_CERTIFICATES[name]
        graph, cert = (
            (data.draw(fuzzed_input(name, SEED_FILES[name])), cert.encode())
            if data.draw(st.booleans())
            else (SEED_FILES[name].encode(), data.draw(fuzzed_input("cert.json", cert)))
        )
    else:
        name = data.draw(st.sampled_from(sorted(SEED_FILES)))
        graph = data.draw(fuzzed_input(name, SEED_FILES[name]))
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp) / "graphs"
        folder.mkdir()
        gpath = folder / name
        gpath.write_bytes(graph)
        if command == "verify":
            cpath = Path(tmp) / "cert.json"
            cpath.write_bytes(cert)
            code, err = run_main(["verify", str(gpath), str(cpath)])
        elif command == "pipeline":
            code, err = run_main(["pipeline", str(gpath)])
        else:
            code, err = run_main(["corpus", str(folder), "--jobs", "1"])
    lines = err.strip().splitlines()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err and len(lines) <= 1
    assert all(line.startswith("input error:") for line in lines)
    if code == 3 and command != "corpus":  # corpus reports a bad file in its report
        assert len(lines) == 1


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("latin1.g6", b"C\xe9~\n", "can't decode byte 0xe9 in position 1"),
        ("accent.g6", "C\u00e9~\n".encode(), "lines are ASCII"),
        ("bom.json", b"\xff\xfe{", "can't decode byte 0xff in position 0"),
        ("huge.s6", b":~~~~~~~~\n", "size field declares 68719476735 vertices, more than 1000000"),
        ("empty.json", b'{"vertices": [], "edges": []}', "the graph has no vertices"),
        ("deep.json", b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["not-utf8", "not-ascii", "bom", "huge-size-field", "no-vertices", "deep-json"],
)
def test_pipeline_refuses_what_it_cannot_read(tmp_path, capsys, name, content, message):
    """Files the fuzzing above turned up, and JSON nested past the
    parser's depth: bytes that are not UTF-8, a graph6 line that is not
    ASCII, a sparse6 size field past MAX_VERTICES (refused before any
    vertex is made), a graph with no vertex and the deep JSON each end
    with exit 3 and one line, in pipeline, verify and corpus."""
    gpath = tmp_path / name
    gpath.write_bytes(content)
    cpath = tmp_path / "cert.json"
    cpath.write_text('{"classes": {}}')
    for argv in (["pipeline", str(gpath)], ["verify", str(gpath), str(cpath)]):
        if name == "empty.json" and argv[0] == "verify":
            assert main(argv) == 0  # the empty cover covers the empty graph
            capsys.readouterr()
            continue
        assert main(argv) == 3
        assert message in assert_one_input_error_line(capsys)
    report = tmp_path / "agg.json"
    folder = tmp_path / "graphs"
    folder.mkdir()
    (folder / name).write_bytes(content)
    assert main(["corpus", str(folder), "--jobs", "1", "--report", str(report)]) == 3
    (only,) = json.loads(report.read_text())["reports"]
    assert only["outcome"] == "input_error" and message in only["error"]


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



USAGE_ERRORS = {
    "columns-not-a-number": (["scan-rows", "--columns", "abc"], "--columns: 'abc' is not a non-negative integer"),
    "missing-graph": (["pipeline"], "required: graph"),
    "unknown-command": (["frobnicate"], "invalid choice: 'frobnicate'"),
    "no-command": ([], "required: command"),
    "unknown-option": (["verify", "g.json", "c.json", "--fast"], "unrecognized arguments: --fast"),
    "negative-columns": (["scan-rows", "--columns", "-3"], "--columns: '-3' is not a non-negative integer"),
    "negative-max-edges": (["scan-rows", "--max-edges", "-1"], "--max-edges: '-1' is not a non-negative integer"),
    "negative-max-vertices": (["corpus", "--max-vertices", "-2"], "--max-vertices: '-2' is not a non-negative integer"),
}


@pytest.mark.parametrize("name", list(USAGE_ERRORS))
def test_usage_errors_exit_3(name, capsys):
    """A command line argparse refuses, or a negative count, is one input
    error line and exit 3, never exit 2 (no frame or witness), and runs
    nothing."""
    argv, phrase = USAGE_ERRORS[name]
    assert main(argv) == 3
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:") and phrase in err[0], err
    assert captured.out == ""


def test_help_and_zero_counts_still_exit_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert main(["scan-rows", "--columns", "0", "--max-edges", "0"]) == 0
    assert "scanned 0 row graphs" in capsys.readouterr().out

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


def test_cli_import_builds_no_row_tables():
    """Importing the command line runs none of the row layer's cached
    builders: the oracle's column assignments and the rearrangement table
    wait for their first caller."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import kotzigcdc.cli; from kotzigcdc import rowgraph; "
        "print([tuple(f.cache_info())[:2] for f in "
        "(rowgraph._column_color_assignments, rowgraph._kind_action)])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[(0, 0), (0, 0)]"


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


@pytest.mark.parametrize(
    "env, argv",
    [("abc", []), ("0", []), (None, ["--jobs", "-1"])],
    ids=["env-abc", "env-0", "jobs-minus-1"],
)
def test_corpus_refuses_a_bad_worker_count(monkeypatch, capsys, env, argv):
    """A worker count that is not an integer of at least 1 ends the command
    with one input error line before any graph is generated or run."""
    if env is None:
        monkeypatch.delenv(cli.JOBS_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.JOBS_ENV, env)
    monkeypatch.setattr(cli, "cubic_corpus", lambda *a, **k: pytest.fail("corpus generated"))
    assert main(["corpus", "--max-vertices", "4", *argv]) == 3
    assert "worker count" in assert_one_input_error_line(capsys)


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


def test_degenerate_k_components_reported():
    """A K-component with no 2-valent vertex is listed in the frame JSON:
    K4 as its own frame; Petersen's exhaustive frame subdivides, so no key."""
    g = k4()
    report = run_pipeline(g, strategy="user_supplied", frame_edges=g.edge_ids)
    assert report.outcome == "verified"
    assert report.frame["degenerate_k_components"] == [1]
    report = run_pipeline(petersen(), strategy="exhaustive")
    assert report.outcome == "verified"
    assert "degenerate_k_components" not in report.frame


# sha256 of the reports of test_golden_reports, without their seconds.  It
# pins every outcome, frame, certificate and trace; a change meant to alter
# them must give the new digest and say why.
GOLDEN_REPORTS_SHA256 = "c66c02a35c86c4dd46f4171c4395defdc3024826f0557c56b387d206822e3100"


def test_golden_reports():
    """The corpus up to 8 vertices under the corpus command's policy, and
    seeded frames with two or three K4 subdivisions with their traces,
    report exactly what they reported when the digest was pinned."""
    reports = [
        cli._corpus_worker((f"cubic_{g.num_vertices()}v_{idx}", graph_to_json(g), "two_factor"))
        for idx, g in enumerate(cubic_corpus(8))
    ]
    reports += [
        run_pipeline(g, strategy="user_supplied", frame_edges=frame_edges, collect_trace=True)
        for g, frame_edges in planted_multi_k_hosts(range(10))
    ]
    payload = [{k: v for k, v in r.to_json().items() if k != "seconds"} for r in reports]
    text = json.dumps(payload, sort_keys=True, default=repr)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS_SHA256


# Vertex and edge ids that are not all integers: every order the program
# takes (cycles by least edge, a cycle from its least vertex, components
# by least member) falls back to (type name, repr) on a set that does not
# compare, and the mixed ids make one set fall back while a subset of it
# does not.
NON_INTEGER_IDS = {
    "str": (lambda v: f"v{v}", lambda e: f"e{e}"),
    "tuple": (lambda v: (v % 3, v), lambda e: (e % 4, e)),
    "mixed": (lambda v: f"v{v}" if v % 5 == 0 else v, lambda e: f"e{e}" if e % 7 == 0 else e),
}

# sha256 of the reports of test_golden_reports_on_non_integer_ids, without
# their seconds, pinned like GOLDEN_REPORTS_SHA256.
GOLDEN_NON_INTEGER_SHA256 = "c217c75daefb5777685ae600a0da60f66b11a818d8b4bd85025229fd95a64db8"


def test_golden_reports_on_non_integer_ids():
    """Seeded frames with two or three K4 subdivisions, their vertex and
    edge ids renamed to strings, tuples and a mix of ints and strings,
    report exactly what they reported when the digest was pinned."""
    reports = []
    for kind, (vertex, edge) in NON_INTEGER_IDS.items():
        for g, frame_edges in planted_multi_k_hosts(range(10)):
            h = Multigraph(
                [vertex(v) for v in g.vertices],
                [(edge(k), vertex(a), vertex(b)) for k, a, b in g.edges()],
            )
            reports.append(run_pipeline(
                h, name=kind, strategy="user_supplied",
                frame_edges=[edge(k) for k in frame_edges], collect_trace=True,
            ))
    assert all(r.outcome == "verified" for r in reports)
    payload = [{k: v for k, v in r.to_json().items() if k != "seconds"} for r in reports]
    text = json.dumps(payload, default=repr)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_NON_INTEGER_SHA256


def planted_wide_hosts(seeds):
    """Seeded planted hosts with one to three K4 subdivisions on 40 to 116
    vertices, with their frame edge ids: row graphs of up to 16 columns."""
    for seed in seeds:
        rng = random.Random(seed)
        k4s = rng.choice((1, 2, 3))
        yield planted_host(rng.randrange(max(40, 16 * k4s + 4), 118, 2), rng, k4s)


# The seeds in range(300) whose run swaps rows 2 and 3 in a row graph of 10
# or more columns, where the columns' order by (type name, repr), 1, 10,
# 11, ..., 2, is not their numeric order.
WIDE_SWAP_SEEDS = (
    11, 13, 16, 34, 38, 63, 68, 74, 76, 93, 95, 99, 105, 110, 112, 124,
    130, 136, 157, 163, 182, 186, 189, 193, 196, 212, 219, 244, 254, 278, 290, 297,
)

# sha256 of the reports of test_golden_reports_on_wide_row_swaps, without
# their seconds, pinned like GOLDEN_REPORTS_SHA256.
GOLDEN_WIDE_SWAP_SHA256 = "b4a2ee43d5407227d506c889cce978c65ead9e75766148282f64dd4b10f1136e"


def test_golden_reports_on_wide_row_swaps():
    """Seeded frames whose row graph has 10 to 15 columns and needs a row
    2/3 swap report exactly what they reported when the digest was
    pinned."""
    reports = [
        run_pipeline(g, strategy="user_supplied", frame_edges=frame_edges, collect_trace=True)
        for g, frame_edges in planted_wide_hosts(WIDE_SWAP_SEEDS)
    ]
    for report in reports:
        assert report.outcome == "verified"
        assert len(report.frame["components"]) >= 10
        assert any(step["step"] == "row23_swap" for step in report.trace["steps"])
    payload = [{k: v for k, v in r.to_json().items() if k != "seconds"} for r in reports]
    text = json.dumps(payload, sort_keys=True, default=repr)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_WIDE_SWAP_SHA256
