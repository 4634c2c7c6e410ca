import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import clutterkit
from clutterkit.cli import main

G5_TEXT = "5 2\n1 2\n2 5\n3 4\n3 5\n4 5\n"
C4_TEXT = "4 2\n1 2\n2 3\n3 4\n1 4\n"
IDEAL_TEXT = "5\n1 3\n1 4\n1 5\n2 3\n2 4\n"
G5_DUAL_TEXT = "5\n2 4 5\n2 3 5\n2 3 4\n1 4 5\n1 3 5\n"  # the facets [5] - e of G5's erasure order


@pytest.fixture
def g5_file(tmp_path):
    path = tmp_path / "g5.clut"
    path.write_text(G5_TEXT)
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.clut"
    path.write_text(C4_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout: str) -> dict:
    start = stdout.index("{")
    return json.loads(stdout[start:])


def test_complement(capsys, g5_file):
    code, out, _ = run(capsys, "complement", g5_file)
    assert code == 0
    report = last_json(out)
    assert report["circuits"] == [[1, 3], [1, 4], [1, 5], [2, 3], [2, 4]]


def test_exposed(capsys, g5_file):
    code, out, _ = run(capsys, "exposed", g5_file, "--circuit", "3,4")
    assert code == 0
    report = last_json(out)
    assert report["exposed"] and report["clique"] == [3, 4, 5] and report["proper"]


def test_betti_compare_and_exit_codes(capsys, g5_file):
    code, out, _ = run(capsys, "betti", "compare", g5_file)
    assert code == 0
    report = last_json(out)
    assert report["hochster"] == [5, 6, 2] and report["formula"] == [5, 6, 2]
    assert "total: 5 6 2" in out


def test_betti_hochster_quotient_shift(capsys, g5_file):
    code, out, _ = run(capsys, "betti", "hochster", g5_file, "--quotient")
    assert code == 0
    report = last_json(out)
    assert report["entries"][0] == [0, 0, 1]
    assert report["pdim"] == 3


def test_erasures_find_failure_witness(capsys, c4_file):
    code, out, _ = run(capsys, "erasures", "find", c4_file, "--require-proper")
    assert code == 1
    assert "witness" in last_json(out)


def test_erasures_pipeline(capsys, tmp_path, g5_file):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "erasures", "find", g5_file, "--out", str(cert_path))
    assert code == 0
    code, out, _ = run(capsys, "erasures", "verify", str(cert_path))
    assert code == 0
    code, out, _ = run(capsys, "erasures", "betti", str(cert_path))
    assert code == 0
    assert last_json(out)["betti"] == [5, 6, 2]
    code, out, _ = run(capsys, "shelling", "from-erasures", str(cert_path))
    assert code == 0
    assert last_json(out)["restricted_sizes"] == [0, 1, 2, 1, 2]


def test_erasures_verify_rejects_tampering(capsys, tmp_path, g5_file):
    cert_path = tmp_path / "cert.json"
    run(capsys, "erasures", "find", g5_file, "--out", str(cert_path))
    data = json.loads(cert_path.read_text())
    data["removed"][0]["k"] = 3
    cert_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "erasures", "verify", str(cert_path))
    assert code == 1


def test_ideal_commands(capsys, tmp_path):
    ideal_path = tmp_path / "ideal.txt"
    ideal_path.write_text(IDEAL_TEXT)
    code, out, _ = run(capsys, "ideal", "quotients", str(ideal_path))
    assert code == 0
    report = last_json(out)
    assert report["has_linear_quotients"] and report["ell_sequence"] == [0, 1, 2, 1, 2]

    code, out, _ = run(capsys, "ideal", "colon", str(ideal_path), "--monomial", "2,4")
    assert code == 0
    # the full five-generator ideal contains x2x4, so the colon is the unit ideal
    assert last_json(out)["unit"]

    bad = tmp_path / "bad.txt"
    bad.write_text("4\n1 2\n3 4\n")
    code, out, _ = run(capsys, "ideal", "quotients", str(bad), "--find")
    assert code == 1


def test_graph_commands(capsys, g5_file, c4_file, tmp_path):
    code, out, _ = run(capsys, "graph", "chordal", g5_file)
    assert code == 0 and last_json(out)["agree"]
    code, out, _ = run(capsys, "graph", "chordal", c4_file)
    assert code == 1

    code, out, _ = run(capsys, "graph", "peo", g5_file)
    assert code == 0 and last_json(out)["order"] == [1, 2, 3, 4, 5]

    code, out, _ = run(capsys, "graph", "chromatic", g5_file)
    assert code == 0
    report = last_json(out)
    assert report["product_formula"] == report["deletion_contraction"]

    weighted = tmp_path / "wg.clut"
    weighted.write_text("3 2\n1 2 1\n1 3 2\n2 3 3\n")
    code, out, _ = run(capsys, "graph", "mst", str(weighted))
    assert code == 0 and last_json(out)["weight"] == "3"

    code, out, _ = run(capsys, "graph", "boundary", g5_file)
    assert code == 0
    assert last_json(out)["edges"] == [[3, 4], [3, 5], [4, 5]]


def test_shelling_commands(capsys, tmp_path):
    complex_path = tmp_path / "complex.txt"
    complex_path.write_text(G5_DUAL_TEXT)
    code, out, _ = run(capsys, "shelling", "verify", str(complex_path))
    assert code == 0 and last_json(out)["restricted_sizes"] == [0, 1, 2, 1, 2]

    bad_order = tmp_path / "bad.txt"
    bad_order.write_text("4\n1 2\n3 4\n")
    code, out, _ = run(capsys, "shelling", "verify", str(bad_order))
    assert code == 1

    simplex = tmp_path / "simplex.txt"
    simplex.write_text("4\n1 2 3 4\n")
    code, out, _ = run(capsys, "shelling", "dual", str(simplex))
    assert code == 0 and last_json(out)["facets"] == []

    skeleton = tmp_path / "skeleton.txt"
    skeleton.write_text("5\n" + "\n".join(
        " ".join(map(str, f))
        for f in __import__("itertools").combinations(range(1, 6), 3)
    ) + "\n")
    code, out, _ = run(capsys, "shelling", "extendable", str(skeleton))
    assert code == 0 and last_json(out)["extendable"]


def test_shelling_extendable_reports_a_stuck_witness(capsys, tmp_path):
    triangles = "123 124 125 136 145 235 246 256 345 346".split()
    path = tmp_path / "stuck.txt"
    path.write_text("6\n" + "\n".join(" ".join(t) for t in triangles) + "\n")
    code, out, _ = run(capsys, "shelling", "extendable", str(path))
    report = last_json(out)
    assert code == 1 and not report["extendable"] and report["partial_shellings_checked"] == 181
    assert report["stuck_witness"] == [[1, 3, 6], [3, 4, 6], [2, 4, 6], [2, 5, 6]]


def test_probe_commands(capsys):
    code, out, _ = run(capsys, "probe", "simon", "--n", "4", "--d", "2")
    assert code == 0 and last_json(out)["counterexamples"] == []
    code, out, _ = run(capsys, "probe", "ridge-chordal", "--n", "4", "--d", "2")
    assert code == 0 and last_json(out)["counterexamples"] == []


def test_suite_commands(capsys):
    code, out, _ = run(capsys, "suite", "exhaustive", "froberg", "--n", "4")
    assert code == 0 and last_json(out)["ok"]
    code, out, _ = run(capsys, "suite", "random", "--count", "20", "--max-n", "6", "--seed", "5")
    assert code == 0 and last_json(out)["ok"]


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.clut"
    bad.write_text("4 2\n1 2 3\n")
    code, _, err = run(capsys, "graph", "chordal", str(bad))
    assert code == 2 and "line 2" in err


def test_size_guard_exit_code(capsys, tmp_path):
    big = tmp_path / "big.clut"
    big.write_text("17 2\n")
    code, _, err = run(capsys, "betti", "hochster", str(big))
    assert code == 2 and "size guard" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("probe", "simon", "--n", "9", "--d", "3"),
        ("suite", "exhaustive", "froberg", "--n", "9"),
        ("suite", "exhaustive", "chromatic", "--n", "8"),
        ("suite", "exhaustive", "boundary", "--n", "8"),
        ("suite", "exhaustive", "multiset", "--n", "7", "--d", "3"),
        ("suite", "exhaustive", "connectivity", "--n", "8"),
        ("suite", "exhaustive", "free-face", "--n", "7", "--d", "3"),
    ],
)
def test_closure_size_guard_exit_code(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert code == 2 and "size guard" in err and "Traceback" not in err
    assert time.perf_counter() - start < 1.0


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "graph", "chordal", "/nonexistent/file.clut")
    assert code == 2


def test_reports_are_deterministic(capsys, g5_file):
    _, out1, _ = run(capsys, "betti", "compare", g5_file)
    _, out2, _ = run(capsys, "betti", "compare", g5_file)
    assert out1 == out2


G5_CERTIFICATE = {
    "n": 5,
    "d": 2,
    "removed": [
        {"circuit": [1, 3], "clique": [1, 2, 3, 4, 5], "k": 0, "proper": True},
        {"circuit": [1, 4], "clique": [1, 2, 4, 5], "k": 1, "proper": True},
        {"circuit": [1, 5], "clique": [1, 2, 5], "k": 2, "proper": True},
        {"circuit": [2, 3], "clique": [2, 3, 4, 5], "k": 1, "proper": True},
        {"circuit": [2, 4], "clique": [2, 4, 5], "k": 2, "proper": True},
    ],
}


@pytest.mark.parametrize(
    "document",
    [
        [1, 2],
        {**G5_CERTIFICATE, "result_circuits": 5},
        {**G5_CERTIFICATE, "n": "5"},
        {**G5_CERTIFICATE, "removed": [5]},
    ],
)
def test_malformed_certificate_exit_code(capsys, tmp_path, document):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(document))
    for command in ("verify", "betti"):
        code, _, err = run(capsys, "erasures", command, str(path))
        assert code == 2 and "Traceback" not in err and "certificate" in err


def test_well_formed_certificate_still_replays(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(G5_CERTIFICATE))
    code, out, _ = run(capsys, "erasures", "verify", str(path))
    assert code == 0 and last_json(out)["result_circuits"] == [[1, 2], [2, 5], [3, 4], [3, 5], [4, 5]]


def test_d_subset_guard_exit_code(capsys, tmp_path):
    big = tmp_path / "big.clut"
    big.write_text("26 13\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "complement", str(big))
    assert code == 2 and "size guard" in err and "Traceback" not in err
    assert time.perf_counter() - start < 1.0


def test_jobs_below_one_exit_code(capsys):
    code, _, err = run(capsys, "suite", "exhaustive", "chromatic", "--n", "4", "--jobs", "0")
    assert code == 2 and "jobs" in err


def test_verify_size_guard_exit_code(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"n": 40, "d": 20, "removed": []}))
    code, _, err = run(capsys, "erasures", "verify", str(path))
    assert code == 2 and "size guard" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "kind",
    ["froberg", "connectivity", "clutter-erasure", "chromatic", "boundary", "free-face", "skeleton", "multiset"],
)
def test_jobs_below_one_exit_code_for_every_kind(capsys, kind):
    code, _, err = run(capsys, "suite", "exhaustive", kind, "--n", "4", "--jobs", "0")
    assert code == 2 and "jobs" in err


@pytest.mark.parametrize("n, d", [(3, 5), (0, 0), (65, 2)])
def test_impossible_certificate_sizes_exit_code(capsys, tmp_path, n, d):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"n": n, "d": d, "removed": []}))
    code, _, err = run(capsys, "erasures", "verify", str(path))
    assert code == 2 and "Traceback" not in err and "certificate" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("probe", "simon", "--n", "3", "--d", "5"),
        ("probe", "ridge-chordal", "--n", "3", "--d", "5"),
        ("suite", "exhaustive", "multiset", "--n", "3", "--d", "5"),
        ("probe", "ridge-chordal", "--n", "3", "--d", "-1"),
        ("suite", "exhaustive", "free-face", "--n", "3", "--d", "-1"),
        ("suite", "exhaustive", "clutter-erasure", "--n", "3", "--d", "-1"),
    ],
)
def test_impossible_sizes_exit_code(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "need 1 <= d <= n" in err and "Traceback" not in err


def test_unsorted_circuit_is_invalid(capsys, tmp_path):
    # replayed as 13, recorded as 31: the result would still list 13
    path = tmp_path / "cert.json"
    step = {"circuit": [3, 1], "clique": [1, 2, 3, 4], "k": 0, "proper": True}
    path.write_text(json.dumps({"n": 4, "d": 2, "removed": [step]}))
    code, out, _ = run(capsys, "erasures", "verify", str(path))
    assert code == 1 and "step 1" in last_json(out)["error"]


# Inputs that must be refused with exit 2 and a one-line message, never a
# traceback, within a second.  Each row writes its files into a fresh
# directory and returns the argv that reads them.
BAD_INPUTS = {
    "directory": lambda tmp: ("complement", str(tmp)),
    "non-utf8": lambda tmp: ("complement", write(tmp / "bin.clut", b"\xff\xfe\x00bad")),
    "json-list-certificate": lambda tmp: ("erasures", "verify", write(tmp / "cert.json", b"[1, 2]")),
    "circuit-not-integers": lambda tmp: ("exposed", write(tmp / "g.clut", G5_TEXT.encode()), "--circuit", "a"),
    "empty-monomial": lambda tmp: (
        "ideal", "colon", write(tmp / "ideal.txt", IDEAL_TEXT.encode()), "--monomial", ""
    ),
    "header-0-0": lambda tmp: ("complement", write(tmp / "zero.clut", b"0 0\n")),
    "weight-not-rational": lambda tmp: ("graph", "mst", write(tmp / "w.clut", b"3 2\n1 2 x\n")),
    "negative-d": lambda tmp: ("probe", "ridge-chordal", "--n", "3", "--d", "-1"),
    "out-is-a-directory": lambda tmp: ("complement", write(tmp / "g.clut", G5_TEXT.encode()), "--out", str(tmp)),
    "edge-with-two-weights": lambda tmp: ("graph", "mst", write(tmp / "w.clut", b"3 2\n1 2 1\n2 1 3\n2 3 5\n")),
    "negative-n-connectivity": lambda tmp: ("suite", "exhaustive", "connectivity", "--n", "-2"),
    "negative-n-chromatic": lambda tmp: ("suite", "exhaustive", "chromatic", "--n", "-2"),
    "negative-n-boundary": lambda tmp: ("suite", "exhaustive", "boundary", "--n", "-2"),
    "negative-count": lambda tmp: ("suite", "random", "--count", "-1"),
    "negative-max-n": lambda tmp: ("suite", "random", "--count", "0", "--max-n", "-2"),
    "max-n-over-64": lambda tmp: ("suite", "random", "--count", "1", "--max-n", "700", "--seed", "5"),
    "max-n-below-3": lambda tmp: ("suite", "random", "--count", "1", "--max-n", "2"),
    "d-on-a-graph-suite": lambda tmp: ("suite", "exhaustive", "connectivity", "--n", "3", "--d", "5"),
}


def write(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("row", BAD_INPUTS)
def test_bad_input_exits_2_without_a_traceback(capsys, tmp_path, row):
    argv = BAD_INPUTS[row](tmp_path)
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert code == 2 and len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert time.perf_counter() - start < 1.0


def test_unwritable_out_names_the_output_path(capsys, tmp_path):
    source = write(tmp_path / "g.clut", G5_TEXT.encode())
    code, out, err = run(capsys, "complement", source, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("cannot write output: ") and str(tmp_path) in err


def loaded_modules(code: str) -> set[str]:
    """The ``clutterkit`` modules, and ``fractions``, that a fresh interpreter
    has loaded after running ``code``."""
    probe = code + (
        "\nimport sys\nprint(' '.join(m for m in sys.modules"
        " if m == 'fractions' or m.split('.')[0] == 'clutterkit'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(clutterkit.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def modules(*names: str) -> set[str]:
    return {f"clutterkit.{name}" for name in names}


CLI_MODULES = {"clutterkit"} | modules("cli", "formats", "clutter", "simplicial", "homology")
ERASURE_MODULES = CLI_MODULES | modules("erasures", "search")
GRAPH_MODULES = ERASURE_MODULES | modules("graphs") | {"fractions"}
SUITE_MODULES = GRAPH_MODULES | modules("suites", "ideals")
SHELLING_MODULES = ERASURE_MODULES | modules("shelling", "ideals")

# Each command of the cli benchmark, two shelling commands and two that run a
# suite: the argv, with {graph}, {certificate}, {ideal} and {complex} standing
# for input files, and the modules the call loads.
COMMAND_MODULES = {
    "complement": (["complement", "{graph}"], CLI_MODULES),
    "exposed": (["exposed", "{graph}", "--circuit", "3,4"], CLI_MODULES),
    "erasures-find": (["erasures", "find", "{graph}"], ERASURE_MODULES),
    "erasures-verify": (["erasures", "verify", "{certificate}"], ERASURE_MODULES),
    "betti-compare": (["betti", "compare", "{graph}"], ERASURE_MODULES),
    "ideal-quotients": (["ideal", "quotients", "{ideal}", "--find"], CLI_MODULES | modules("ideals", "search")),
    "graph-chordal": (["graph", "chordal", "{graph}"], GRAPH_MODULES),
    "graph-peo": (["graph", "peo", "{graph}"], GRAPH_MODULES),
    "graph-chromatic": (["graph", "chromatic", "{graph}"], GRAPH_MODULES),
    "graph-boundary": (["graph", "boundary", "{graph}"], GRAPH_MODULES),
    "shelling-verify": (["shelling", "verify", "{complex}"], SHELLING_MODULES),
    "shelling-from-erasures": (["shelling", "from-erasures", "{certificate}"], SHELLING_MODULES),
    "suite": (["suite", "exhaustive", "connectivity", "--n", "3"], SUITE_MODULES),
    "probe": (["probe", "simon", "--n", "3"], SUITE_MODULES),
}


def test_importing_the_package_or_the_cli_loads_no_kernel():
    assert loaded_modules("import clutterkit") == {"clutterkit"}
    assert loaded_modules("import clutterkit.cli") == CLI_MODULES


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, command):
    argv, expected = COMMAND_MODULES[command]
    files = {
        "graph": write(tmp_path / "g5.clut", G5_TEXT.encode()),
        "certificate": write(tmp_path / "cert.json", json.dumps(G5_CERTIFICATE).encode()),
        "ideal": write(tmp_path / "ideal.txt", IDEAL_TEXT.encode()),
        "complex": write(tmp_path / "complex.txt", G5_DUAL_TEXT.encode()),
    }
    argv = [arg.format(**files) for arg in argv] + ["--out", str(tmp_path / "report.json")]
    assert loaded_modules(f"from clutterkit.cli import main\nassert main({argv!r}) == 0") == expected
