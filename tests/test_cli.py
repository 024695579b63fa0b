"""End-to-end CLI runs: reports, exit codes, determinism, malformed inputs."""

import subprocess
import sys

import pytest

from matpart.constructions import build_planted_obstruction
from matpart.textio import serialize_graph, serialize_type

COL2 = "2\n0*\n*0\n"
COL3 = "3\n0**\n*0*\n**0\n"
TRIANGLE = "3 3\n0 1\n1 2\n0 2\n"
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"

SCENARIO_7_18 = """model=friendly
candidate=red
vertex=r1:red
vertex=r2:red
vertex=b1:blue
vertex=b2:blue
set=r1,r2
set=b1,b2
"""

EXPERIMENT = """property=block_rows
model=friendly
n=8,12
seeds=0..19
threshold=0.5
"""


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "matpart.cli", *args],
        capture_output=True,
        text=True,
    )


def parse_report(stdout):
    fields = {}
    for line in stdout.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            fields.setdefault(key, value)
    return fields


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "col2.mat").write_text(COL2)
    (tmp_path / "col3.mat").write_text(COL3)
    (tmp_path / "triangle.graph").write_text(TRIANGLE)
    (tmp_path / "k4.graph").write_text(K4)
    (tmp_path / "scenario.txt").write_text(SCENARIO_7_18)
    (tmp_path / "experiment.txt").write_text(EXPERIMENT)
    return tmp_path


class TestSolve:
    def test_k4_has_no_three_coloring(self, workdir):
        res = run_cli(
            "solve",
            "--graph", str(workdir / "k4.graph"),
            "--type", str(workdir / "col3.mat"),
        )
        assert res.returncode == 0
        fields = parse_report(res.stdout)
        assert fields["status"] == "none"
        assert "map" not in fields

    def test_triangle_three_colorable(self, workdir):
        res = run_cli(
            "solve",
            "--graph", str(workdir / "triangle.graph"),
            "--type", str(workdir / "col3.mat"),
        )
        assert res.returncode == 0
        assert parse_report(res.stdout)["status"] == "found"

    def test_node_limit_gives_exit_3(self, workdir):
        res = run_cli(
            "solve",
            "--graph", str(workdir / "k4.graph"),
            "--type", str(workdir / "col3.mat"),
            "--node-limit", "2",
        )
        assert res.returncode == 3
        assert parse_report(res.stdout)["status"] == "limit"

    # build_planted_obstruction(n, m, seed), solved by ListSearch alone; the
    # proofs and the limit run pass BATCH_BUDGET, so the batched path must
    # print the same bytes.  The n = 16 gadget, 23 vertices into 32, is one
    # the batched core decides within its byte bound.
    GADGET_CASES = [
        (12, 3, 4, [], 0, "status=none\nnodes=11044\ndepth=16\n"),
        (12, 3, 4, ["--node-limit", "5000"], 3, "status=limit\nnodes=5001\ndepth=16\n"),
        (12, 3, 0, [], 0, "status=found\nnodes=780\ndepth=11\nmap=1 17 16 6 11 18 10 10 10 15 15 15\n"),
        (16, 4, 3, [], 0, "status=none\nnodes=58335\ndepth=20\n"),
    ]

    @pytest.mark.parametrize("n,m,seed,extra,code,tail", GADGET_CASES)
    def test_gadget_stdout_is_pinned(self, tmp_path, n, m, seed, extra, code, tail):
        inst = build_planted_obstruction(n, m, seed)
        graph, mat = tmp_path / "gadget.graph", tmp_path / "gadget.mat"
        graph.write_text(serialize_graph(inst.graph))
        mat.write_text(serialize_type(inst.tau))
        res = run_cli("solve", "--graph", str(graph), "--type", str(mat), *extra)
        assert res.returncode == code, res.stderr
        assert res.stdout == f"command=solve\ngraph={graph}\ntype={mat}\n" + tail

    def test_search_deeper_than_recursion_limit(self, tmp_path):
        (tmp_path / "edgeless.graph").write_text("1200 0\n")
        (tmp_path / "red.mat").write_text("1\n0\n")
        res = run_cli(
            "solve",
            "--graph", str(tmp_path / "edgeless.graph"),
            "--type", str(tmp_path / "red.mat"),
        )
        assert res.returncode == 0, res.stderr
        assert parse_report(res.stdout)["status"] == "found"


class TestObstructions:
    def test_two_coloring_list(self, workdir):
        res = run_cli(
            "obstructions", "--matrix", str(workdir / "col2.mat"), "--max-n", "5"
        )
        assert res.returncode == 0
        fields = parse_report(res.stdout)
        assert fields["count"] == "2"
        assert fields["graph_1"] == "order:3;edges:0-1,0-2,1-2"

    def test_deterministic(self, workdir):
        args = ("obstructions", "--matrix", str(workdir / "col2.mat"), "--max-n", "6")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestGenType:
    def test_byte_identical_reruns(self, workdir):
        out1, out2 = workdir / "a.type", workdir / "b.type"
        r1 = run_cli("gen-type", "--n", "10", "--model", "friendly", "--seed", "7",
                     "--out", str(out1))
        r2 = run_cli("gen-type", "--n", "10", "--model", "friendly", "--seed", "7",
                     "--out", str(out2))
        assert r1.returncode == r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_planted_pattern_is_findable(self, workdir):
        out = workdir / "planted.type"
        res = run_cli("gen-type", "--n", "8", "--model", "friendly", "--seed", "3",
                      "--plant", "thm1", "--out", str(out))
        assert res.returncode == 0
        from matpart.model import find_subtype_copy, rho_obstruction_family
        from matpart.textio import parse_type

        tau = parse_type(out.read_text())
        assert find_subtype_copy(tau, rho_obstruction_family()) is not None
        assert parse_report(res.stdout)["friendly"] == "true"


class TestCheckFriendly:
    def test_reports_unfriendly(self, workdir):
        res = run_cli("check-friendly", "--matrix", str(workdir / "col2.mat"))
        assert res.returncode == 0
        assert parse_report(res.stdout)["friendly"] == "false"


class TestLemma:
    def test_type_file_mode(self, workdir):
        out = workdir / "small.type"
        run_cli("gen-type", "--n", "5", "--model", "friendly", "--seed", "1",
                "--out", str(out))
        res = run_cli("lemma", "--which", "nsize", "--type-file", str(out))
        assert res.returncode == 0
        fields = parse_report(res.stdout)
        assert fields["mode"] == "exhaustive"
        assert fields["part_i"] in ("true", "false")
        assert fields["part_i_threshold"] == "2/3"

    def test_sample_mode(self):
        res = run_cli("lemma", "--which", "nsize", "--sample", "10", "--seeds", "5")
        assert res.returncode == 0
        fields = parse_report(res.stdout)
        assert fields["trials"] == "5"

    def test_requires_exactly_one_source(self):
        res = run_cli("lemma", "--which", "nsize")
        assert res.returncode == 2

    def test_zero_sample_names_the_size(self):
        res = run_cli("lemma", "--which", "nsize", "--sample", "0", "--seeds", "3")
        assert res.returncode == 2
        assert "n must be >= 1" in res.stderr
        assert "exactly one of" not in res.stderr

    def test_zero_seeds_names_the_seed_count(self):
        res = run_cli("lemma", "--which", "nsize", "--sample", "5", "--seeds", "0")
        assert res.returncode == 2
        assert "need at least one seed" in res.stderr
        assert "requires --seeds" not in res.stderr


class TestConstructObstruction:
    def test_with_checks(self):
        res = run_cli("construct-obstruction", "--n", "10", "--m", "2",
                      "--seed", "5", "--check")
        assert res.returncode == 0
        fields = parse_report(res.stdout)
        assert fields["check_deleted_link_embeddings"] == "true"
        assert fields["check_restricted_unsat"] == "true"
        assert int(fields["graph_order"]) == int(fields["sigma_size"]) + 4

    def test_deterministic(self):
        args = ("construct-obstruction", "--n", "9", "--m", "1", "--seed", "2")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestReduce:
    def test_verified_reduction(self, workdir):
        out = workdir / "host.type"
        run_cli("gen-type", "--n", "15", "--model", "general", "--seed", "4",
                "--plant", "thm3", "--out", str(out))
        res = run_cli("reduce", "--graph", str(workdir / "triangle.graph"),
                      "--type", str(out), "--rho", "thm3", "--verify")
        assert res.returncode == 0
        fields = parse_report(res.stdout)
        assert fields["verified"] == "true"
        assert int(fields["output_order"]) == 3 + int(fields["sigma_size"])

    def test_verify_fails_for_k4(self, workdir):
        out = workdir / "host2.type"
        run_cli("gen-type", "--n", "15", "--model", "general", "--seed", "4",
                "--plant", "thm3", "--out", str(out))
        res = run_cli("reduce", "--graph", str(workdir / "k4.graph"),
                      "--type", str(out), "--rho", "thm3", "--verify")
        assert res.returncode == 1
        assert parse_report(res.stdout)["verified"] == "false"

    def test_missing_pattern_is_input_error(self, workdir):
        res = run_cli("reduce", "--graph", str(workdir / "triangle.graph"),
                      "--type", str(workdir / "col2.mat"), "--rho", "thm3")
        assert res.returncode == 2
        assert "no copy" in res.stderr


class TestProb:
    def test_generic_scenario(self, workdir):
        res = run_cli("prob", "--scenario", str(workdir / "scenario.txt"))
        assert res.returncode == 0
        fields = parse_report(res.stdout)
        assert fields["value"] == "7/18"
        assert fields["decimal"] == "0.388889"


class TestExperiment:
    def test_run_and_determinism(self, workdir):
        args = ("experiment", "--spec", str(workdir / "experiment.txt"))
        r1, r2 = run_cli(*args), run_cli(*args)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        assert "threshold_met=true" in r1.stdout

    def test_unmet_threshold_exits_1(self, workdir):
        spec = workdir / "hard.txt"
        spec.write_text(
            "property=contains_rho\nrho=thm1\nmodel=friendly\nn=3\nseeds=5\n"
            "threshold=0.99\n"
        )
        res = run_cli("experiment", "--spec", str(spec))
        assert res.returncode == 1
        assert "threshold_met=false" in res.stdout


class TestMalformedInputs:
    CASES = [
        ("1\n*\n", "star on diagonal"),
        ("2\n01\n*0\n", "not symmetric"),
        ("2\n0x\nx0\n", "bad entry"),
        ("banana\n", "dimension"),
        ("", "missing"),
    ]

    @pytest.mark.parametrize("text,needle", CASES)
    def test_bad_matrix_is_exit_2(self, tmp_path, text, needle):
        path = tmp_path / "bad.mat"
        path.write_text(text)
        res = run_cli("check-friendly", "--matrix", str(path))
        assert res.returncode == 2
        assert needle in res.stderr
        assert "Traceback" not in res.stderr

    GRAPH_CASES = [
        ("2 1\n0 0\n", "loop"),
        ("3 2\n0 1\n0 1\n", "duplicate"),
        ("2 1\n0 9\n", "out of range"),
        ("nope\n", "header"),
    ]

    @pytest.mark.parametrize("text,needle", GRAPH_CASES)
    def test_bad_graph_is_exit_2(self, tmp_path, text, needle, workdir):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        res = run_cli("solve", "--graph", str(path),
                      "--type", str(workdir / "col3.mat"))
        assert res.returncode == 2
        assert needle in res.stderr
        assert "Traceback" not in res.stderr

    def test_non_ascii_input_names_line_and_column(self, workdir):
        """A byte outside ASCII reaches the parser, which names where it is,
        whether it decodes as UTF-8 or not."""
        col3 = str(workdir / "col3.mat")
        for data, command, needle in [
            ("2\n0é\n00\n".encode(), ("check-friendly", "--matrix"),
             "bad entry 'é' (line 2, column 2)"),
            (b"2\n0\xe9\n00\n", ("check-friendly", "--matrix"),
             "(line 2, column 2)"),
            ("2 1\n0 é\n".encode(), ("solve", "--type", col3, "--graph"),
             "bad edge '0 é' (line 2)"),
        ]:
            path = workdir / "bad.input"
            path.write_bytes(data)
            res = run_cli(*command, str(path))
            assert res.returncode == 2
            assert needle in res.stderr
            assert "Traceback" not in res.stderr

    def test_unallocatable_type_is_exit_2(self, tmp_path):
        """2e7 vertices need a 364 TiB pair table, more than any address
        space holds: an input error, not a property failure."""
        res = run_cli("gen-type", "--n", "10000000", "--model", "friendly",
                      "--seed", "1", "--out", str(tmp_path / "huge.mat"))
        assert res.returncode == 2
        assert res.stderr.startswith("error: Unable to allocate")
        assert "Traceback" not in res.stderr

    def test_bad_experiment_number_is_exit_2(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("property=block_rows\nn=5,x\nseeds=3\n")
        res = run_cli("experiment", "--spec", str(path))
        assert res.returncode == 2
        assert res.stderr == "error: bad n '5,x' (line 2)\n"

    def test_missing_file_is_exit_2(self):
        res = run_cli("check-friendly", "--matrix", "/nonexistent/m.mat")
        assert res.returncode == 2

    def test_unknown_flag_is_exit_2(self, workdir):
        res = run_cli("check-friendly", "--matrix", str(workdir / "col2.mat"),
                      "--bogus")
        assert res.returncode == 2

    def test_unknown_command_is_exit_2(self):
        assert run_cli("frobnicate").returncode == 2
