"""Text formats: parsing, validation errors with positions, round trips."""

import random

import pytest

from matpart.model import BLUE, GREEN, RED, SimpleGraph, vertex_pairs
from matpart.textio import (
    ParseError,
    parse_graph,
    parse_matrix,
    parse_scenario,
    parse_type,
    serialize_graph,
    serialize_matrix,
    serialize_type,
)


class TestMatrixFormat:
    def test_two_coloring(self):
        mat = parse_matrix("2\n0*\n*0\n")
        assert mat.entries == ((0, 2), (2, 0))

    def test_star_on_diagonal_rejected(self):
        with pytest.raises(ParseError, match="star on diagonal 0"):
            parse_matrix("1\n*\n")

    def test_asymmetry_rejected(self):
        with pytest.raises(ParseError, match=r"not symmetric \(0,1\)"):
            parse_matrix("2\n01\n*0\n")

    def test_bad_character_reports_position(self):
        with pytest.raises(ParseError, match="line 3, column 2"):
            parse_matrix("2\n01\n1x\n")

    def test_bad_dimension(self):
        with pytest.raises(ParseError, match="dimension"):
            parse_matrix("zebra\n")

    def test_short_row(self):
        with pytest.raises(ParseError, match="expected 3"):
            parse_matrix("3\n011\n11\n110\n")

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            m = rng.randint(1, 7)
            rows = [[0] * m for _ in range(m)]
            for i in range(m):
                rows[i][i] = rng.choice((0, 1))
                for j in range(i + 1, m):
                    rows[i][j] = rows[j][i] = rng.choice((0, 1, 2))
            from matpart.model import PartitionMatrix

            mat = PartitionMatrix.from_rows(rows)
            assert parse_matrix(serialize_matrix(mat)) == mat

    def test_type_files_use_matrix_format(self):
        tau = parse_type("2\n0*\n*0\n")
        assert tau.vertex_colors == (RED, RED)
        assert tau.edge_colors == (GREEN,)
        assert serialize_type(tau) == "2\n0*\n*0\n"


class TestGraphFormat:
    def test_triangle(self):
        g = parse_graph("3 3\n0 1\n1 2\n0 2\n")
        assert g == SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])

    def test_loop_rejected(self):
        with pytest.raises(ParseError, match="loop"):
            parse_graph("2 1\n0 0\n")

    def test_duplicate_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("3 2\n0 1\n0 1\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_graph("2 1\n0 5\n")

    def test_reversed_order_rejected(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_graph("3 1\n2 1\n")

    def test_round_trip_normalizes(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(0, 8)
            g = SimpleGraph.from_edges(
                n, [e for e in vertex_pairs(n) if rng.random() < 0.4]
            )
            assert parse_graph(serialize_graph(g)) == g


class TestScenarioFormat:
    TEXT = """
model=friendly
candidate=red
vertex=r1:red
vertex=r2:red
vertex=b1:blue
vertex=b2:blue
set=r1,r2
set=b1,b2
"""

    def test_parse(self):
        scenario = parse_scenario(self.TEXT)
        assert scenario.model == "friendly"
        assert scenario.candidate_color == RED
        assert scenario.sets == (("r1", "r2"), ("b1", "b2"))

    def test_missing_model(self):
        with pytest.raises(ParseError, match="model"):
            parse_scenario("candidate=red\n")

    def test_undeclared_member(self):
        with pytest.raises(ParseError, match="not declared"):
            parse_scenario("model=general\ncandidate=red\nset=q\n")

    def test_bad_key(self):
        with pytest.raises(ParseError, match="unknown scenario key"):
            parse_scenario("model=general\ncandidate=red\nwibble=1\n")
