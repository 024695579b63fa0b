"""Text formats: parsing, validation errors with positions, round trips."""

import random

import pytest

from matpart.model import (
    BLUE,
    ENTRY_CHARS,
    GREEN,
    RED,
    PartitionMatrix,
    SimpleGraph,
    TypeGraph,
    matrix_from_type,
    vertex_pairs,
)
from matpart.randtypes import RandomSpec, sample_type
from matpart.textio import (
    ParseError,
    parse_experiment_spec,
    parse_graph,
    parse_matrix,
    parse_scenario,
    parse_type,
    serialize_graph,
    serialize_matrix,
    serialize_type,
)


def reference_parse_matrix(text):
    """The character-by-character parser that parse_matrix replaced: the
    oracle for its results and for the message, line and column of its
    first error."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing dimension line", 1)
    try:
        m = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"bad dimension {lines[0].strip()!r}", 1) from None
    if m < 1:
        raise ParseError("dimension must be positive", 1)
    if len(lines) < m + 1:
        raise ParseError(f"expected {m} rows, found {len(lines) - 1}", len(lines))
    rows = []
    for i in range(m):
        raw = lines[1 + i].strip()
        if len(raw) != m:
            raise ParseError(f"row has {len(raw)} entries, expected {m}", 2 + i)
        row = []
        for j, ch in enumerate(raw):
            k = ENTRY_CHARS.find(ch)
            if k < 0:
                raise ParseError(f"bad entry {ch!r}", 2 + i, j + 1)
            row.append(k)
        rows.append(row)
    for i in range(m):
        if rows[i][i] == 2:
            raise ParseError(f"star on diagonal {i}", 2 + i, i + 1)
        for j in range(i + 1, m):
            if rows[i][j] != rows[j][i]:
                raise ParseError(f"not symmetric ({i},{j})", 2 + i, j + 1)
    for k in range(m + 1, len(lines)):
        if lines[k].strip():
            raise ParseError("trailing content after matrix", k + 1)
    return PartitionMatrix.from_rows(rows)


def reference_serialize_matrix(mat):
    body = "\n".join("".join(ENTRY_CHARS[e] for e in row) for row in mat.rows)
    return f"{mat.m}\n{body}\n"


def parse_outcome(parse, text):
    """The parsed matrix, or the message, line and column of the ParseError."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


# replacement characters: bad ASCII, whitespace, non-ASCII look-alikes, and
# a line separator that str.splitlines honours
BAD_CHARS = ("x", "2", "-", " ", "\t", "\x00", "é", "\u2217", "\uff10", "\x85")


class TestMatrixParserAgainstReference:
    def test_mutated_matrix_texts(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(
            max_examples=300, deadline=None, derandomize=True, database=None
        )
        @hypothesis.given(st.data())
        def check(data):
            m = data.draw(st.integers(1, 12), label="order")
            rows = [[0] * m for _ in range(m)]
            for i in range(m):
                rows[i][i] = data.draw(st.sampled_from("01"))
                for j in range(i + 1, m):
                    rows[i][j] = rows[j][i] = data.draw(st.sampled_from(ENTRY_CHARS))
            trailer = [""]
            for _ in range(data.draw(st.integers(1, 3), label="mutations")):
                kind = data.draw(st.sampled_from(
                    ("bad char", "short row", "long row", "diagonal star",
                     "asymmetric", "trailing content")
                ))
                i = data.draw(st.integers(0, m - 1))
                j = data.draw(st.integers(0, m - 1))
                if kind == "bad char" and j < len(rows[i]):
                    rows[i][j] = data.draw(st.sampled_from(BAD_CHARS))
                elif kind == "short row" and rows[i]:
                    del rows[i][j % len(rows[i])]
                elif kind == "long row":
                    rows[i].insert(j, data.draw(st.sampled_from(ENTRY_CHARS + "x")))
                elif kind == "diagonal star" and i < len(rows[i]):
                    rows[i][i] = "*"
                elif kind == "asymmetric" and i != j and j < len(rows[i]):
                    rows[i][j] = data.draw(
                        st.sampled_from([c for c in ENTRY_CHARS if c != rows[i][j]])
                    )
                elif kind == "trailing content":
                    trailer.append(data.draw(st.sampled_from(("0", "x", "  ", "\t1"))))
            text = f"{m}\n" + "\n".join("".join(row) for row in rows) + "\n".join(trailer)
            text += "\n"
            assert parse_outcome(parse_matrix, text) == parse_outcome(
                reference_parse_matrix, text
            )

        check()

    def test_every_bad_char_in_every_cell(self):
        rows = ["01*", "100", "*00"]
        for ch in BAD_CHARS:
            for i in range(3):
                for j in range(3):
                    bad = rows[:]
                    bad[i] = bad[i][:j] + ch + bad[i][j + 1 :]
                    text = "3\n" + "\n".join(bad) + "\n"
                    assert parse_outcome(parse_matrix, text) == parse_outcome(
                        reference_parse_matrix, text
                    )

    def test_valid_texts_with_padding(self):
        for seed in range(40):
            text = serialize_type(sample_type(RandomSpec(1 + seed % 6, "general", seed)))
            padded = "\n".join(f" {line}\t" for line in text.splitlines()) + "\n\n  \n"
            assert parse_matrix(padded) == reference_parse_matrix(padded)


class TestTypeFileRoundTrip:
    def test_empty_type_has_no_file(self):
        """The format needs a positive dimension, so the empty type is
        refused when written, as when read."""
        with pytest.raises(ValueError, match="empty type has no matrix file"):
            serialize_type(TypeGraph((), ()))
        with pytest.raises(ParseError, match="dimension must be positive"):
            parse_type("0\n\n")

    def test_empty_matrix_has_no_file(self):
        """Both serializers refuse the empty table, which parse_matrix would
        reject."""
        with pytest.raises(ValueError, match="empty matrix has no matrix file"):
            serialize_matrix(PartitionMatrix(()))
        with pytest.raises(ParseError, match="dimension must be positive"):
            parse_matrix("0\n\n")

    @pytest.mark.parametrize("model", ["friendly", "general"])
    def test_sampled_types(self, model):
        rng = random.Random(f"round-trip-{model}")
        for n in [1, 2] + [rng.randint(3, 40) for _ in range(15)]:
            tau = sample_type(RandomSpec(n, model, rng.randrange(1000)))
            text = serialize_type(tau)
            assert text == reference_serialize_matrix(parse_matrix(text))
            assert parse_type(text) == tau


class TestMatrixFormat:
    def test_two_coloring(self):
        mat = parse_matrix("2\n0*\n*0\n")
        assert mat.rows == (b"\0\2", b"\2\0")

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


# (parser, text, the ParseError's whole message with its line)
PARSE_ERRORS = [
    (parse_graph, "a b\n", "bad header 'a b' (line 1)"),
    (parse_graph, "3 -1\n", "negative count in header (line 1)"),
    (parse_graph, "3 2\n0 1\n", "expected 2 edges, found 1 (line 2)"),
    (parse_graph, "3 1\n0 1 2\n", 'edge line must be "u v" (line 2)'),
    (parse_graph, "3 1\n0 1\n\n2\n", "trailing content after edges (line 4)"),
    (parse_matrix, "3\n000\n000\n", "expected 3 rows, found 2 (line 3)"),
    (parse_scenario, "model=general\ncandidate\n", "expected key=value, got 'candidate' (line 2)"),
    (
        parse_scenario,
        "model=general\ncandidate=green\n",
        "candidate must be red or blue, got 'green' (line 2)",
    ),
    (
        parse_scenario,
        "model=general\ncandidate=red\nvertex=r1\n",
        "vertex must be <name>:<red|blue>, got 'r1' (line 3)",
    ),
    (
        parse_scenario,
        "model=general\ncandidate=red\nvertex=r1:red\nset=r1,,r1\n",
        "bad set 'r1,,r1' (line 4)",
    ),
    (parse_scenario, "model=general\nvertex=r1:red\n", "missing candidate line (line 1)"),
    (
        parse_experiment_spec,
        "property=block_rows\nn=5\nn=6\nseeds=3\n",
        "duplicate key 'n' (line 3)",
    ),
    (
        parse_experiment_spec,
        "property=block_rows\nn=5\nseeds=3\ncolor=purple\n",
        "bad color 'purple' (line 4)",
    ),
    (
        parse_experiment_spec,
        "property=block_rows\nn=5,0\nseeds=3\n",
        "n values must be positive (line 2)",
    ),
    (parse_experiment_spec, "property=block_rows\nn=5\nseeds=5..4\n", "empty seed list (line 3)"),
    (
        parse_scenario,
        "model=friendly\ncandidate=red\nvertex=a:red\nset=b\n",
        "set member 'b' not declared (line 4)",
    ),
    (
        parse_scenario,
        "model=general\ncandidate=red\nvertex=a:red\nvertex=b:blue\nvertex=a:blue\n",
        "duplicate constraint vertex names (line 5)",
    ),
    (
        parse_scenario,
        "model=general\ncandidate=red\nvertex=a:red\nset=a\nset=a,a\n",
        "duplicate member inside a constraint set (line 5)",
    ),
    (parse_scenario, "candidate=red\n\nmodel=weird\n", "unknown model 'weird' (line 3)"),
    (
        parse_experiment_spec,
        "property=lemma\nn=5\nmodel=weird\nseeds=3\n",
        "unknown model 'weird' (line 3)",
    ),
    (
        parse_experiment_spec,
        "property=lemma\nn=5\nseeds=3\nlemma=bogus\n",
        "unknown lemma id 'bogus' (line 4)",
    ),
    (
        parse_experiment_spec,
        "property=lemma\npart=iii\nn=5\nseeds=3\n",
        "unknown part 'iii' (line 2)",
    ),
    (
        parse_experiment_spec,
        "n=5\nseeds=3\nproperty=bogus\n",
        "unknown property kind 'bogus' (line 3)",
    ),
    (
        parse_experiment_spec,
        "property=contains_rho\nn=5\nseeds=3\n# pattern\nrho=zz\n",
        "unknown rho token 'zz' (line 5)",
    ),
    (
        parse_experiment_spec,
        "property=lemma\nn=5\nmode=sampled:0\nseeds=3\n",
        "tuple samples must be positive (line 3)",
    ),
    (
        parse_scenario,
        "model=friendly\nmodel=general\ncandidate=red\ncandidate=blue\nvertex=a:red\n",
        "duplicate key 'model' (line 2)",
    ),
    (
        parse_scenario,
        "model=general\ncandidate=red\nvertex=a:red\n# again\ncandidate=blue\n",
        "duplicate key 'candidate' (line 5)",
    ),
    (
        parse_scenario,
        "candidate=blue\nmodel=general\ncandidate=green\n",
        "duplicate key 'candidate' (line 3)",
    ),
]


class TestParseErrors:
    @pytest.mark.parametrize(
        "parse,text,message",
        PARSE_ERRORS,
        ids=[f"{parse.__name__}-{k}" for k, (parse, _, _) in enumerate(PARSE_ERRORS)],
    )
    def test_message_and_line(self, parse, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message
        assert f"(line {info.value.line})" in message


class TestTypeFileFromRows:
    @pytest.mark.parametrize("model", ["friendly", "general"])
    def test_type_file_is_the_matrix_file(self, model):
        """serialize_type writes the rows it stores, byte for byte the file
        of the matrix built from the type, and reading it gives the type."""
        rng = random.Random(f"type-file-{model}")
        for n in [1, 2, 3] + [rng.randint(4, 60) for _ in range(12)]:
            tau = sample_type(RandomSpec(n, model, rng.randrange(1000)))
            assert serialize_type(tau) == serialize_matrix(matrix_from_type(tau))
            assert parse_type(serialize_type(tau)) == tau
