"""Text formats for matrices, graphs, types, scenarios, experiments and
gadget instances.

Matrix files: first line is the dimension m, then m lines of m characters
from {0, 1, *}.  Graph files: first line is "n e", then e lines "u v" with
0 <= u < v < n.  Type files reuse the matrix format.

Scenario and experiment files are key=value lines; '#' starts a comment and
blank lines are skipped.  A scenario declares the model, the candidate
color, the constraint vertices and the constraint sets of an exact
membership probability; an experiment declares a Monte Carlo property, its
n values and seeds, and an optional success threshold.

Instance files are written, never read.  An obstruction instance is its
type file, the copy image line, the m line, its graph file and one label
line per graph vertex; a reduction instance is its type file, the copy
image line, the output graph file and the label lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from typing import Iterator

from .constructions import ObstructionInstance, ReductionInstance
from .model import (
    BLUE,
    COLOR_NAMES,
    ENTRY_CHARS,
    RED,
    STAR,
    PartitionMatrix,
    SimpleGraph,
    TypeGraph,
    _table_fault,
    type_from_matrix,
)
from .randtypes import MCProperty, MembershipScenario, _property_fault, _scenario_fault


class ParseError(ValueError):
    """Malformed input text; carries line/column context in the message."""

    def __init__(self, message: str, line: int, column: int | None = None):
        at = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{message} ({at})")
        self.line = line
        self.column = column


_ENTRY_BYTES = ENTRY_CHARS.encode("ascii")
# ENTRY_CHARS bytes <-> entries 0, 1, 2, for bytes.translate
_CHAR_TO_ENTRY = bytes.maketrans(_ENTRY_BYTES, bytes(range(len(_ENTRY_BYTES))))
_ENTRY_TO_CHAR = bytes.maketrans(bytes(range(len(_ENTRY_BYTES))), _ENTRY_BYTES)


def parse_matrix(text: str) -> PartitionMatrix:
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
    rows: list[bytes] = []
    for i in range(m):
        raw = lines[1 + i].strip()
        if len(raw) != m:
            raise ParseError(f"row has {len(raw)} entries, expected {m}", 2 + i)
        row = raw.encode("ascii", "replace")  # one byte per character
        if row.translate(None, _ENTRY_BYTES):
            j, ch = next((j, ch) for j, ch in enumerate(raw) if ch not in ENTRY_CHARS)
            raise ParseError(f"bad entry {ch!r}", 2 + i, j + 1)
        rows.append(row.translate(_CHAR_TO_ENTRY))
    flat = b"".join(rows)
    if STAR in flat[:: m + 1] or any(flat[i::m] != row for i, row in enumerate(rows)):
        i, j, message = _table_fault(rows)
        raise ParseError(message, 2 + i, j + 1)
    for k in range(m + 1, len(lines)):
        if lines[k].strip():
            raise ParseError("trailing content after matrix", k + 1)
    return PartitionMatrix._from_rows(rows)


def serialize_matrix(mat: PartitionMatrix) -> str:
    return _matrix_file(mat.rows, "matrix")


def _matrix_file(rows: tuple[bytes, ...], name: str) -> str:
    """The matrix file of a valid table given as its bytes rows; the format
    has no file for the empty table, here called the empty `name`."""
    if not rows:
        raise ValueError(f"the empty {name} has no matrix file")
    body = "\n".join(row.translate(_ENTRY_TO_CHAR).decode("ascii") for row in rows)
    return f"{len(rows)}\n{body}\n"


def parse_type(text: str) -> TypeGraph:
    return type_from_matrix(parse_matrix(text))


def serialize_type(tau: TypeGraph) -> str:
    return _matrix_file(tau.rows, "type")


def parse_graph(text: str) -> SimpleGraph:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing header line", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError('header must be "n e"', 1)
    try:
        n, e = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"bad header {lines[0].strip()!r}", 1) from None
    if n < 0 or e < 0:
        raise ParseError("negative count in header", 1)
    if len(lines) < e + 1:
        raise ParseError(f"expected {e} edges, found {len(lines) - 1}", len(lines))
    edges: set[tuple[int, int]] = set()
    for k in range(e):
        parts = lines[1 + k].split()
        if len(parts) != 2:
            raise ParseError('edge line must be "u v"', 2 + k)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad edge {lines[1 + k].strip()!r}", 2 + k) from None
        if u == v:
            raise ParseError(f"loop at {u}", 2 + k)
        if not 0 <= u < v < n:
            raise ParseError(f"edge ({u},{v}) out of range (need 0 <= u < v < {n})", 2 + k)
        if (u, v) in edges:
            raise ParseError(f"duplicate edge ({u},{v})", 2 + k)
        edges.add((u, v))
    for k in range(e + 1, len(lines)):
        if lines[k].strip():
            raise ParseError("trailing content after edges", k + 1)
    return SimpleGraph(n, frozenset(edges))


def serialize_graph(g: SimpleGraph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def serialize_obstruction_instance(instance: ObstructionInstance) -> str:
    """Type file, copy image line, m line, graph file, then label lines."""
    parts = [
        serialize_type(instance.tau),
        " ".join(str(v) for v in instance.rho_copy.image) + "\n",
        f"{instance.m}\n",
        serialize_graph(instance.graph),
        "".join(f"{label}\n" for label in instance.labels),
    ]
    return "".join(parts)


def serialize_reduction_instance(instance: ReductionInstance) -> str:
    """Type file, copy image line, output graph file, then label lines."""
    parts = [
        serialize_type(instance.tau),
        " ".join(str(v) for v in instance.rho_copy.image) + "\n",
        serialize_graph(instance.output_graph),
        "".join(f"{label}\n" for label in instance.labels),
    ]
    return "".join(parts)


_COLOR_INDEX = {name: c for c, name in enumerate(COLOR_NAMES)}


def _key_values(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) for each key=value line; '#' starts a
    comment and blank lines are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {raw.strip()!r}", lineno)
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


def parse_scenario(text: str) -> MembershipScenario:
    """Parse a membership-probability scenario.

    Keys: model=friendly|general, candidate=red|blue,
    vertex=<name>:<red|blue> (repeated), set=<name>,<name>,... (repeated).
    """
    model = candidate = None
    vertices: list[tuple[str, int]] = []
    sets: list[tuple[str, ...]] = []
    # each field's lines, in the entry order _scenario_fault indexes
    lines: dict[str, list[int]] = {"model": [], "candidate": [], "vertices": [], "sets": []}
    for lineno, key, value in _key_values(text):
        if key in ("model", "candidate") and lines[key]:
            raise ParseError(f"duplicate key {key!r}", lineno)
        if key == "model":
            model = value
            lines["model"] = [lineno]
        elif key == "candidate":
            if _COLOR_INDEX.get(value) not in (RED, BLUE):
                raise ParseError(f"candidate must be red or blue, got {value!r}", lineno)
            candidate = _COLOR_INDEX[value]
            lines["candidate"] = [lineno]
        elif key == "vertex":
            parts = value.split(":")
            if len(parts) != 2 or _COLOR_INDEX.get(parts[1]) not in (RED, BLUE):
                raise ParseError(f"vertex must be <name>:<red|blue>, got {value!r}", lineno)
            vertices.append((parts[0], _COLOR_INDEX[parts[1]]))
            lines["vertices"].append(lineno)
        elif key == "set":
            members = tuple(name.strip() for name in value.split(","))
            if not members or any(not name for name in members):
                raise ParseError(f"bad set {value!r}", lineno)
            sets.append(members)
            lines["sets"].append(lineno)
        else:
            raise ParseError(f"unknown scenario key {key!r}", lineno)
    if model is None:
        raise ParseError("missing model line", 1)
    if candidate is None:
        raise ParseError("missing candidate line", 1)
    fault = _scenario_fault(model, candidate, vertices, sets)
    if fault is not None:
        field, k, message = fault
        raise ParseError(message, lines[field][k])
    return MembershipScenario(model, candidate, tuple(vertices), tuple(sets))


@dataclass(frozen=True)
class ExperimentSpec:
    prop: MCProperty
    n_values: tuple[int, ...]
    seeds: tuple[int, ...]
    threshold: float | None


def _parse_seed_field(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    if "," in text:
        return tuple(int(x) for x in text.split(","))
    return tuple(range(int(text)))


def _parse_mode(text: str) -> dict[str, str | int]:
    if text in ("exhaustive", "sampled"):
        return {"lemma_mode": text}
    if text.startswith("sampled:"):
        return {"lemma_mode": "sampled", "tuple_samples": int(text.split(":", 1)[1])}
    raise ValueError(text)


# every experiment key, with the parse of its value into the MCProperty
# fields it sets (None for the keys that set none), in conversion order
_EXPERIMENT_KEYS = {
    "property": lambda text: {"kind": text},
    "model": lambda text: {"model": text},
    "lemma": lambda text: {"lemma_id": text},
    "part": lambda text: {"part": text},
    "mode": _parse_mode,
    "color": lambda text: {"color": COLOR_NAMES.index(text)},
    "rho": lambda text: {"rho": text},
    "n": None,
    "seeds": None,
    "threshold": None,
}


def parse_experiment_spec(text: str) -> ExperimentSpec:
    """Parse an experiment description made of key=value lines.

    Keys: property (required), model, lemma, part, mode (sampled:<k> or
    exhaustive), n (comma list, required), seeds (count, a..b, or comma
    list; required), threshold, color, rho.
    """
    fields: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, key, value in _key_values(text):
        if key not in _EXPERIMENT_KEYS:
            raise ParseError(f"unknown experiment key {key!r}", lineno)
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", lineno)
        fields[key] = value
        lines[key] = lineno
    for required in ("property", "n", "seeds"):
        if required not in fields:
            raise ParseError(f"missing experiment key {required!r}", 1)

    def convert(key, parse, default=None):
        if key not in fields:
            return default
        try:
            return parse(fields[key])
        except ValueError:
            raise ParseError(f"bad {key} {fields[key]!r}", lines[key]) from None

    chosen: dict[str, str | int] = {}
    setter: dict[str, str] = {}  # the key that set each chosen field
    for key, parse in _EXPERIMENT_KEYS.items():
        if parse is not None and key in fields:
            for name, value in convert(key, parse).items():
                chosen[name], setter[name] = value, key
    defaults = {f.name: f.default for f in dataclass_fields(MCProperty) if f.name not in chosen}
    fault = _property_fault(**defaults, **chosen)
    if fault is not None:  # a default is never at fault, so a key set the field
        field, message = fault
        raise ParseError(message, lines[setter[field]])
    prop = MCProperty(**chosen)
    n_values = convert("n", lambda text: tuple(int(x) for x in text.split(",")))
    if not n_values or any(n < 1 for n in n_values):
        raise ParseError("n values must be positive", lines["n"])
    seeds = convert("seeds", _parse_seed_field)
    if not seeds:
        raise ParseError("empty seed list", lines["seeds"])
    threshold = convert("threshold", float)
    return ExperimentSpec(prop, n_values, seeds, threshold)
