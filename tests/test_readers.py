"""The five artifact readers against their per-line oracles in
`tests/oracles.py`: on valid and corrupted texts each gives the same arrays,
byte for byte, or raises the same exception with the same message."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutgap.metrics import FiniteMetric, graph_from_text, metric_from_text, metric_to_text
from cutgap.quotient import basis_from_text
from cutgap.unique_games import ug_from_text, ug_to_text
from cutgap.verifier import proof_from_text
from fixtures import plant_instance
from oracles import (
    basis_from_text_per_line,
    graph_from_text_per_line,
    metric_from_text_per_line,
    proof_from_text_per_line,
    ug_from_text_per_line,
)
from strategies import DYADIC_PAIRS, ug_instances

# tokens that int and float read differently, or one of them not at all,
# and integers past int64
ODD_TOKENS = ("1.0", "+1", "07", "1_0", "٣", "nan", "1.5", "0.5", "-1", "-0", "-0.0",
              "inf", "1e308", "0", "1", "2", "x", str(2**63), str(10**30))
# `CLASS i` lines of a BASIS file must keep their single space
SEPARATORS = (" ", " ", " ", "\t", "  ", " \t ")
EDITS = ("replace",) * 6 + ("copy",) * 2 + ("swap", "drop", "extra", "dupline", "delline",
                                           "blank")


def outcome(reader, text):
    """The reader's parsed arrays, as (dtype, shape, bytes), or its
    exception's type and message."""
    try:
        return _digest(reader(text))
    except Exception as exc:  # the two readers must fail alike, in kind too
        return type(exc).__name__, str(exc)


def _digest(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(map(_digest, value))
    if dataclasses.is_dataclass(value):
        return tuple(_digest(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


def _signs(draw, size: int) -> list:
    return draw(st.lists(st.sampled_from(("1", "-1")), min_size=size, max_size=size))


@st.composite
def ug_texts(draw):
    """A planted regular instance, or a generated one (usually irregular),
    as `ug_to_text` writes it."""
    if draw(st.booleans()):
        u, _ = plant_instance(draw(st.integers(2, 6)), draw(st.integers(1, 4)), 0.1, 0.8,
                              seed=draw(st.integers(0, 3)))
    else:
        u = draw(ug_instances(max_vertices=6, max_edges=10))
    return ug_to_text(u)


@st.composite
def basis_texts(draw):
    k, m = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    lines = [f"BASIS {k} {m}"]
    for i in range(m):
        lines.append(f"CLASS {i}")
        lines += [" ".join(_signs(draw, 1 << k)) for _ in range(1 << k)]
    return "\n".join(lines) + "\n"


@st.composite
def proof_texts(draw):
    nv, n = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    return "\n".join([f"PROOF {nv} {n}"] + [" ".join(_signs(draw, 1 << n))
                                             for _ in range(nv)]) + "\n"


@st.composite
def metric_texts(draw):
    """Points on a line at small integer places: a metric of 1-6 points."""
    x = np.array(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=6)), dtype=np.float64)
    return metric_to_text(FiniteMetric(np.abs(x[:, None] - x)))


@st.composite
def graph_texts(draw):
    """Up to 12 lines on 1-6 vertices: pairs repeated in both orientations
    and diagonal pairs, dyadic weights and demands."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    value = st.sampled_from(DYADIC_PAIRS + (0.1,))
    lines = [f"GRAPH {n}"]
    for _ in range(draw(st.integers(0, 12))):
        lines.append(f"{draw(vertex)} {draw(vertex)} {draw(value):.17g} {draw(value):.17g}")
    return "\n".join(lines) + "\n"


def corrupted(text: str, seed: int) -> str:
    """`text` with up to five edits, most of them to the tokens of a line
    after the header, joined again with a drawn separator, and now and then
    cut short. The edits are drawn uniformly from `seed` (hypothesis's own
    draws crowd onto the first line)."""
    rng = random.Random(seed)
    lines = [ln.split() for ln in text.splitlines()]
    tokens = [t for ln in lines for t in ln]
    for _ in range(rng.randint(0, 5)):
        edit = rng.choice(EDITS)
        at = rng.randint(min(1, len(lines) - 1), len(lines) - 1) if lines else 0
        line = lines[at] if lines else []
        pos = rng.randrange(len(line)) if line else 0
        if edit == "replace" and line:
            line[pos] = rng.choice(ODD_TOKENS)
        elif edit == "copy" and line:  # a token of another column, or another kind
            line[pos] = rng.choice(tokens)
        elif edit == "swap" and line:
            other = rng.randrange(len(line))
            line[pos], line[other] = line[other], line[pos]
        elif edit == "drop" and line:
            del line[pos]
        elif edit == "extra":
            line.insert(pos, rng.choice(ODD_TOKENS))
        elif edit == "dupline" and lines:
            lines.insert(at, list(line))
        elif edit == "delline" and lines:
            del lines[at]
        elif edit == "blank":
            lines.insert(at, [])
    sep = rng.choice(SEPARATORS)
    out = "\n".join(sep.join(ln) if ln else rng.choice(("", " ", "\t")) for ln in lines) + "\n"
    if rng.randrange(8) == 0:
        out = out[:rng.randint(0, len(out))]
    return out


READERS = [
    pytest.param(ug_from_text, ug_from_text_per_line, ug_texts(), id="ug"),
    pytest.param(basis_from_text, basis_from_text_per_line, basis_texts(), id="basis"),
    pytest.param(proof_from_text, proof_from_text_per_line, proof_texts(), id="proof"),
    pytest.param(metric_from_text, metric_from_text_per_line, metric_texts(), id="metric"),
    pytest.param(graph_from_text, graph_from_text_per_line, graph_texts(), id="graph"),
]


@pytest.mark.parametrize("reader, oracle, texts", READERS)
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_reader_matches_per_line_oracle(reader, oracle, texts, data):
    text = data.draw(texts)
    assert outcome(reader, text) == outcome(oracle, text)
    text = corrupted(text, data.draw(st.integers(0, 2**32 - 1)))
    assert outcome(reader, text) == outcome(oracle, text)


# two unit-weight loops make a regular two-edge instance
UG_HALVES = "UG 2 2 2\n0 0 0.5 0 1\n1 1 0.5 1 0\n"


@pytest.mark.parametrize("text, expected", [
    # the float column's `0.5` is a weight; the same token as a label is not
    (UG_HALVES.replace("1 1 0.5 1 0", "1 1 0.5 0.5 0"),
     "line 3: invalid literal for int() with base 10: '0.5'"),
    # the last field of a line names that line
    (UG_HALVES.replace("0 0 0.5 0 1", "0 0 0.5 0 x"),
     "line 2: invalid literal for int() with base 10: 'x'"),
    ("PROOF 2 1\n1 1\n-1 1_0\n", "line 3: proof entries must be +/-1"),
    ("PROOF 2 1\n1 1.0\n-1 1\n", "line 2: invalid literal for int() with base 10: '1.0'"),
    # a bad permutation on an earlier line wins over a later line's bad
    # number, and a bad number over a later line's field count
    (UG_HALVES.replace("0 0 0.5 0 1", "0 0 0.5 1 1").replace("1 1 0.5 1 0", "1 1 x 1 0"),
     "line 2: 1 1 is not a permutation of 0..1"),
    (UG_HALVES.replace("0 0 0.5 0 1", "0 0 0.5 0 ٣").replace("1 1 0.5 1 0", "1 1 0.5"),
     "line 2: 0 ٣ is not a permutation of 0..1"),
    ("GRAPH 2\n0 1 1 nan\n0 1 1\n", "line 2: weight and demand must be finite and "
                                    "nonnegative: 1.0 nan"),
    ("GRAPH 2\n0 x 1 1\n0 1 1\n", "line 2: invalid literal for int() with base 10: 'x'"),
    ("GRAPH 2\n0 1 1 1\n0 1 1\n0 x 1 1\n", "line 3: expected `i j weight demand`, got 3 fields"),
    ("METRIC 3\n1\n1 x 2\n", "line 3: could not convert string to float: 'x'"),
    ("METRIC 3\n1 1\n1 x\n", "line 2: expected 1 distances, got 2"),
    ("BASIS 1 2\nCLASS 0\n1 1\n1 -1\nCLASS 2\n1 1\n1 x\n",
     "line 5: expected CLASS 1 header"),
    ("BASIS 1 2\nCLASS 0\n1 1\n1 x\nCLASS 2\n1 1\n1 -1\n",
     "line 4: invalid literal for int() with base 10: 'x'"),
], ids=["weight_token_as_label", "last_field", "proof_last_field", "proof_first_line",
        "ug_permutation_first", "ug_permutation_before_field_count", "graph_value_first",
        "graph_number_first", "graph_field_count", "metric_number_first", "metric_row_length",
        "basis_class_line", "basis_row_before_class_line"])
def test_reader_names_first_offending_line(text, expected):
    reader, oracle = {"UG": (ug_from_text, ug_from_text_per_line),
                      "PROOF": (proof_from_text, proof_from_text_per_line),
                      "GRAPH": (graph_from_text, graph_from_text_per_line),
                      "METRIC": (metric_from_text, metric_from_text_per_line),
                      "BASIS": (basis_from_text, basis_from_text_per_line)}[text.split()[0]]
    assert outcome(reader, text) == outcome(oracle, text) == ("ValueError", expected)


def test_graph_later_line_wins_in_either_orientation():
    text = "GRAPH 3\n0 1 1 1\n1 0 2 3\n2 2 5 6\n0 2 1 0\n2 0 0.5 0.25\n1 0 4 7\n"
    weights, demands = graph_from_text(text)
    assert weights.tolist() == [[0, 4, 0.5], [4, 0, 0], [0.5, 0, 5]]
    assert demands.tolist() == [[0, 7, 0.25], [7, 0, 0], [0.25, 0, 6]]
    assert outcome(graph_from_text, text) == outcome(graph_from_text_per_line, text)


def test_ug_endpoints_past_int64_stay_exact():
    big = str(2**63)
    text = UG_HALVES.replace("1 1 0.5", f"1 {big} 0.5")
    assert outcome(ug_from_text, text) == outcome(ug_from_text_per_line, text) == (
        "ValueError", f"edge endpoint out of range: 1,{big}")
