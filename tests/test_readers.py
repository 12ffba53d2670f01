"""Every input-file reader refuses bad input with a ``ValueError`` that names
``path:line``, or ``path:`` for an error of the whole file, whatever bytes
the file holds, and ``nebm`` turns each refusal into exit status 2."""

import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nebm import (
    generate_mis_graph,
    load_bks,
    load_graph,
    load_qubo,
    load_records,
    mis_to_qubo,
    save_bks,
    save_graph,
    save_qubo,
)
from nebm.bench import (
    BKS_HEADER,
    RESULTS_HEADER,
    BenchmarkRecord,
    load_assignments,
    load_json,
    save_records,
)
from nebm.cli import main

#: The line-based loaders; ``load_json`` reads a whole document.
LINE_LOADERS = [load_qubo, load_graph, load_bks, load_records, load_assignments]

TOKENS = st.one_of(
    st.integers(-3, 64).map(str),
    st.sampled_from(["qubo", "graph", "#", "# note", "x", "1.5", "-", "0.15", "nan",
                     "exact", "tabu:5", "0101", "021", "", "{", "}", "[", ":"]),
).map(str.encode)

LINES = st.one_of(
    st.lists(TOKENS, max_size=5).map(b" ".join),
    st.lists(TOKENS, max_size=14).map(b",".join),
    st.binary(max_size=12),
)

# Header counts stay small: a .qubo header of n variables makes build_qubo
# allocate O(n), so a huge n is not a parser test.
HEADS = st.one_of(
    st.builds("{} {} {}".format, st.sampled_from(["qubo", "graph"]),
              st.integers(-2, 64), st.integers(-2, 64)).map(str.encode),
    st.sampled_from([BKS_HEADER.encode(), RESULTS_HEADER.encode()]),
    LINES,
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def input_files(draw) -> bytes:
    """A line file (a header, then body lines, with any line ending) or a
    JSON document, and sometimes stray bytes spliced in anywhere."""
    if draw(st.booleans()):
        newline = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
        lines = [draw(HEADS), *draw(st.lists(LINES, max_size=8))]
        data = newline.join(lines) + draw(st.sampled_from([b"", newline]))
    else:
        data = json.dumps(draw(JSON_VALUES), indent=draw(st.sampled_from([None, 1]))).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


def assert_names_file_and_line(load, path, data: bytes) -> None:
    """``load(path)`` parses, or refuses with ``path: ...`` or with
    ``path:<k>: ...`` for a line ``k`` of ``data``."""
    try:
        load(path)
    except ValueError as e:
        m = re.match(re.escape(str(path)) + r":(?:(\d+):)? ", str(e))
        assert m, f"{load.__name__}: {e}"
        if m.group(1) is not None:
            lines = len(data.splitlines())
            # JSON counts only "\n", and may point just past the last line.
            last = lines + 1 if load is load_json else max(1, lines)
            assert 1 <= int(m.group(1)) <= last, f"{load.__name__}: {e}"


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=input_files())
def test_every_reader_names_file_and_line(fuzz_path, data):
    fuzz_path.write_bytes(data)
    for load in [*LINE_LOADERS, load_json]:
        assert_names_file_and_line(load, fuzz_path, data)


def good_files(tmp_path) -> dict:
    """One valid file per format, written by its own writer."""
    g = generate_mis_graph(8, 0.4, 1)
    save_qubo(mis_to_qubo(g), tmp_path / "i.qubo")
    save_graph(g, tmp_path / "i.graph")
    save_bks(tmp_path / "bks.csv", {(10, "0.3", 0): (-5, "exact"), (12, "0.3", 0): (-6, "exact")})
    rec = BenchmarkRecord(
        instance_n=3, density=0.3, instance_seed=0, solver="sa", config_hash="0" * 12,
        budget_kind="steps", budget=10, run_seed=0, best_cost=-1, bks_cost=-2,
        gap_percent=50.0, steps=10, wall_ms=1.0, assignment=np.zeros(3, dtype=np.int8),
    )
    save_records(tmp_path / "r.csv", [rec, rec])
    (tmp_path / "plan.json").write_text('{"nodes": [10],\n "densities": [0.3]}\n')
    return {
        load_qubo: tmp_path / "i.qubo",
        load_graph: tmp_path / "i.graph",
        load_bks: tmp_path / "bks.csv",
        load_records: tmp_path / "r.csv",
        load_assignments: tmp_path / "r.csv.assignments",
        load_json: tmp_path / "plan.json",
    }


@pytest.mark.parametrize("load", [*LINE_LOADERS, load_json], ids=lambda f: f.__name__)
@pytest.mark.parametrize("byte", [b"\xff", b"\xe2\x82"])
def test_non_utf8_byte_names_its_line(tmp_path, load, byte):
    path = good_files(tmp_path)[load]
    load(path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:1] + byte + lines[1][1:]
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError) as e:
        load(path)
    assert str(e.value).startswith(f"{path}:2: not UTF-8 text")


@pytest.mark.parametrize("text", [
    pytest.param("1" * 5000, id="long-number", marks=pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no limit on int digits")),
    pytest.param("[" * 100_000, id="deep"),
])
def test_json_number_or_depth_refusal_names_file(tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(ValueError) as e:
        load_json(path)
    assert str(e.value).startswith(f"{path}: ")


@pytest.mark.parametrize("suffix", ["graph", "qubo"])
def test_header_n_beyond_int64_refused(tmp_path, suffix):
    # Its vertex ids could not be held as int64; nothing is allocated for it.
    path = tmp_path / f"huge.{suffix}"
    path.write_text(f"{suffix} {2**63} 1\n{2**62} 5 1\n")
    with pytest.raises(ValueError, match=r"n < 2\^63") as e:
        (load_graph if suffix == "graph" else load_qubo)(path)
    assert str(e.value).startswith(f"{path}:1: ")


def test_repeat_names_both_lines(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("graph 3 3\n0 2\n# again\n0 1\n2 0\n")
    with pytest.raises(ValueError, match=r"edge \(0, 2\) repeats line 2$") as e:
        load_graph(path)
    assert str(e.value).startswith(f"{path}:5: ")


@pytest.mark.parametrize("argv, name", [
    (["solve", "{}"], "i.qubo"),
    (["oracle", "{}"], "i.graph"),
    (["bench", "--plan", "{}", "--out", "out.csv"], "plan.json"),
    (["bench", "--nodes", "10", "--densities", "0.3", "--seeds", "0", "--bks", "{}",
      "--out", "out.csv"], "bks.csv"),
    (["solve", "i.qubo", "--config", "{}"], "plan.json"),
])
def test_cli_exits_2_naming_the_line(tmp_path, monkeypatch, capsys, argv, name):
    monkeypatch.chdir(tmp_path)
    good_files(tmp_path)
    path = tmp_path / name
    path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
    assert main([a.format(name) for a in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {name}:2: not UTF-8 text")
