"""``gulfclimate forge visual`` on generated copies of the gridded fixture.

Each copy changes one header field, one axis or one to three body rows of
``fixtures/gridded_temperature.txt``, and then, in about half the copies,
one to three of its bytes.
Half the row edits hit the cell the city's series comes from. The
command must return ``EXIT_OK``, or ``EXIT_CONFIG`` with a one-line error;
it must never raise. An example is a short list of edits, so a failure
prints the edits, not the file.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gulfclimate.cli.main import EXIT_CONFIG, EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "gridded_temperature.txt"
LINES = FIXTURE.read_bytes().split(b"\n")
SEPARATOR = LINES.index(b"---")
AXES = {line.partition(b":")[0]: k for k, line in enumerate(LINES[:SEPARATOR])
        if line.startswith((b"lats:", b"lons:"))}
ROWS = range(SEPARATOR + 1, len(LINES) - 1)  # the file ends in a line feed
# The rows of cell (1, 1), the one nearest Doha.
CITY_ROWS = [k for k in ROWS if LINES[k].split(b",")[1:3] == [b"1", b"1"]]

# Values that have broken a loader somewhere: empty, signs, exponents, words
# that ``float`` reads, bytes that are not UTF-8, and dates at the ends of the
# calendar.
ODD = [b"", b" ", b"x", b"-1", b"0", b"+0", b"00", b"1e999", b"-1e308", b"1e308", b"nan",
       b"inf", b"-inf", b"Infinity", b"1_0", b"99999999999999999999", b"\xff", b"\xc3\xa9",
       b"\x00", b"#", b",", b":", b"\t", b"0001-01-01", b"9999-12-31", b"2022-02-29",
       b"2022-1-1", b"25.3", b"51.5", b"300.0", b"daily", b"K", b"temperature"]
VALUES = st.floats().map(lambda v: repr(v).encode())
DATES = st.dates().map(lambda d: d.isoformat().encode())
TOKENS = st.one_of(st.sampled_from(ODD), st.binary(max_size=6), VALUES, DATES,
                   st.integers(-3, 5).map(lambda v: str(v).encode()))


@st.composite
def header_edit(draw):
    """A header line, the format tag or the separator, replaced or dropped."""
    k = draw(st.integers(0, SEPARATOR))
    key, colon, _ = LINES[k].partition(b":")
    new = draw(st.one_of(st.none(), st.builds(lambda v: key + colon + b" " + v, TOKENS),
                         TOKENS, st.just(LINES[k] + b"\n" + LINES[k])))
    return k, new


@st.composite
def axis_edit(draw):
    """An axis of odd values, or the axis reordered, cut or padded."""
    name = draw(st.sampled_from(sorted(AXES)))
    values = LINES[AXES[name]].partition(b":")[2].strip().split(b",")
    values = draw(st.one_of(
        st.lists(TOKENS, max_size=5),
        st.just(values[::-1]), st.just(values[:1]), st.just(values + values[-1:]),
        st.just(values + [b"25.5"]), st.just([b"95.0"] + values[1:]),
        st.permutations(values)))
    return AXES[name], name + b": " + b",".join(values)


@st.composite
def row_edit(draw):
    """A body row with another date or value, one field replaced, a field too
    few or too many, dropped or doubled."""
    k = draw(st.sampled_from(CITY_ROWS) | st.sampled_from(ROWS))
    fields = LINES[k].split(b",")
    kind = draw(st.sampled_from(["date", "value", "field", "short", "long", "drop", "double"]))
    if kind == "date":
        fields[0] = draw(DATES)
    elif kind == "value":
        fields[3] = draw(VALUES)
    elif kind == "field":
        fields[draw(st.integers(0, 3))] = draw(TOKENS)
    elif kind == "short":
        del fields[draw(st.integers(0, 3))]
    elif kind == "long":
        fields.insert(draw(st.integers(0, 4)), draw(TOKENS))
    elif kind == "drop":
        return k, None
    else:
        return k, LINES[k] + b"\n" + b",".join(fields)
    return k, b",".join(fields)


BYTE_EDITS = st.just([]) | st.lists(
    st.tuples(st.sampled_from(range(len(LINES))), st.integers(0, 30),
              st.sampled_from(["set", "insert", "del"]), st.integers(0, 255)),
    min_size=1, max_size=3)


def mutated(line_edits: list, byte_edits: list) -> bytes:
    """The fixture with each ``(line, bytes or None)`` edit applied (``None``
    drops the line), then each ``(line, column, op, byte)`` edit, the column
    taken modulo the line's length plus one."""
    lines = dict(enumerate(LINES))
    lines.update(line_edits)
    for k, column, op, byte in byte_edits:
        if lines[k] is None:
            continue
        line = bytearray(lines[k])
        column %= len(line) + 1
        if op == "insert":
            line[column:column] = bytes([byte])
        elif column < len(line):
            line[column:column + 1] = bytes([byte]) if op == "set" else b""
        lines[k] = bytes(line)
    return b"\n".join(line for line in lines.values() if line is not None)


# A finite value whose square overflows: unless the loader rejects it, a
# series' statistics overflow with a RuntimeWarning.
HUGE_VALUE = [(CITY_ROWS[5], LINES[CITY_ROWS[5]].rpartition(b",")[0] + b",1.2e154")]


@settings(max_examples=60, deadline=None, derandomize=True)
@example(line_edits=HUGE_VALUE, byte_edits=[])
@given(line_edits=st.one_of(st.tuples(header_edit()), st.tuples(axis_edit()),
                           st.lists(row_edit(), min_size=1, max_size=3)),
       byte_edits=BYTE_EDITS)
def test_forge_visual_on_a_mutated_grid_exits_ok_or_with_one_error_line(line_edits, byte_edits):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        grid = tmp / "grid.txt"
        grid.write_bytes(mutated(line_edits, byte_edits))
        config = tmp / "config.json"
        config.write_text(json.dumps({"provider": {"fixture_root": str(ROOT / "fixtures")},
                                      "seed": 5, "output_dir": str(tmp / "out")}),
                          encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["forge", "visual", "--config", str(config), "--gridded", str(grid),
                         "--city", "Doha", "--variable", "temperature",
                         "--formats", "mcq,tf,open"])
    if code == EXIT_OK:
        assert stderr.getvalue() == ""
        assert json.loads(stdout.getvalue())["grid_cell"]
    else:
        assert code == EXIT_CONFIG
        assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().endswith("\n")
