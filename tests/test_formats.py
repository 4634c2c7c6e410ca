from fractions import Fraction

import pytest

from clutterkit import formats


def test_clutter_round_trip(tailed_triangle):
    text = formats.write_clutter(tailed_triangle)
    assert text.splitlines()[0] == "5 2"
    assert formats.read_clutter(text) == tailed_triangle


def test_clutter_comments_and_blank_lines():
    text = "# demo\n4 2\n\n1 2  # an edge\n3 4\n"
    clutter = formats.read_clutter(text)
    assert clutter.circuits == ((1, 2), (3, 4))


def test_clutter_parse_errors_carry_line_numbers():
    with pytest.raises(formats.FormatError) as err:
        formats.read_clutter("4 2\n1 2 3\n")
    assert err.value.line == 2
    with pytest.raises(formats.FormatError) as err:
        formats.read_clutter("4\n")
    assert err.value.line == 1
    with pytest.raises(formats.FormatError) as err:
        formats.read_clutter("4 2\n1 x\n")
    assert err.value.line == 2
    with pytest.raises(formats.FormatError):
        formats.read_clutter("")


def test_ideal_round_trip_preserves_order():
    text = "5\n2 4\n1 3\n"
    ideal = formats.read_ideal(text)
    assert [g.support for g in ideal.generators] == [(2, 4), (1, 3)]
    assert formats.write_ideal(ideal) == text


def test_complex_round_trip_and_order():
    text = "5\n3 4 5\n1 2\n"
    complex_, order = formats.read_complex(text)
    assert order == [(3, 4, 5), (1, 2)]
    assert complex_.facets == ((1, 2), (3, 4, 5))
    assert formats.read_complex(formats.write_complex(complex_))[0] == complex_


def test_complex_empty_facet_marker():
    complex_, order = formats.read_complex("3\n-\n")
    assert complex_.facets == ((),) and order == [()]
    assert formats.write_complex(complex_) == "3\n-\n"


def test_weighted_graph_round_trip():
    text = "3 2\n1 2 1\n1 3 3/2\n2 3 -2\n"
    weighted = formats.read_weighted_graph(text)
    assert dict(zip(weighted.graph.circuits, weighted.weights))[1, 3] == Fraction(3, 2)
    assert formats.write_weighted_graph(weighted) == text
    with pytest.raises(formats.FormatError):
        formats.read_weighted_graph("3 3\n1 2 3 1\n")
    with pytest.raises(formats.FormatError) as err:
        formats.read_weighted_graph("3 2\n1 2\n")
    assert err.value.line == 2


def test_weighted_graph_accepts_an_equal_repeated_edge():
    # an edge listed twice with one weight is one edge, as a repeated circuit
    # is in read_clutter; a different weight is an error (FORMAT_ERRORS)
    weighted = formats.read_weighted_graph("3 2\n1 2 1\n2 1 2/2\n2 3 5\n")
    assert weighted.graph.circuits == ((1, 2), (2, 3))
    assert weighted.weights == (Fraction(1), Fraction(5))


# Every FormatError message and line, recorded before the four readers shared
# one header parser: for each reader, the missing header, a wrong header, a
# bad row and an error from the constructor of the value.  A constructor's
# error about one row was reported at the header's line until each row was
# checked alone; those rows were moved to the row's line on purpose.  The
# rows after the edge repeated with another weight came with that move.
FORMAT_ERRORS = [
    ("read_clutter", "", "line 1: missing `n d` header"),
    ("read_clutter", "# only a comment\n\n", "line 1: missing `n d` header"),
    ("read_clutter", "4\n", "line 1: header must be `n d`"),
    ("read_clutter", "# c\n4 x\n", "line 2: expected integers, got '4 x'"),
    ("read_clutter", "4 2\n1 2 3\n", "line 2: circuit has 3 vertices, expected 2"),
    ("read_clutter", "4 2\n1 x\n", "line 2: expected integers, got '1 x'"),
    ("read_clutter", "# c\n4 2\n1 2\n1 5\n", "line 4: circuit (1, 5) out of range 1..4"),
    ("read_clutter", "0 0\n", "line 1: need 1 <= d <= n, got d=0, n=0"),
    ("read_ideal", "", "line 1: missing `n` header"),
    ("read_ideal", "\n4 2\n", "line 2: header must be a single variable count `n`"),
    ("read_ideal", "4\n1 2\n\n-\n", "line 4: expected integers, got '-'"),
    ("read_ideal", "4\n1 x\n", "line 2: expected integers, got '1 x'"),
    ("read_ideal", "# c\n4\n1 5\n", "line 3: generator x1*x5 uses variables beyond x4"),
    ("read_complex", "", "line 1: missing `n` header"),
    ("read_complex", "5 2\n", "line 1: header must be a single vertex count `n`"),
    ("read_complex", "5\n1 2\n1 y\n", "line 3: expected integers, got '1 y'"),
    ("read_complex", "3\n1 4\n", "line 2: facet (1, 4) out of range 1..3"),
    ("read_complex", "\n\n3\n1 1\n", "line 4: facet (1, 1) is not a sorted duplicate-free tuple"),
    ("read_weighted_graph", "", "line 1: missing `n d` header"),
    ("read_weighted_graph", "3 3\n", "line 1: weighted graphs need header `n 2`"),
    ("read_weighted_graph", "# c\n3\n", "line 2: weighted graphs need header `n 2`"),
    ("read_weighted_graph", "3 2\n1 2\n", "line 2: edge lines are `u v weight`"),
    ("read_weighted_graph", "3 2\n1 2 x\n", "line 2: bad edge line '1 2 x'"),
    ("read_weighted_graph", "3 2\n1 2 1/0\n", "line 2: bad edge line '1 2 1/0'"),
    ("read_weighted_graph", "# c\n3 2\n1 4 1\n", "line 3: circuit (1, 4) out of range 1..3"),
    ("read_weighted_graph", "3 2\n1 2 1\n2 1 3\n2 3 5\n", "line 3: edge (1, 2) has weight 3, but 1 on line 2"),
    # a row's constructor error names the row (at the header's line before)
    ("read_clutter", "4 2\n1 1\n", "line 2: circuit (1, 1) is not a 2-subset"),
    ("read_ideal", "4\n1 2\n0 1\n", "line 3: variable indices are 1-based"),
    ("read_complex", "3\n1 2\n2 4\n", "line 3: facet (2, 4) out of range 1..3"),
    ("read_weighted_graph", "3 2\n1 1 5\n", "line 2: circuit (1, 1) is not a 2-subset"),
    # a header or cross-row error still names the header; a bad row's parse error comes first
    ("read_clutter", "2 3\n1 2 3\n", "line 1: need 1 <= d <= n, got d=3, n=2"),
    ("read_clutter", "0 0\n1 x\n", "line 2: expected integers, got '1 x'"),
    ("read_complex", "3\n1 2\n1\n", "line 1: facets must be pairwise incomparable"),
    ("read_weighted_graph", "1 2\n1 2 1\n", "line 1: need 1 <= d <= n, got d=2, n=1"),
]


@pytest.mark.parametrize("reader, text, message", FORMAT_ERRORS)
def test_format_error_messages_are_pinned(reader, text, message):
    with pytest.raises(formats.FormatError) as err:
        getattr(formats, reader)(text)
    assert str(err.value) == message
    assert err.value.line == int(message.split(":")[0].removeprefix("line "))
