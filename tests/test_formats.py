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
