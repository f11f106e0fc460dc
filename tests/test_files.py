"""Facet file parsing, emission and round trips."""

import json
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmtkit.core import from_facets
from cmtkit.files import ParseError, _label_key, _sorted_labels, dump, emit, load, parse
from cmtkit.generators import boundary_simplex, miyazaki_example, simplex


class TestParseText:
    def test_basic(self):
        cx = parse("1 2 3\n3 4 5\n")
        assert cx == from_facets([(1, 2, 3), (3, 4, 5)])

    def test_comments_and_blanks(self):
        cx = parse("# a comment\n\n1 2\n   \n# another\n2 3\n")
        assert cx == from_facets([(1, 2), (2, 3)])

    def test_empty_file_is_void(self):
        for text in ("", "# only comments\n", "\n  \n"):
            assert parse(text) == from_facets([])

    def test_empty_face_marker(self):
        for text in ("@empty-face\n", "# c\n@empty-face\n"):
            assert parse(text) == from_facets([()])

    def test_marker_with_other_content_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse("@empty-face\n1 2\n")
        assert exc.value.line == 1

    def test_duplicate_marker_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse("@empty-face\n@empty-face\n")
        assert exc.value.line == 2

    def test_textual_labels(self):
        cx = parse("x y\ny z\n")
        assert cx.labels == ("x", "y", "z")

    @pytest.mark.parametrize("text", ["1 2 #x\n2 3\n", "1 @x\n", "@x 2\n"])
    def test_tokens_the_format_cannot_write_back_rejected(self, text):
        with pytest.raises(ParseError, match="cannot be written") as exc:
            parse(text)
        assert exc.value.line == 1

    def test_numeric_labels_sort_numerically(self):
        cx = parse("10 2\n")
        assert cx.labels == ("2", "10")

    def test_long_decimal_labels(self, tmp_path):
        # int() refuses strings past 4300 digits; the sort key never calls it
        path = tmp_path / "long.cplx"
        path.write_text("1" * 5000 + " 2\n" + "0" * 6000 + "3 2\n")
        cx = load(path)
        assert cx.labels == ("2", "0" * 6000 + "3", "1" * 5000)
        assert len(cx.masks) == 2


def _int_label_key(label):
    """The decimal label order through int(), for labels int() can read."""
    return (0, int(label), label) if label.isdecimal() else (1, 0, label)


# ASCII digits, Arabic-Indic and fullwidth digits, and the superscript two,
# which is a digit but not decimal
_LABEL_CHARS = "0123456789\u0660\u0663\uff11\uff19\u00b2ab"


class TestLabelOrder:
    @given(st.lists(st.text(_LABEL_CHARS, min_size=1, max_size=30), max_size=30))
    def test_matches_the_integer_order(self, labels):
        assert sorted(labels, key=_label_key) == sorted(labels, key=_int_label_key)

    def test_leading_zeros_and_non_ascii_digits(self):
        labels = ["10", "010", "\u00b2", "9", "\u0663", "3", "0", "00", "a"]
        assert sorted(labels, key=_label_key) == [
            "0", "00", "3", "\u0663", "9", "010", "10", "a", "\u00b2"]

    # plain decimals (ASCII, no leading zero), mixed with a few labels that
    # must leave the fast path: leading zeros, non-ASCII digits, non-decimals
    @given(st.sets(st.integers(0, 999).map(str) | st.integers(0, 10**25).map(str),
                   max_size=30),
           st.sets(st.sampled_from(["0", "00", "007", "\u0663", "\uff11\uff19", "\u00b2",
                                    "a", "1a"])
                   | st.integers(0, 999).map("0{}".format)
                   | st.text(_LABEL_CHARS, min_size=1, max_size=12), max_size=3))
    def test_sorted_labels_matches_the_key_order(self, plain, odd):
        labels = plain | odd
        assert _sorted_labels(labels) == sorted(labels, key=_label_key)

    def test_sorted_labels_examples(self):
        assert _sorted_labels({"100", "9", "0", "10", "99"}) == ["0", "9", "10", "99", "100"]
        assert _sorted_labels({"10", "5", "\u0663"}) == ["\u0663", "5", "10"]
        assert _sorted_labels({"10", "5", "05"}) == ["05", "5", "10"]


def _rows(text):
    """The token rows of a text file without a marker line, line by line."""
    return [line.split() for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")]


def _reference_parse(text):
    """The text parsed the old way: labels sorted and numbered, then the
    public from_facets."""
    rows = _rows(text)
    if not rows:
        return from_facets([])
    labels = sorted({tok for row in rows for tok in row}, key=_label_key)
    index = {lb: i for i, lb in enumerate(labels)}
    return from_facets([[index[tok] for tok in row] for row in rows], labels=labels)


_LABELS = st.one_of(
    st.integers(0, 30).map(str),
    st.integers(0, 30).map("{:03d}".format),
    st.sampled_from(["a", "b", "x1", "v_2", "\u00e9", "Z"]),
)
_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def _facet_texts(draw):
    """Lines of labels with duplicate rows, nested rows, repeated tokens,
    blank and whitespace-only lines, tabs, CRLF and (maybe) comments."""
    rows = draw(st.lists(st.lists(_LABELS, min_size=1, max_size=5), max_size=8))
    for row in list(rows):
        extra = draw(st.sampled_from(["none", "duplicate", "nested", "repeat"]))
        if extra == "duplicate":
            rows.append(list(row))
        elif extra == "nested":
            rows.append(row[:draw(st.integers(1, len(row)))])
        elif extra == "repeat":
            rows.append(row + row[:1])
    rows = draw(st.permutations(rows)) if rows else rows
    lines = []
    for row in rows:
        sep = draw(_SEPARATORS)
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(row)
                     + draw(st.sampled_from(["", " ", "\t"])))
    fillers = st.sampled_from(["", "   ", "\t", "# a comment", "  # indented comment"])
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(fillers))
    if draw(st.booleans()):
        lines.insert(0, "# header")
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + ending for line in lines)


class TestParseOracle:
    """parse builds facet masks straight from the tokens; the reference goes
    through ids and from_facets, as the loader did before."""

    @given(_facet_texts())
    def test_matches_reference(self, text):
        cx, ref = parse(text), _reference_parse(text)
        assert (cx.masks, cx.labels, cx.n_vertices) == (ref.masks, ref.labels, ref.n_vertices)

    @given(_facet_texts())
    def test_json_matches_text(self, text):
        assert parse(json.dumps({"facets": _rows(text)})) == parse(text)

    @given(_facet_texts(), st.integers(0, 20),
           st.sampled_from(["a #x", "b #x@", "@x", "1 @x 2", "@empty-face 1"]))
    def test_bad_token_reports_its_line(self, text, k, bad):
        lines = text.splitlines()
        k = min(k, len(lines))
        lines.insert(k, bad)
        with pytest.raises(ParseError, match="cannot be written") as exc:
            parse("\n".join(lines) + "\n")
        assert exc.value.line == k + 1


class TestParseJson:
    def test_basic(self):
        cx = parse('{"facets": [["1", "2", "3"], ["3", "4", "5"]]}')
        assert cx == parse("1 2 3\n3 4 5\n")

    def test_numbers_allowed(self):
        cx = parse('{"facets": [[1, 2], [2, 3]]}')
        assert cx == from_facets([(1, 2), (2, 3)])

    def test_empty_list_is_void(self):
        assert parse('{"facets": []}') == from_facets([])

    def test_empty_face(self):
        for text in ('{"facets": [[]]}', '{"facets": [[], []]}'):
            assert parse(text) == from_facets([()])

    def test_invalid_json_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse('{"facets": [\n  [1, 2\n}')
        assert exc.value.line is not None

    def test_wrong_shape_rejected(self):
        with pytest.raises(ParseError):
            parse('{"nope": 1}')
        with pytest.raises(ParseError):
            parse('{"facets": "zzz"}')

    @pytest.mark.parametrize("facets", ["[[1, [2]]]", "[[true, 2]]", "[[1, 2.5]]",
                                        "[[1, null]]", '[[{"v": 1}]]'])
    def test_labels_must_be_strings_or_integers(self, facets):
        with pytest.raises(ParseError, match="strings or integers"):
            parse('{"facets": %s}' % facets)

    @pytest.mark.parametrize("label", ["a b", "", "#x", "@x", "a\tb"])
    def test_labels_must_fit_the_text_format(self, label):
        with pytest.raises(ParseError, match="cannot be written to the facet format"):
            parse(json.dumps({"facets": [[label, "c"], ["d"]]}))


class TestEmit:
    def test_canonical_order(self):
        cx = from_facets([(3, 4, 5), (1, 2, 3)])
        assert emit(cx) == "1 2 3\n3 4 5\n"

    def test_void_and_irrelevant(self):
        assert emit(from_facets([])) == ""
        assert emit(from_facets([()])) == "@empty-face\n"

    def test_unwritable_label_rejected(self):
        cx = from_facets([(0, 1)], labels=("a b", "c"))
        with pytest.raises(ValueError):
            emit(cx)

    @pytest.mark.parametrize("facets", [
        [(1, 2, 3), (3, 4, 5)],
        [(0,)],
        [()],
        [],
        [(2, 7), (7, 11), (2, 11)],
    ])
    def test_round_trip(self, facets):
        cx = from_facets(facets)
        assert parse(emit(cx)) == cx

    def test_round_trip_of_derived_complex_compacts(self):
        cx, sigma = miyazaki_example()
        lk = cx.link(sigma)
        assert parse(emit(lk)) == lk.compact()

    def test_round_trip_mixed_labels(self):
        cx, _ = miyazaki_example()
        assert parse(emit(cx)) == cx


class TestLoadDump:
    def test_file_round_trip(self, tmp_path):
        cx = boundary_simplex(4)
        path = tmp_path / "tetra.cplx"
        dump(cx, path)
        assert load(path) == cx

    def test_many_vertices_load_in_one_pass(self, tmp_path):
        path = tmp_path / "edges.cplx"
        path.write_text("".join(f"{2 * i} {2 * i + 1}\n" for i in range(10000)))
        start = time.perf_counter()
        cx = load(path)
        assert time.perf_counter() - start < 2.0
        assert cx.n_vertices == 20000 and len(cx.masks) == 10000

    def test_wide_row_loads_as_the_simplex(self):
        # a row of 2**18 ids, unsorted and with repeats, is one facet mask
        n = 1 << 18
        ids = [*range(n), *range(0, n, 7)]
        random.Random(5).shuffle(ids)
        start = time.perf_counter()
        cx = parse(" ".join(map(str, ids)) + "\n")
        assert time.perf_counter() - start < 2.0
        assert cx.masks == simplex(n).masks
        assert cx.labels == tuple(map(str, range(n)))

    def test_rows_over_more_than_64_labels_with_a_repeat(self):
        # past 64 labels rows are ORed id by id; a repeat must not carry
        text = "".join(f"{i} {i + 1} {i + 2} {i}\n" for i in range(0, 90, 3)) + "5 77\n"
        cx, ref = parse(text), _reference_parse(text)
        assert (cx.masks, cx.labels) == (ref.masks, ref.labels)
        assert cx.n_vertices == 90 and len(cx.masks) == 31

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load(tmp_path / "missing.cplx")
