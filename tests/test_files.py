"""Facet file parsing, emission and round trips."""

import json
import time

import pytest

from cmtkit.core import from_facets
from cmtkit.files import ParseError, dump, emit, load, parse
from cmtkit.generators import boundary_simplex, miyazaki_example


class TestParseText:
    def test_basic(self):
        cx = parse("1 2 3\n3 4 5\n")
        assert cx == from_facets([(1, 2, 3), (3, 4, 5)])

    def test_comments_and_blanks(self):
        cx = parse("# a comment\n\n1 2\n   \n# another\n2 3\n")
        assert cx == from_facets([(1, 2), (2, 3)])

    def test_empty_file_is_void(self):
        assert parse("").is_void
        assert parse("# only comments\n").is_void

    def test_empty_face_marker(self):
        cx = parse("@empty-face\n")
        assert not cx.is_void and cx.dim == -1

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


class TestParseJson:
    def test_basic(self):
        cx = parse('{"facets": [["1", "2", "3"], ["3", "4", "5"]]}')
        assert cx == parse("1 2 3\n3 4 5\n")

    def test_numbers_allowed(self):
        cx = parse('{"facets": [[1, 2], [2, 3]]}')
        assert cx == from_facets([(1, 2), (2, 3)])

    def test_empty_list_is_void(self):
        assert parse('{"facets": []}').is_void

    def test_empty_face(self):
        assert parse('{"facets": [[]]}').dim == -1

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load(tmp_path / "missing.cplx")
