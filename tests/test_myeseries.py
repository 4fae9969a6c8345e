"""Series storage, CSV interchange, imputation, and rendering."""

import csv
import io
import math
import re
import sys
from enum import IntEnum
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from myetrends.analysis import sma_of_base
from myetrends.datasets import STANDARD_TARGETS, load_sample, sample_names
from myetrends.exceptions import (
    CsvError,
    DataError,
    DomainError,
    ImputationError,
    MissingDataError,
)
from myetrends.myeseries import (
    IMPUTED,
    PUBLISHED,
    MyeSeries,
    ObservedValue,
    RegionPair,
    display_decimals,
    impute_random_walk,
    load_csv,
    render_value,
    write_csv,
)

HEADER = "variable,unit,period,end_year,value,provenance\n"


def tiny_series(extra=None):
    obs = {(1, 2000): 10.0, (1, 2001): 12.0, (1, 2002): 14.0, (3, 2002): 11.5}
    obs.update(extra or {})
    return MyeSeries("thing", "count", obs)


def reference_csv(series):
    """The interchange text as ``csv.writer`` writes every field of every row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("variable", "unit", "period", "end_year", "value", "provenance"))
    rows = ((k, t, ov.value, ov.provenance) for (k, t), ov in series.items())
    writer.writerows(map((series.name, series.unit).__add__, rows))
    return buf.getvalue()


# names and units that csv must quote, or that load_csv strips; no NUL,
# which Python 3.10's csv.writer refuses to write at all
csv_texts = st.text(
    st.one_of(
        st.sampled_from(',"\r\n \t\u00e9\u6f22'),
        st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
    ),
    min_size=1, max_size=10,
).filter(str.strip)
csv_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**20), 10**20).map(float),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
)
csv_rows = st.dictionaries(
    st.tuples(st.integers(1, 10**6), st.integers(-(10**6), 10**6)),
    st.tuples(csv_values, st.sampled_from([PUBLISHED, IMPUTED])),
    min_size=1, max_size=8,
)


class TestObservedValue:
    def test_defaults_to_published(self):
        assert ObservedValue(3.0).provenance == PUBLISHED

    def test_rejects_unknown_provenance(self):
        with pytest.raises(DataError, match="provenance"):
            ObservedValue(3.0, "guessed")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DataError, match="finite"):
            ObservedValue(bad)

    @pytest.mark.parametrize("bad", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_rejects_an_int_beyond_the_float_range(self, bad):
        # float() of such an int escaped as a bare OverflowError
        with pytest.raises(DataError, match=r"^value is beyond the float range$"):
            ObservedValue(bad)

    @pytest.mark.parametrize("bad", ["abc", "", b"1x"], ids=["word", "empty", "bytes"])
    def test_rejects_a_value_that_is_not_a_number(self, bad):
        # float()'s ValueError escaped bare, as a built-in error
        with pytest.raises(DataError, match=rf"^value {re.escape(repr(bad))} is not a number$"):
            ObservedValue(bad)

    @pytest.mark.parametrize("bad", [None, [1.0]], ids=["None", "list"])
    def test_a_value_of_the_wrong_type_is_a_type_error(self, bad):
        # a programming error, not input: the built-in error, as documented
        with pytest.raises(TypeError):
            ObservedValue(bad)
        with pytest.raises(TypeError):
            MyeSeries("x", "c", {(1, 2000): bad})


class TestMyeSeries:
    def test_basic_accessors(self):
        s = tiny_series()
        assert s.name == "thing"
        assert s.unit == "count"
        assert len(s) == 4
        assert s.periods() == (1, 3)
        assert s.years(1) == (2000, 2001, 2002)
        assert s.value(3, 2002) == 11.5
        assert (3, 1999) not in s
        assert s.has(1, 2001)
        assert (1, 2001) in s
        assert s.provenance(1, 2001) == PUBLISHED

    def test_missing_value_raises_with_key(self):
        with pytest.raises(MissingDataError, match="5y.*2001"):
            tiny_series().value(5, 2001)

    def test_equality(self):
        assert tiny_series() == tiny_series()
        assert tiny_series() != tiny_series({(1, 2003): 1.0})

    def test_items_sorted(self):
        keys = [k for k, _ in tiny_series().items()]
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "name,unit,obs",
        [
            ("", "count", {(1, 2000): 1.0}),
            ("x", "", {(1, 2000): 1.0}),
            ("x", "count", {}),
            ("x", "count", {(0, 2000): 1.0}),
            ("x", "count", {(1, 2000.5): 1.0}),
            ("x", "count", {("1", 2000): 1.0}),
        ],
    )
    def test_invalid_construction(self, name, unit, obs):
        with pytest.raises(DataError):
            MyeSeries(name, unit, obs)

    @pytest.mark.parametrize("bad,why", [(10**400, "is beyond the float range"),
                                         (float("inf"), "must be finite, got inf"),
                                         ("abc", "'abc' is not a number")],
                             ids=["1e400", "inf", "abc"])
    def test_bad_value_names_its_observation(self, bad, why):
        # a bare value is checked where its key is known; an int past the
        # float range escaped as a bare OverflowError
        with pytest.raises(DataError, match=rf"^observation for period 1, end year 2000: value {why}$"):
            MyeSeries("x", "c", {(1, 1999): 1.0, (1, 2000): bad})

    @pytest.mark.parametrize("obs,extra,runs", [
        ({2000: 1.0, 2002: 3.0}, {2001: 2.0},
         {3: ([2000], [[1.0, 2.0, 3.0]], [[PUBLISHED, IMPUTED, PUBLISHED]])}),
        ({2001: 2.0, 2002: 3.0}, {2000: 1.0},
         {3: ([2000], [[1.0, 2.0, 3.0]], [[IMPUTED, PUBLISHED, PUBLISHED]])}),
        ({2000: 1.0, 2001: 2.0}, {2002: 3.0, 2004: 5.0},
         {3: ([2000, 2004], [[1.0, 2.0, 3.0], [5.0]],
              [[PUBLISHED, PUBLISHED, IMPUTED], [IMPUTED]])}),
        ({1990: 0.0, 2000: 1.0}, {1995: 5.0, 1996: 6.0, 2010: 7.0},
         {3: ([1990, 1995, 2000, 2010], [[0.0], [5.0, 6.0], [1.0], [7.0]],
              [[PUBLISHED], [IMPUTED, IMPUTED], [PUBLISHED], [IMPUTED]])}),
    ], ids=["joins-two-runs", "precedes-a-run", "extends-a-run", "lone-runs"])
    def test_with_observations_splices_into_the_runs(self, obs, extra, runs):
        s = MyeSeries("x", "c", {(3, t): v for t, v in obs.items()})
        merged = s.with_observations({(3, t): ObservedValue(v, IMPUTED) for t, v in extra.items()})
        assert merged._runs == runs
        assert merged._runs == MyeSeries("x", "c", dict(merged.items()))._runs
        assert len(merged) == len(obs) + len(extra)
        assert s == MyeSeries("x", "c", {(3, t): v for t, v in obs.items()})

    def test_with_observations_shares_untouched_runs(self):
        s = MyeSeries("x", "c", {(1, 2000): 1.0, (1, 2001): 2.0, (3, 1990): 0.0, (3, 2000): 1.0,
                                 (3, 2002): 3.0, (5, 2000): 9.0})
        merged = s.with_observations({(3, 2001): ObservedValue(2.0, IMPUTED),
                                      (2, 2000): ObservedValue(4.0, IMPUTED)})
        # a new period between existing ones keeps the periods ascending
        assert merged.periods() == (1, 2, 3, 5)
        assert merged.years(3) == (1990, 2000, 2001, 2002)
        # untouched periods and runs are the source's own lists
        assert merged._runs[1] is s._runs[1] and merged._runs[5] is s._runs[5]
        assert merged._runs[3][1][0] is s._runs[3][1][0]
        assert merged._runs[3][2][0] is s._runs[3][2][0]
        # the joined runs were copied: the source reads as before
        assert s._runs[3] == ([1990, 2000, 2002], [[0.0], [1.0], [3.0]],
                              [[PUBLISHED], [PUBLISHED], [PUBLISHED]])
        assert s.periods() == (1, 3, 5) and len(s) == 6 and len(merged) == 8

    def test_with_observations_rejects_collisions(self):
        s = tiny_series()
        with pytest.raises(DataError, match="already present"):
            s.with_observations({(1, 2000): ObservedValue(9.0)})

    def test_repr_mentions_name(self):
        assert "thing" in repr(tiny_series())

    @pytest.mark.parametrize("length", [-2, True, 2.5])
    def test_window_length_is_checked(self, length):
        # -2 read as an empty window, True as 1, and 2.5 escaped the slice
        # as a bare TypeError
        s = load_sample("income")
        want = f"length must be an integer >= 0, got {length!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            s.window(1, 2007, length)
        assert (1, 2007) in s
        assert s.value(1, 2007) == s.window(1, 2007, 1)[0][0]

    def test_window_is_none_unless_every_year_is_present(self):
        # the income sample's 3y values end 2001-2005 and 2007
        s = load_sample("income")
        assert s.window(3, 2005, 3) == ([37373.0, 38739.0, 40404.0], [PUBLISHED] * 3)
        assert s.window(3, 2005, 5) == ([35956.0, 36780.0, 37373.0, 38739.0, 40404.0],
                                        [PUBLISHED] * 5)
        assert s.window(3, 2005, 0) == ([], [])
        # a window past its run's first year, one across the gap at 2006,
        # one ending in it, one before every 3y value and one of an absent
        # period
        for period, end_year, length in [(3, 2005, 6), (3, 2007, 2), (3, 2006, 1),
                                         (3, 2000, 1), (2, 2005, 1)]:
            assert s.window(period, end_year, length) is None


class TestLoadCsv:
    def test_samples_load(self):
        for name in sample_names():
            s = load_sample(name)
            assert s.periods() == (1, 3, 5)
            assert len(s.years(1)) == 8

    def test_stream_input(self):
        text = HEADER + "x,count,1,2000,5,published\n"
        s = load_csv(io.StringIO(text))
        assert s.value(1, 2000) == 5.0

    def test_provenance_defaults_to_published(self):
        text = HEADER + "x,count,1,2000,5,\n"
        assert load_csv(io.StringIO(text)).provenance(1, 2000) == PUBLISHED

    def test_provenance_cell_may_be_omitted(self):
        # a row may end before the header's trailing provenance column
        text = HEADER + "x,count,1,2000,5\nx,count,1,2001,6,imputed\n"
        s = load_csv(io.StringIO(text))
        assert (s.provenance(1, 2000), s.provenance(1, 2001)) == (PUBLISHED, IMPUTED)

    def test_blank_lines_are_skipped(self):
        text = HEADER + "x,count,1,2000,5,\n\nx,count,1,2001,6,\n\nx,count,1,x,7,\n"
        with pytest.raises(CsvError, match="line 6: end_year"):
            load_csv(io.StringIO(text))
        s = load_csv(io.StringIO(text.rsplit("\n\n", 1)[0] + "\n"))
        assert s.years(1) == (2000, 2001)

    def test_unknown_sample_names_the_available_ones(self):
        want = f"unknown sample 'nope'; available: {', '.join(sample_names())}"
        with pytest.raises(KeyError, match=want):
            load_sample("nope")

    def test_provenance_column_optional(self):
        text = "variable,unit,period,end_year,value\nx,count,1,2000,5\n"
        assert load_csv(io.StringIO(text)).provenance(1, 2000) == PUBLISHED

    def test_end_years_load_as_written(self):
        # no century is guessed: 07 is the year 7
        text = HEADER + "x,count,1,00,5,\nx,count,1,07,6,\nx,count,1,99,7,\n"
        s = load_csv(io.StringIO(text))
        assert s.years(1) == (0, 7, 99)
        assert [s.value(1, t) for t in (0, 7, 99)] == [5.0, 6.0, 7.0]

    def test_whitespace_around_header_names(self):
        text = " variable, unit,period,end_year,value , provenance\nx,count,1,2000,5,imputed\n"
        s = load_csv(io.StringIO(text))
        assert (s.name, s.unit, s.value(1, 2000)) == ("x", "count", 5.0)
        assert s.provenance(1, 2000) == "imputed"

    def test_empty_file(self):
        with pytest.raises(CsvError, match="empty"):
            load_csv(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(CsvError, match="no observation rows"):
            load_csv(io.StringIO(HEADER))

    def test_missing_column(self):
        with pytest.raises(CsvError, match="value"):
            load_csv(io.StringIO("variable,unit,period,end_year\nx,count,1,2000\n"))

    @pytest.mark.parametrize(
        "row,fragment",
        [
            ("x,count,one,2000,5,", "period"),
            ("x,count,0,2000,5,", "period must be >= 1"),
            ("x,count,1,MMVII,5,", "end_year"),
            ("x,count,1,2000,lots,", "value"),
            ("x,count,1,2000,5,rumor", "provenance"),
            (",count,1,2000,5,", "nonempty"),
            ("x,count,1,2000", "row ends after 4 fields, but the header's required columns need 5"),
        ],
    )
    def test_bad_rows_name_line_two(self, row, fragment):
        with pytest.raises(CsvError, match=f"line 2.*{fragment}"):
            load_csv(io.StringIO(HEADER + row + "\n"))

    def test_duplicate_key_names_line(self):
        text = HEADER + "x,count,1,2000,5,\nx,count,1,2000,6,\n"
        with pytest.raises(CsvError, match="line 3.*duplicate.*period 1.*2000"):
            load_csv(io.StringIO(text))

    @pytest.mark.parametrize("repeat", [
        "x,count,1,2000,inf,", "x,count,1,2000,nan,", "x,count,1,2000,5,rumor",
    ], ids=["inf", "nan", "tag"])
    @pytest.mark.parametrize("before", [[], ["x,count,1,2001,6,"]], ids=["next", "later"])
    def test_a_repeated_key_is_named_before_its_value_or_tag(self, tmp_path, repeat, before):
        # the key is checked first, whether the repeat follows its first row
        # at once or comes after a larger key
        text = HEADER + "\n".join(["x,count,1,2000,5,", *before, repeat]) + "\n"
        path = tmp_path / "repeated.csv"
        path.write_text(text)
        want = f"line {3 + len(before)}: duplicate observation for period 1, end year 2000"
        for source, name in [(io.StringIO(text), "<stream>"), (path, str(path))]:
            with pytest.raises(CsvError, match=f"^{re.escape(f'{name} {want}')}$"):
                load_csv(source)

    def test_mixed_variables_rejected(self):
        text = HEADER + "x,count,1,2000,5,\ny,count,1,2001,6,\n"
        with pytest.raises(CsvError, match="line 3"):
            load_csv(io.StringIO(text))

    def test_mixed_units_rejected(self):
        text = HEADER + "x,count,1,2000,5,\nx,bushels,1,2001,6,\n"
        with pytest.raises(CsvError, match="line 3"):
            load_csv(io.StringIO(text))

    def test_undecodable_file_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("variable,unit,period,end_year,value\ncaf\u00e9,count,1,2000,5\n"
                         .encode("latin-1"))
        with pytest.raises(CsvError, match=re.escape(f"{path}: not utf-8 text")):
            load_csv(path)

    def test_oversized_field_names_the_path_and_line(self, tmp_path):
        text = "variable,unit,period,end_year,value\nx,count,1,2000," + "1" * 200_000 + "\n"
        path = tmp_path / "big.csv"
        path.write_text(text)
        want = "line 2: field larger than field limit"
        with pytest.raises(CsvError, match=re.escape(f"{path} {want}")):
            load_csv(path)
        with pytest.raises(CsvError, match=f"<stream> {want}"):
            load_csv(io.StringIO(text))

    def test_padded_cells_load_as_their_stripped_twin(self):
        # int and float accept surrounding spaces, not \x1c-\x1f, which
        # strip() removes: a refused cell is read again stripped
        padded = HEADER + (
            "x,count, 3,\x1c2005\x1f, 1.5e3 , imputed \n"
            " x,\x1dcount\t,\x1e1,2004\x1c,\x1f-2\x1c, \n"
            "x ,count,1 , 2005,\t7 ,\x1cpublished\n"
        )
        twin = HEADER + (
            "x,count,3,2005,1.5e3,imputed\n"
            "x,count,1,2004,-2,\n"
            "x,count,1,2005,7,published\n"
        )
        s = load_csv(io.StringIO(padded))
        assert s == load_csv(io.StringIO(twin))
        assert s == MyeSeries("x", "count", {
            (3, 2005): ObservedValue(1500.0, IMPUTED), (1, 2004): -2.0, (1, 2005): 7.0})

    @given(st.lists(st.lists(st.text(st.sampled_from(" \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0"
                                                     "\u2028\u3000"), max_size=2),
                             min_size=12, max_size=12),
                    min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_any_padding_loads_as_the_stripped_twin(self, pads):
        # each cell gets its own leading and trailing whitespace
        rows = [("x", "count", "1", "2004", "-2.5", ""),
                ("x", "count", "3", "2005", "1e3", "imputed"),
                ("x", "count", "1", "2003", "7", "published")]
        padded = HEADER + "".join(
            ",".join(pad[2 * i] + cell + pad[2 * i + 1] for i, cell in enumerate(row)) + "\n"
            for row, pad in zip(rows, pads))
        twin = HEADER + "".join(",".join(row) + "\n" for row in rows)
        assert load_csv(io.StringIO(padded)) == load_csv(io.StringIO(twin))

    @pytest.mark.parametrize("column,what,tail", [
        (2, "period", "is not an integer"),
        (3, "end_year", "is not an integer"),
        (4, "value", "is not a number"),
    ])
    @pytest.mark.parametrize("cell", ["3x", " 3x ", "\x1c3x\x1f", "3 x", ""])
    def test_a_bad_cell_is_quoted_as_written(self, column, what, tail, cell):
        row = ["x", "count", "1", "2000", "5", ""]
        row[column] = cell
        want = f"<stream> line 2: {what} {cell!r} {tail}"
        with pytest.raises(CsvError, match=f"^{re.escape(want)}$"):
            load_csv(io.StringIO(HEADER + ",".join(row) + "\n"))

    def test_bare_carriage_return_in_stream_names_the_line(self):
        text = "variable,unit,period,end_year,value\nbare\rreturn,count,1,2000,5\n"
        with pytest.raises(CsvError, match="<stream> line 2: new-line character"):
            load_csv(io.StringIO(text))

    def test_bare_carriage_return_in_file_ends_the_row(self, tmp_path):
        # read from a path, a bare "\r" ends a line, so the row is short
        path = tmp_path / "bare_cr.csv"
        path.write_bytes(b"variable,unit,period,end_year,value\nbare\rreturn,count,1,2000,5\n")
        want = f"{path} line 2: row ends after 1 fields, but the header's required columns need 5"
        with pytest.raises(CsvError, match=re.escape(want)):
            load_csv(path)


class TestWriteCsv:
    def test_round_trip_samples(self):
        for name in sample_names():
            s = load_sample(name)
            assert load_csv(io.StringIO(write_csv(s))) == s

    def test_round_trip_preserves_provenance(self):
        s = impute_random_walk(load_sample("income"), STANDARD_TARGETS)
        again = load_csv(io.StringIO(write_csv(s)))
        assert again == s
        assert again.provenance(5, 2007) == IMPUTED

    def test_write_to_path(self, tmp_path):
        target = tmp_path / "out.csv"
        s = tiny_series()
        write_csv(s, target)
        assert load_csv(target) == s

    def test_round_trip_with_byte_order_mark(self, tmp_path):
        # spreadsheet exports often start with a UTF-8 BOM
        s = load_sample("income")
        target = tmp_path / "bom.csv"
        target.write_bytes(write_csv(s).encode("utf-8-sig"))
        assert target.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_csv(target) == s

    def test_byte_order_mark_in_text_stream(self):
        # a file opened as utf-8, not utf-8-sig, keeps the BOM in the text
        s = load_sample("income")
        text = write_csv(s).encode("utf-8-sig").decode("utf-8")
        assert text.startswith("\ufeff")
        assert load_csv(io.StringIO(text)) == s

    def test_byte_order_mark_before_quoted_header_in_text_stream(self, tmp_path):
        # spreadsheets that quote all text write the BOM before the first quote
        buf = io.StringIO()
        csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC).writerows(
            [["variable", "unit", "period", "end_year", "value"],
             ["x", "count", 1, 2005, 3.5], ["x", "count", 1, 2006, 4.0]])
        target = tmp_path / "quoted.csv"
        target.write_text(buf.getvalue(), encoding="utf-8-sig")
        from_path = load_csv(target)
        with open(target, encoding="utf-8", newline="") as fh:
            assert load_csv(fh) == from_path
        assert len(from_path) == 2

    def test_only_one_byte_order_mark_is_skipped(self, tmp_path):
        # one rule for paths and streams: a second BOM stays in the first
        # header name, so both fail alike (a path used to skip two)
        target = tmp_path / "two_boms.csv"
        target.write_text("\ufeff\ufeff" + HEADER + "x,count,1,2000,1.0\n", encoding="utf-8")
        want = re.escape("header lacks required columns ['variable']")
        with pytest.raises(CsvError, match=want):
            load_csv(target)
        with open(target, encoding="utf-8", newline="") as fh, pytest.raises(CsvError, match=want):
            load_csv(fh)

    def test_unencodable_text_leaves_the_target_intact(self, tmp_path):
        # a lone surrogate has no UTF-8 form: the error comes before the
        # target is opened, so its old bytes stay
        target = tmp_path / "out.csv"
        old = write_csv(tiny_series(), target).encode("utf-8")
        s = MyeSeries("inc\ud800", "dollars", {(1, 2000): 1.0})
        want = "series name 'inc\\ud800' is not encodable as UTF-8"
        with pytest.raises(DataError, match=f"^{re.escape(want)}$"):
            write_csv(s, target)
        assert target.read_bytes() == old

    @pytest.mark.parametrize("name,unit,field,text", [
        (" ", "count", "name", " "), ("x", "\t\x1c", "unit", "\t\x1c"),
        ("x", "per\udc80", "unit", "per\udc80"),
    ], ids=["blank-name", "blank-unit", "unencodable-unit"])
    def test_a_name_load_csv_cannot_read_is_refused_before_writing(
            self, tmp_path, name, unit, field, text):
        # a blank name was written, and only reading it back failed
        target = tmp_path / "out.csv"
        old = write_csv(tiny_series(), target).encode("utf-8")
        s = MyeSeries(name, unit, {(1, 2000): 1.0})
        buf = io.StringIO()
        for sink in (None, buf, target):
            with pytest.raises(DataError, match=f"^series {field} {re.escape(repr(text))} "):
                write_csv(s, sink)
        assert buf.getvalue() == ""
        assert target.read_bytes() == old

    def test_write_to_stream(self):
        buf = io.StringIO()
        text = write_csv(tiny_series(), buf)
        assert buf.getvalue() == text
        assert text.startswith(HEADER)

    @given(csv_texts, csv_texts, csv_rows)
    @example('a,"b', "per 1,000", {(3, 2000): (-0.0, PUBLISHED), (3, 2001): (5e-324, IMPUTED)})
    @example(" lead", "trail ", {(1, 2000): (1.7976931348623157e308, IMPUTED)})
    @example("bare\rreturn", "count", {(1, 2000): (2.5, PUBLISHED)})
    @example("line\nbreak", "carriage\r\nreturn", {(5, 1999): (3.0, PUBLISHED), (5, 100): (-2.0, IMPUTED)})
    @example("\u00e9\u6f22 \"q\"", "\r\nu", {(1, -7): (1e16, PUBLISHED), (2, 2000): (-1e22, IMPUTED)})
    # a 3y value ending 5 beside one ending 2005: each loads as written
    @example("x", "count", {(3, 5): (1.0, PUBLISHED), (3, 2005): (2.0, IMPUTED)})
    @settings(max_examples=200, deadline=None)
    def test_bytes_are_csv_writers(self, name, unit, rows):
        obs = {key: ObservedValue(v, p) for key, (v, p) in rows.items()}
        s = MyeSeries(name, unit, obs)
        text = write_csv(s)
        # csv.writer before 3.13 leaves a bare "\r" unquoted; write_csv quotes
        # it on every Python, as 3.13 does
        if sys.version_info >= (3, 13) or not any(
                "\r" in f and not {",", '"', "\n"} & set(f) for f in (name, unit)):
            assert text == reference_csv(s)
        if (name, unit, rows) == ("bare\rreturn", "count", {(1, 2000): (2.5, PUBLISHED)}):
            assert text == HEADER + '"bare\rreturn",count,1,2000,2.5,published\n'
        again = load_csv(io.StringIO(text))
        assert (again.name, again.unit) == (name.strip(), unit.strip())
        assert list(again.items()) == list(s.items())

    def test_nul_in_a_name_is_written_as_is(self):
        # Python 3.10's csv reader rejects any NUL, even a quoted one
        s = MyeSeries("nul\x00name", "count", {(1, 2000): 1.0})
        text = write_csv(s)
        assert text == HEADER + "nul\x00name,count,1,2000,1.0,published\n"
        if sys.version_info >= (3, 11):
            assert load_csv(io.StringIO(text)) == s
        else:
            with pytest.raises(CsvError, match=r"^<stream> line 2: line contains NUL"):
                load_csv(io.StringIO(text))

    def test_bare_carriage_return_round_trips(self):
        s = MyeSeries("carriage\rreturn", "count", {(1, 2000): 1.0})
        assert load_csv(io.StringIO(write_csv(s))) == s

    def test_int_subclass_period_is_written_as_csv_writes_it(self):
        class Tagged(int):
            def __str__(self):
                return f"k{int(self)}"

        for period in (Tagged(3), IntEnum("Period", {"THREE": 3}).THREE):
            s = MyeSeries("x", "count", {(period, 2000): 1.0})
            assert write_csv(s) == reference_csv(s)

    def test_int_subclass_key_is_written_as_its_str_not_its_format(self):
        # csv writes str(key); on Python 3.10 an IntEnum formats as its value
        class Formatted(int):
            def __str__(self):
                return f"s{int(self)}"

            def __format__(self, spec):
                return f"f{int(self)}"

        s = MyeSeries("x", "count", {(Formatted(3), 2000): 1.0})
        assert write_csv(s) == reference_csv(s)
        assert write_csv(s).splitlines()[1] == "x,count,s3,2000,1.0,published"

    @given(
        st.lists(
            st.floats(
                allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60)
    def test_round_trip_exact_for_arbitrary_floats(self, values):
        obs = {(1, 2000 + i): v for i, v in enumerate(values)}
        s = MyeSeries("x", "count", obs)
        again = load_csv(io.StringIO(write_csv(s)))
        for key, ov in s.items():
            assert again.value(*key) == ov.value


class TestSmaOfBase:
    def test_known_window_mean(self):
        s = load_sample("income")
        expected = (43546 + 42984 + 41521) / 3
        assert sma_of_base(s, 3, 2007) == pytest.approx(expected, rel=1e-15)

    def test_period_one_is_the_value(self):
        s = load_sample("income")
        assert sma_of_base(s, 1, 2004) == s.value(1, 2004)

    def test_missing_years_listed(self):
        s = load_sample("income")
        with pytest.raises(MissingDataError, match=r"\[1998, 1999\]"):
            sma_of_base(s, 3, 2000)

    def test_a_stretch_of_more_than_ten_missing_years_is_named_by_its_ends(self):
        s = MyeSeries("x", "count", {(1, 2000): 1.0, (1, 2011): 1.0, (1, 2023): 1.0})
        with pytest.raises(MissingDataError) as err:
            sma_of_base(s, 30, 2025)
        ten = ", ".join(map(str, range(2001, 2011)))
        assert str(err.value) == (
            f"x: 1y values missing for years [1996, 1997, 1998, 1999, {ten}, 2012 to 2022, "
            "2024, 2025] (window of 30 ending 2025)")

    def test_bad_period(self):
        with pytest.raises(ValueError):
            sma_of_base(load_sample("income"), 0, 2005)

    def test_reads_each_window_year_once(self):
        # the window's values are one slice read, with no tags sliced; no
        # year is looked up on its own
        reads = []

        class Counting(MyeSeries):
            def _window_values(self, period, end_year, length):
                reads.append((period, end_year, length))
                return super()._window_values(period, end_year, length)

            def get(self, *args):
                raise AssertionError("get(), has(), value() or window() called")

            has = value = window = get

        s = Counting("income", "dollars", dict(load_sample("income").items()))
        assert sma_of_base(s, 3, 2007) == sma_of_base(load_sample("income"), 3, 2007)
        assert reads == [(1, 2007, 3)]
        with pytest.raises(MissingDataError) as err:
            sma_of_base(s, 3, 2000)
        assert str(err.value) == (
            "income: 1y values missing for years [1998, 1999] (window of 3 ending 2000)")

    def test_overflowing_sum_is_a_domain_error(self):
        s = MyeSeries("big", "count", {(1, 2001): 1.7e308, (1, 2002): 1.7e308})
        with pytest.raises(DomainError, match="big: .*window of 2 ending 2002 overflows"):
            sma_of_base(s, 2, 2002)


class TestImputation:
    # Exact pre-rounding values implied by the published data; the rendered
    # forms are checked in the demo/acceptance tests.
    CASES = {
        "income": {(3, 2006): 42395.0, (5, 2006): 41327.5, (5, 2007): 42600.0},
        "divorce": {(3, 2006): 17370.5, (5, 2006): 16181.0, (5, 2007): 16417.0},
    }

    @pytest.mark.parametrize("name", ["income", "divorce"])
    def test_exact_fill_values(self, name):
        full = impute_random_walk(load_sample(name), STANDARD_TARGETS)
        for key, expected in self.CASES[name].items():
            assert full.value(*key) == expected

    def test_age_fill_values(self):
        full = impute_random_walk(load_sample("age"), STANDARD_TARGETS)
        assert full.value(3, 2006) == pytest.approx(37.35, abs=1e-12)
        assert full.value(5, 2006) == pytest.approx(37.45, abs=1e-12)
        assert full.value(5, 2007) == pytest.approx(37.70, abs=1e-12)

    def test_marks_imputed_and_keeps_published(self):
        src = load_sample("income")
        full = impute_random_walk(src, STANDARD_TARGETS)
        for key in STANDARD_TARGETS:
            assert full.provenance(*key) == IMPUTED
        for key, ov in src.items():
            assert full.value(*key) == ov.value
            assert full.provenance(*key) == PUBLISHED

    def test_source_unmodified(self):
        src = load_sample("income")
        before = len(src)
        impute_random_walk(src, STANDARD_TARGETS)
        assert len(src) == before
        assert not src.has(3, 2006)

    def test_existing_target_rejected(self):
        src = load_sample("income")
        with pytest.raises(ImputationError, match="published"):
            impute_random_walk(src, [(3, 2005)])

    def test_double_fill_rejected(self):
        full = impute_random_walk(load_sample("income"), [(3, 2006)])
        with pytest.raises(ImputationError, match="imputed"):
            impute_random_walk(full, [(3, 2006)])

    def test_duplicate_target_in_one_call_rejected(self):
        with pytest.raises(ImputationError):
            impute_random_walk(load_sample("income"), [(3, 2006), (3, 2006)])

    def test_a_target_filled_twice_has_an_imputed_value(self):
        src = load_sample("income")
        full = impute_random_walk(src, [(3, 2006)])
        want = rf"^{re.escape(src.name)}: target 3y ending 2006 already has an imputed value$"
        with pytest.raises(ImputationError, match=want):
            impute_random_walk(src, [(3, 2006), (3, 2006)])
        with pytest.raises(ImputationError, match=want):
            impute_random_walk(full, [(3, 2006)])
        with pytest.raises(ImputationError, match=r"ending 2005 already has a published value$"):
            impute_random_walk(src, [(3, 2005)])

    @pytest.mark.parametrize("targets,want", [
        ([(1, 2000)], "target 1y ending 2000 already has a published value"),
        ([(1, 2001)], "target 1y ending 2001 already has an imputed value"),
        ([(3, 2002), (3, 2002)], "target 3y ending 2002 already has an imputed value"),
        ([(3, 1999)], "cannot impute 3y ending 1999: no published 3y value precedes it"),
        ([(9, 2000)], "cannot impute 9y ending 2000: no published 9y value precedes it"),
        ([(7, 2012)], "cannot extrapolate 7y ending 2012: only one published 7y value "
                      "(ending 1990) precedes it"),
    ], ids=["published", "imputed", "repeated", "early", "absent-period", "lone-anchor"])
    def test_each_refusal_is_worded_in_full(self, targets, want):
        s = MyeSeries("long", "count", {
            (1, 2000): 10.0, (1, 2001): ObservedValue(11.0, IMPUTED),
            (3, 2001): 5.0, (3, 2003): 7.0,
            (7, 1990): 80.0, (7, 2000): ObservedValue(81.0, IMPUTED)})
        with pytest.raises(ImputationError, match=f"^{re.escape(f'long: {want}')}$"):
            impute_random_walk(s, targets)

    def test_leading_gap_rejected(self):
        with pytest.raises(ImputationError, match="no published"):
            impute_random_walk(load_sample("income"), [(5, 2001)])

    def test_single_anchor_rejected(self):
        s = MyeSeries("x", "count", {(5, 2003): 10.0, (1, 2003): 9.0})
        with pytest.raises(ImputationError, match="only one"):
            impute_random_walk(s, [(5, 2004)])

    def test_imputed_values_never_anchor(self):
        # 3y published at 2005 and 2007 only; imputed 2006 must not turn a
        # 2008 extrapolation into a chain off the forecast.
        s = MyeSeries(
            "x", "count", {(3, 2003): 10.0, (3, 2005): 20.0, (3, 2007): 40.0}
        )
        full = impute_random_walk(s, [(3, 2006), (3, 2008)])
        # 2008 extrapolates from published 2003/2007: 40 + (40-10)/4
        assert full.value(3, 2008) == 47.5
        assert full.value(3, 2006) == 30.0

    def test_order_of_targets_irrelevant(self):
        a = impute_random_walk(load_sample("divorce"), STANDARD_TARGETS)
        b = impute_random_walk(load_sample("divorce"), tuple(reversed(STANDARD_TARGETS)))
        assert a == b

    def test_constant_series_stays_constant(self):
        s = MyeSeries(
            "x",
            "count",
            {(3, t): 7.0 for t in (2000, 2002, 2004)},
        )
        full = impute_random_walk(s, [(3, 2001), (3, 2003), (3, 2005), (3, 2006)])
        for t in range(2001, 2007):
            if full.has(3, t):
                assert full.value(3, t) == 7.0

    def test_interior_midpoint(self):
        s = MyeSeries("x", "count", {(3, 2000): 10.0, (3, 2002): 20.0})
        assert impute_random_walk(s, [(3, 2001)]).value(3, 2001) == 15.0

    def test_interior_midpoint_whose_sum_overflows(self):
        # 1.7e308 + 1.7e308 overflows; the midpoint itself is in range
        s = MyeSeries("x", "count", {(3, 2000): 1.7e308, (3, 2002): 1.7e308})
        assert impute_random_walk(s, [(3, 2001)]).value(3, 2001) == 1.7e308

    def test_trailing_step_whose_difference_overflows(self):
        # 1.7e308 - -1.7e308 overflows; the step over 100 years is 3.4e306
        s = MyeSeries("x", "count", {(3, 1900): -1.7e308, (3, 2000): 1.7e308})
        value = impute_random_walk(s, [(3, 2001)]).value(3, 2001)
        assert value == float(F(1.7e308) + 2 * F(1.7e308) / 100)

    @given(
        st.dictionaries(
            st.one_of(st.integers(1900, 2100), st.integers(-(10**400), 10**400)),
            st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from([1.7e308, -1.7e308, 5e-324, -5e-324, -0.0])),
            min_size=2, max_size=4,
        ),
        st.one_of(st.integers(1900, 2100), st.integers(-(10**400), 10**400)),
    )
    # 48446/29, 0x1.a1a34f72c234fp+10; the float formula, with four
    # roundings, gave 0x1.a1a34f72c2350p+10
    @example({1990: 5494.0, 1991: 5494.0, 2019: 2134.0}, 2023)
    @example({1999: -1.7e308, 2000: 1.7e308}, 2001)
    @example({1999: 1.7e308, 2001: 1.7e308}, 2000)
    @example({2000: 5e-324, 2002: 0.0}, 2001)
    @example({2000: 0.0, 2001: 1e-300}, 2001 + 10**400)
    @example({-(10**400): 10.0, 0: 20.0}, 5)
    @settings(max_examples=300, deadline=None)
    def test_every_fill_is_its_exact_formula_rounded_once(self, published, target):
        years = sorted(published)
        before = [t for t in years if t < target]
        after = [t for t in years if t > target]
        assume(target not in published and (len(before) >= 2 or before and after))
        y = {t: F(v) for t, v in published.items()}
        if before and after:
            exact = (y[before[-1]] + y[after[0]]) / 2
        else:
            first, last = before[0], before[-1]
            exact = y[last] + (target - last) * (y[last] - y[first]) / (last - first)
        s = MyeSeries("x", "count", {(3, t): v for t, v in published.items()})
        try:
            want = float(exact)
        except OverflowError:
            want = f"x: imputed 3y ending {target} is beyond the float range"
            with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
                impute_random_walk(s, [(3, target)])
        else:
            assert impute_random_walk(s, [(3, target)]).value(3, target) == want

    @pytest.mark.parametrize("published, target", [
        ({(3, 1900): -1.7e308, (3, 2000): 1.7e308}, 2005),
        ({(3, 1999): -1.7e308, (3, 2000): 1.7e308}, 2001),
        ({(3, 1999): 1e308, (3, 2000): 1.5e308}, 2001),
    ])
    def test_trailing_value_beyond_the_float_range_named(self, published, target):
        s = MyeSeries("x", "count", published)
        want = f"x: imputed 3y ending {target} is beyond the float range"
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            impute_random_walk(s, [(3, target)])

    def test_trailing_target_beyond_the_float_range_of_years_named(self):
        # t - last converted to float raised a bare OverflowError
        far = 10**309
        s = MyeSeries("x", "count", {(3, 2000): 10.0, (3, 2002): 20.0})
        want = f"x: imputed 3y ending {far} is beyond the float range"
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            impute_random_walk(s, [(3, far)])

    @pytest.mark.parametrize("published, target, want", [
        # no drift: the value is the last one, however far the end year
        ({(3, 2000): 10.0, (3, 2002): 10.0}, 10**309, 10.0),
        # a drift small enough that the far end year stays in range (the
        # last value, 1e-300, is lost in rounding)
        ({(3, 2000): 0.0, (3, 2001): 1e-300}, 2001 + 10**309, float(F(1e-300) * 10**309)),
        # a span of end years beyond the float range
        ({(3, -10**309): 10.0, (3, 0): 20.0}, 5, 20.0 + float(F(50, 10**309))),
    ], ids=["flat", "small-drift", "far-span"])
    def test_trailing_drift_formed_exactly_past_the_float_range_of_years(
            self, published, target, want):
        s = MyeSeries("x", "count", published)
        assert impute_random_walk(s, [(3, target)]).value(3, target) == want

    @pytest.mark.parametrize("target, what", [
        (("3", "2006"), "period"),
        ((0, 2006), "period"),
        ((-3, 2006), "period"),
        ((True, 2006), "period"),
        ((3.0, 2006), "period"),
        ((3, 2006.0), "end year"),
        ((3, "2006"), "end year"),
        ((3, False), "end year"),
        ((3,), r"must be a \(period, end_year\) pair"),
        ((3, 2006, 1), r"must be a \(period, end_year\) pair"),
        (3, r"must be a \(period, end_year\) pair"),
        (None, r"must be a \(period, end_year\) pair"),
    ])
    def test_malformed_target_named(self, target, what):
        # ("3", "2006") and (0, 2006) reported that no published value
        # precedes them; (3, 2006.0) was filled before MyeSeries refused it
        with pytest.raises(ValueError, match=rf"target {re.escape(repr(target))}: {what}"):
            impute_random_walk(load_sample("income"), [(3, 2006), target])


class TestRendering:
    @pytest.mark.parametrize(
        "x,dec,text",
        [
            (41327.5, 0, "41328"),
            (17370.5, 0, "17371"),
            (-0.5, 0, "-1"),
            (2.5, 0, "3"),
            (-2.5, 0, "-3"),
            (37.345, 2, "37.35"),
            (37.7, 2, "37.70"),
            (0.0, 0, "0"),
            (19331.3333, 0, "19331"),
            (-0.58973, 2, "-0.59"),
        ],
    )
    def test_render_value(self, x, dec, text):
        assert render_value(x, dec) == text

    @pytest.mark.parametrize(
        "x,dec,text",
        [
            (1e28, 0, "1" + "0" * 28),
            (1.7e308, 2, "17" + "0" * 307 + ".00"),
            (-9.5e40, 0, "-95" + "0" * 39),
        ],
    )
    def test_render_value_past_28_digits(self, x, dec, text):
        # more digits than the default decimal context holds
        assert render_value(x, dec) == text

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, x):
        # inf raised decimal.InvalidOperation and nan rendered as "NaN"
        with pytest.raises(DomainError, match=f"cannot render {x!r}: not a finite number"):
            render_value(x)

    @pytest.mark.parametrize("x", [10**400, -F(10**400, 3)], ids=["int", "fraction"])
    def test_exact_value_past_the_float_range_is_named(self, x):
        # float(x) raised a bare OverflowError
        want = f"cannot render {x!r}: it is beyond the float range"
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            render_value(x)

    @pytest.mark.parametrize("x, shown", [
        (10**5000, "<positive int of 16610 bits>"),
        (F(10**5000, 3), "<positive Fraction of 16610 bits over 2 bits>"),
    ], ids=["int", "fraction"])
    def test_exact_value_too_long_for_str_is_named(self, x, shown):
        # repr(x) in the message raised Python's ValueError "Exceeds the
        # limit (4300 digits) for integer string conversion"
        want = f"cannot render {shown}: it is beyond the float range"
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            render_value(x)

    def test_exact_value_is_rounded_once(self):
        assert render_value(F(1, 3), 3) == "0.333"
        assert render_value(10**20) == "100000000000000000000"

    def test_negative_decimals_rejected(self):
        with pytest.raises(ValueError):
            render_value(1.0, -1)

    def test_display_decimals(self):
        assert display_decimals("dollars") == 0
        assert display_decimals("persons") == 0
        assert display_decimals("years") == 2
        assert display_decimals("furlongs") == 2


class TestRegionPair:
    def test_same_variable_ok(self):
        a = tiny_series()
        b = tiny_series({(1, 2003): 16.0})
        RegionPair(a, b)

    def test_mismatched_variable_rejected(self):
        a = tiny_series()
        b = MyeSeries("other", "count", {(1, 2000): 1.0})
        with pytest.raises(DataError, match="different"):
            RegionPair(a, b)

    def test_mismatched_unit_rejected(self):
        a = tiny_series()
        b = MyeSeries("thing", "bushels", {(1, 2000): 1.0})
        with pytest.raises(DataError, match="different"):
            RegionPair(a, b)
