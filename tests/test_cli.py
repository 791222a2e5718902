"""Tests for the command-line interface and its output formats."""

import contextlib
import decimal
import errno
import hashlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sternseq import cli, count_kbit, fib, stern_a
from sternseq import closedform, core, verify
from sternseq.budget import MAX_BITS_ENV_VAR
from sternseq.cli import EXIT_BUDGET, EXIT_INTERRUPTED, EXIT_OK, EXIT_USAGE, FORMATS, main
from sternseq.records import records_scan, shifted_listing
from sternseq.tables import FIRST_RECORDS, SMALL_BITLENGTH_RECORDS


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse OEIS b-file lines ("n value", comments starting with #)."""
    pairs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        n, value = line.split()
        pairs.append((int(n), int(value)))
    return pairs


class TestParseBfile:
    def test_skips_comments_and_blanks(self):
        text = "# header\n\n0 0\n1 1\n  3 2  \n"
        assert parse_bfile(text) == [(0, 0), (1, 1), (3, 2)]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestValue:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("value", "11", "--convention", "A"), "5"),
            (("value", "0", "--convention", "S"), "1"),
            (("value", "2731", "--method", "matrix"), "233"),
            (("value", "0", "--method", "matrix"), "0"),
            (("value", "0", "--method", "dp"), "0"),
            (("value", "42", "--convention", "S", "--method", "dp"), "13"),
        ],
    )
    def test_examples(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert out == [expected]

    @pytest.mark.parametrize("n", [0, 1, 11, 100, 683, 2**20 + 17])
    @pytest.mark.parametrize("convention", ["A", "S"])
    def test_methods_agree(self, capsys, n, convention):
        results = set()
        for method in ("recurrence", "matrix", "dp"):
            code, out, _ = run(capsys, "value", str(n), "--convention", convention, "--method", method)
            assert code == EXIT_OK
            results.add(out[0])
        assert len(results) == 1

    def test_negative_is_usage_error(self, capsys):
        code, _, err = run(capsys, "value", "--", "-5")
        assert code == 2
        assert "non-negative" in err

    def test_matrix_method_beyond_scan_range(self, capsys):
        # The 64-bit record-setters are far beyond any scan; the matrix
        # method evaluates them directly from the binary expansion.
        *_, (index, value, _, _) = closedform.kbit_rows(64)
        code, out, _ = run(capsys, "value", str(index), "--method", "matrix")
        assert code == EXIT_OK
        assert out == [str(value)] == [str(fib(65))]


class TestRecords:
    def test_bfile_roundtrip(self, capsys):
        code, out, _ = run(capsys, "records", "--max-bits", "8", "--format", "bfile")
        assert code == EXIT_OK
        pairs = parse_bfile("\n".join(out))
        assert pairs[0] == (0, 0)
        assert pairs[: len(FIRST_RECORDS)] == list(FIRST_RECORDS)
        assert len(pairs) == 21
        assert all(a < b for (a, _), (b, _) in zip(pairs, pairs[1:]))
        # Exact round trip against the in-memory listing.
        from sternseq import records_scan

        assert pairs == records_scan(8, "A")

    def test_closed_form_max_bits_matches_scan_except_index_zero(self, capsys):
        _, scan_out, _ = run(capsys, "records", "--max-bits", "14", "--format", "bfile")
        _, closed_out, _ = run(
            capsys, "records", "--max-bits", "14", "--source", "closed-form", "--format", "bfile"
        )
        assert scan_out[0] == "0 0"
        assert closed_out == scan_out[1:]

    def test_closed_form_eleven_bits(self, capsys):
        code, out, _ = run(capsys, "records", "--bits", "11", "--source", "closed-form")
        assert code == EXIT_OK
        assert [line.split()[1] for line in out] == list(SMALL_BITLENGTH_RECORDS[11])

    @pytest.mark.parametrize("fmt", ["plain", "csv", "jsonlines", "bfile"])
    @pytest.mark.parametrize(
        "k, convention",
        [
            pytest.param(k, convention, id=str(k) if convention == "A" else f"{k}-S")
            for convention in ("A", "S")
            for k in (1, 5, 11, 12, 13, 16)
        ],
    )
    def test_scan_and_closed_form_agree_bytewise(self, capsys, fmt, k, convention):
        outputs = []
        for source in ("scan", "closed-form"):
            code, out, _ = run(
                capsys, "records", "--bits", str(k), "--source", source, "--format", fmt,
                "--convention", convention,
            )
            assert code == EXIT_OK
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_jsonlines_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "records",
            "--bits",
            "30",
            "--source",
            "closed-form",
            "--format",
            "jsonlines",
        )
        assert code == EXIT_OK
        assert len(out) == (3 * 30) // 4 - 1 == 21
        docs = [json.loads(line) for line in out]
        for doc in docs:
            assert set(doc) == {"index", "bits", "value", "k", "family"}
            assert isinstance(doc["index"], str) and isinstance(doc["value"], str)
            assert doc["k"] == 30
            assert int(doc["bits"], 2) == int(doc["index"])

    def test_shifted_convention(self, capsys):
        code, out, _ = run(capsys, "records", "--bits", "5", "--convention", "S")
        assert code == EXIT_OK
        assert [line.split()[:3] for line in out] == [
            ["18", "10010", "7"],
            ["20", "10100", "8"],
        ]

    def test_shifted_closed_form_one_bit_is_empty(self, capsys):
        # The 1-bit record index 1 maps to s-index 0, which has no bits.
        code, out, _ = run(
            capsys, "records", "--bits", "1", "--convention", "S", "--source", "closed-form"
        )
        assert code == EXIT_OK
        assert out == []

    def test_family_column_matches_classification(self, capsys):
        code, out, _ = run(capsys, "records", "--bits", "12", "--format", "csv")
        assert code == EXIT_OK
        assert out[0] == "index,bits,value,k,family"
        families = [line.split(",")[4] for line in out[1:]]
        assert families == ["E1", "E1", "E1", "E1", "E2", "E2", "E2", "E3"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "records.txt"
        code, out, _ = run(
            capsys, "records", "--max-bits", "4", "--format", "bfile", "--output", str(target)
        )
        assert code == EXIT_OK
        assert out == []
        assert parse_bfile(target.read_text()) == [(0, 0), (1, 1), (3, 2), (5, 3), (9, 4), (11, 5)]

    def test_budget_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv(MAX_BITS_ENV_VAR, "8")
        code, _, err = run(capsys, "records", "--max-bits", "20")
        assert code == EXIT_BUDGET
        assert "ceiling" in err

    def test_budget_exit_leaves_no_output_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv(MAX_BITS_ENV_VAR, "8")
        target = tmp_path / "records.txt"
        for convention in ("A", "S"):  # shifted_listing, too, reads its source on the call
            argv = ["records", "--max-bits", "20", "--convention", convention, "--output", str(target)]
            code, _, err = run(capsys, *argv)
            assert code == EXIT_BUDGET and "ceiling" in err
            assert not target.exists()

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "records.txt"
        code, out, err = run(capsys, "records", "--max-bits", "4", "--output", str(target))
        assert (code, out) == (EXIT_USAGE, [])
        assert err.splitlines() == [f"error: cannot write {target}: No such file or directory"]

    @pytest.mark.parametrize("convention", ["A", "S"])
    def test_jsonlines_equal_json_dumps(self, convention):
        def read(source, k_values):
            return shifted_listing(source, k_values) if convention == "S" else source(k_values)

        listing = [
            (k, list(rows))
            for source in (
                read(closedform.scan_listing, range(0, 5)),  # index 0, whose bits are "0"
                read(closedform.scan_listing, range(13, 14)),
                read(closedform.kbit_listing, range(1, 15)),  # decimal
            )
            for k, rows in source
        ]
        rows = [row for _, rows in listing for row in rows]
        assert {family is None for _, _, family, _ in rows} == {True, False}
        lines = list(cli.format_records(listing, "jsonlines"))
        assert len(lines) == len(rows)
        for (index, value, family, _), line in zip(rows, lines):
            doc = {
                "index": str(index),
                "bits": format(int(index), "b"),
                "value": str(value),
                "k": int(index).bit_length(),
            }
            if family is not None:
                doc["family"] = family.family_id
            assert line == json.dumps(doc) + "\n"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_format_records_streams(self, fmt):
        # Every line of the first bit length comes out before the second is asked for.
        first = list(cli.format_records([(13, closedform.kbit_rows(13))], fmt))
        assert len(first) == count_kbit(13) + (fmt == "csv")

        def listing():
            yield 13, closedform.kbit_rows(13)
            raise RuntimeError("the second bit length")

        lines = cli.format_records(listing(), fmt)
        assert [next(lines) for _ in first] == first
        with pytest.raises(RuntimeError, match="the second bit length"):
            next(lines)

    def test_requires_a_range_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["records"])
        assert excinfo.value.code == 2


def fstring_lines(columns, sep):
    """The rows of numpy columns as f-string text, in ASCII bytes."""
    rows = zip(*(column.tolist() for column in columns))
    return "".join(sep.join(f"{x}" for x in row) + "\n" for row in rows).encode("ascii")


class TestPlot:
    def test_sixteen_rows(self, capsys):
        code, out, _ = run(capsys, "plot", "--max", "15")
        assert code == EXIT_OK
        assert len(out) == 16
        assert out[11] == "11,5,5"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "plot", "--max", "0")
        assert code == EXIT_OK
        assert out == ["0,0,0"]

    def test_budget_enforced(self, capsys, monkeypatch):
        monkeypatch.setenv(MAX_BITS_ENV_VAR, "12")
        code, _, err = run(capsys, "plot", "--max", str(1 << 12))
        assert code == EXIT_BUDGET
        code, out, _ = run(capsys, "plot", "--max", str((1 << 12) - 1))
        assert code == EXIT_OK
        assert len(out) == 1 << 12

    def test_text_stream_without_buffer(self):
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            assert main(["plot", "--max", "3"]) == EXIT_OK
        assert stream.getvalue() == "0,0,0\n1,1,1\n2,1,1\n3,2,2\n"

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "plot.csv"
        code, out, err = run(capsys, "plot", "--max", "15", "--output", str(target))
        assert (code, out) == (EXIT_USAGE, [])
        assert err.splitlines() == [f"error: cannot write {target}: No such file or directory"]

    def test_running_maximum_to_1200(self, capsys):
        # The last record below 1200 sits at 1195 = 10010101011_2 with
        # value 123 = G(10010101010) (cross-checked against the scan).
        code, out, _ = run(capsys, "plot", "--max", "1200")
        assert code == EXIT_OK
        assert len(out) == 1201
        assert out[-1].split(",")[2] == "123"
        assert out[1195] == "1195,123,123"
        assert all(int(line.split(",")[2]) < 123 for line in out[:1195])


    @pytest.mark.parametrize("block", [cli._PLOT_BLOCK, 3], ids=["whole-window", "blocks-of-3"])
    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("plain", " ")])
    def test_windows_match_per_row_reference(self, capsys, monkeypatch, fmt, sep, block):
        # 1201 rows in windows of 7: the maximum is carried across 171
        # window boundaries, and the last window holds only 4 rows.  In
        # blocks of 3 a window is formatted as 3 + 3 + 1 rows.
        monkeypatch.setattr(core, "_WINDOW", 7)
        monkeypatch.setattr(cli, "_PLOT_BLOCK", block)
        assert main(["plot", "--max", "1200", "--format", fmt]) == EXIT_OK
        expected, top = [], 0
        for n in range(1201):
            top = max(top, stern_a(n))
            expected.append(f"{n}{sep}{stern_a(n)}{sep}{top}\n")
        assert capsys.readouterr().out == "".join(expected)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_peak_memory_hardly_grows_with_max(self):
        # 32 windows of text add less than 4 MiB to the peak of a one-row plot.
        def peak_kib(n_max):
            proc = _spawn(["plot", "--max", str(n_max)], stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            assert proc.returncode == EXIT_OK
            return usage.ru_maxrss

        assert peak_kib(2097151) - peak_kib(0) < 4 * 1024

    def test_window_across_a_power_of_ten(self, capsys):
        # With the default window, [65536, 131072) holds the indices on
        # both sides of 10**5, so the index column grows a digit inside it.
        assert core._WINDOW == 1 << 16
        assert main(["plot", "--max", "100050"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 100051
        top = max(stern_a(n) for n in range(99990))
        expected = []
        for n in range(99990, 100051):
            top = max(top, stern_a(n))
            expected.append(f"{n},{stern_a(n)},{top}")
        assert lines[99990:] == expected

    def test_decimal_lines_match_fstrings(self):
        numbers = [0, 9, 10, 99, 100, 2**63 - 1]
        columns = [np.array(c, np.int64) for c in (numbers, numbers[::-1], [0] * len(numbers))]
        assert cli._decimal_lines(columns, ";") == fstring_lines(columns, ";")
        assert cli._decimal_lines([np.zeros(1, np.int64)], ",") == b"0\n"
        # Unsigned cells, and columns of different widths side by side, as plot writes them.
        small = [0, 9, 10, 99, 100, 2**32 - 1, 2**32 - 1]
        large = [0, 9, 10, 99, 100, 2**32 - 1, 2**64 - 1]
        for columns in (
            [np.array(small, np.uint32), np.array(small[::-1], np.uint32)],
            [np.array(large, np.uint64), np.array(large[::-1], np.uint64)],
            [np.arange(7, dtype=np.int64), np.array(small, np.uint32), np.array(large, np.uint64)],
        ):
            assert cli._decimal_lines(columns, " ") == fstring_lines(columns, " ")
        # Columns that change value in fewer than a quarter of their rows,
        # as plot's running maximum does: one constant, one of three runs.
        for dtype in (np.int64, np.uint32, np.uint64):
            constant = np.full(20, 99, dtype)
            three_runs = np.array([0] * 5 + [9] * 10 + [np.iinfo(dtype).max] * 5, dtype)
            columns = [np.arange(20, dtype=np.int64), constant, three_runs]
            assert cli._decimal_lines(columns, ",") == fstring_lines(columns, ",")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_decimal_lines_property(self, data):
        rows = data.draw(st.integers(1, 300), label="rows")
        columns = []
        for _ in range(data.draw(st.integers(1, 3), label="columns")):
            dtype = data.draw(st.sampled_from([np.uint32, np.uint64, np.int64]))
            top = int(np.iinfo(dtype).max)
            value = st.one_of(st.sampled_from([0, top]), st.integers(0, top))
            if data.draw(st.booleans(), label="non-decreasing with repeats"):
                # Up to four runs, the columns that are formatted run by run.
                distinct = sorted(data.draw(st.lists(value, min_size=1, max_size=4)))
                cuts = data.draw(st.lists(st.integers(0, rows), min_size=len(distinct) - 1,
                                          max_size=len(distinct) - 1))
                lengths = np.diff([0, *sorted(cuts), rows])
                column = np.repeat(np.array(distinct, dtype), lengths)
            else:  # dense at random
                column = data.draw(arrays(dtype, rows, elements=value))
            columns.append(column)
        sep = data.draw(st.sampled_from([",", " "]))
        assert cli._decimal_lines(columns, sep) == fstring_lines(columns, sep)


#: sha256 of outputs taken before plot streamed in windows, jsonlines
#: stopped going through json.dumps, closed-form listings were built in
#: decimal, closed-form rows were made family by family and listings of
#: either source were formatted one family run at a time; the output must
#: stay byte-identical.
PINNED_OUTPUT_SHA256 = {
    "plot --max 200000": "6940b269485e3af37bb2e107dfdd9fdde1dc99f9a36846dbf6e33d378caee6c6",
    "plot --max 200000 --format plain": (
        "b4ae0e3079ad44cf6ee47dbab265c20468349d430fbe4a8a244b456671aa39e0"
    ),
    "records --max-bits 40 --source closed-form --format jsonlines": (
        "4436c4fb1681320b1a4a9a5a762940adddb9168a5a9560084f70465718b72af1"
    ),
    "records --max-bits 40 --source closed-form --format jsonlines --convention S": (
        "9abd5a59823a317999b4967a3ace4142cf595da5ae43a2c7428a912e644fe032"
    ),
    "records --bits 6000 --source closed-form --format bfile": (
        "2b20ad69ee474f229d4dd3bfc131df70ebd77e4ef15087580f3d6fb5851fd4f2"
    ),
    "records --max-bits 200 --source closed-form --format plain --convention A": (
        "5cb9e9ab9f6a4a0bed0e12c7b9c64a3d9f8a0ccff52434217ab33774e76bb641"
    ),
    "records --max-bits 200 --source closed-form --format plain --convention S": (
        "db6c9f07994b9696e1eac18000ad39a2bae50b0ad934ca409ec9febad5adda0b"
    ),
    "records --max-bits 200 --source closed-form --format csv --convention A": (
        "f3c131f8271ca18bceb7bf70106ae186ba7b53ea8d9adacea5bf860b89d9dedf"
    ),
    "records --max-bits 200 --source closed-form --format csv --convention S": (
        "aaa2d0633d5ded9d56275f29fec4b456ec8d1f4c56e1c4d4d0a893feaf3cbd52"
    ),
    "records --max-bits 200 --source closed-form --format jsonlines --convention A": (
        "76aa38e68ddb13c8f48b47b5613eb41328172480bf90a819e480c91a6d7907bd"
    ),
    "records --max-bits 200 --source closed-form --format jsonlines --convention S": (
        "b49320c6893afcb60de8229a6a8ae7b0a798d6fa0f792cbeba5829a85141acfc"
    ),
    "records --max-bits 200 --source closed-form --format bfile --convention A": (
        "a6c707ef31b79777f99b7d16ac85d50ae4aa3ead5d7ec4377b1f27e940137d57"
    ),
    "records --max-bits 200 --source closed-form --format bfile --convention S": (
        "beda37cc6d9d37ec943b8b1960d2a9c9bde502e80368f6c4167c48a596b36104"
    ),
    "records --max-bits 16 --format plain --convention A": (
        "bf730cfa57a019361e40ccf5c2e7f1971221eacd18f1709d5c3521fe87f5f00e"
    ),
    "records --max-bits 16 --format csv --convention A": (
        "50596e5ff5f95837fef2e646425c26edc642b2c1ac5420144670e288c583f59b"
    ),
    "records --max-bits 16 --format jsonlines --convention A": (
        "36df5b37523390f9401445fa73b2ed94090c032c9e8980fb3a46f6c3ea1a32d9"
    ),
    "records --max-bits 16 --format bfile --convention A": (
        "8e53b655de49b24e8585d7befd47b156b4046f80ea4ff5bebbb433b38ac78771"
    ),
    "records --max-bits 16 --format plain --convention S": (
        "9c6b871924fc41c066ae7bfa988fa0c6c55a4528bbe9d550e97b8c6e72fae7f8"
    ),
    "records --max-bits 16 --format csv --convention S": (
        "41c62206c6201bb1e2f26de911331d35fe11e8d690393bab70ed6567c8f0e369"
    ),
    "records --max-bits 16 --format jsonlines --convention S": (
        "f1b30a4d206bcf89b884947a3c8e3d491911ecb1ca98b7efdf2f3607d82499ee"
    ),
    "records --max-bits 16 --format bfile --convention S": (
        "626608d8be8fcf15e543cb03bb4b5d043493964b6bc625ebc748df8a83409d3a"
    ),
    "records --bits 13 --format csv": (
        "5fc79a149e36655119df1d818fa839c0841fea2b11684bda48db1f105389508e"
    ),
}


@pytest.mark.parametrize("command", PINNED_OUTPUT_SHA256)
def test_output_is_byte_identical(capsys, command):
    assert main(command.split()) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()
    assert digest == PINNED_OUTPUT_SHA256[command]


def test_scalar_commands_do_not_import_numpy():
    script = (
        "import sys, sternseq.cli\n"
        "assert 'numpy' not in sys.modules, 'imported by sternseq.cli'\n"
        "assert 'decimal' not in sys.modules, 'decimal imported by sternseq.cli'\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses imported by sternseq.cli'\n"
        "sternseq.cli.main(['value', '11'])\n"
        "assert 'decimal' not in sys.modules, 'decimal imported by value'\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses imported by value'\n"
        "sternseq.cli.main(['records', '--bits', '40', '--source', 'closed-form'])\n"
        "assert 'numpy' not in sys.modules, 'imported by a scalar command'\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses imported by records'\n"
    )
    result = _run_child(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "5"


class TestTable:
    def test_table_one(self, capsys):
        code, out, _ = run(capsys, "table", "1")
        assert code == EXIT_OK
        values = [int(line.split()[1]) for line in out]
        assert values == [0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4]
        assert [int(line.split()[0]) for line in out] == list(range(16))

    def test_table_two(self, capsys):
        code, out, _ = run(capsys, "table", "2")
        assert code == EXIT_OK
        rows = [tuple(map(int, line.split())) for line in out]
        assert rows == [(i, v, a) for i, (v, a) in enumerate(FIRST_RECORDS)]

    def test_table_three(self, capsys):
        code, out, _ = run(capsys, "table", "3")
        assert code == EXIT_OK
        rows = [line.split() for line in out]
        expected = [
            (k, bits)
            for k in range(1, 12)
            for bits in SMALL_BITLENGTH_RECORDS[k]
        ]
        assert [(int(k), bits) for k, bits, _ in rows] == expected
        assert all(int(bits, 2) == int(index) for _, bits, index in rows)

    def test_table_three_checks_its_one_scan_first(self, capsys, monkeypatch):
        monkeypatch.setenv(MAX_BITS_ENV_VAR, "8")
        code, out, err = run(capsys, "table", "3")
        assert (code, out) == (EXIT_BUDGET, [])
        assert err.splitlines() == [
            "error: scan of all indices below 2**11 needs indices up to 11 bits, exceeding the "
            f"ceiling of 8 bits (override with {MAX_BITS_ENV_VAR})"
        ]

    @pytest.mark.parametrize(
        "argv, misses",
        [(["table", "3"], 1), (["verify", "--k-range", "1..11", "--suites", "tables"], 2)],
    )
    def test_scans_per_command(self, capsys, argv, misses):
        # One scan for the per-bit-length table; verify also scans for the first records.
        from sternseq import records

        records._records_scan_cached.cache_clear()
        assert run(capsys, *argv)[0] == EXIT_OK
        assert records._records_scan_cached.cache_info().misses == misses


class TestVerify:
    def test_all_suites_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--k-range", "1..14")
        assert code == EXIT_OK
        assert out == [
            "tables      PASS  checked=74",
            "identities  PASS  checked=10056",
            "substrings  PASS  checked=27",
            "  note: index 72: allowed-exception-1001000",
            "extremal    PASS  checked=846",
            "crossval    PASS  checked=14",
        ]

    def test_extremal_suite_follows_k_range(self, capsys):
        checked = {}
        for k_range in ("12..24", "12..66"):
            code, out, _ = run(capsys, "verify", "--k-range", k_range, "--suites", "extremal")
            assert code == EXIT_OK
            assert len(out) == 1 and out[0].startswith("extremal    PASS  checked=")
            checked[k_range] = int(out[0].rpartition("=")[2])
        assert checked["12..24"] == 846  # the 34-digit floor, as for 1..14
        assert checked["12..66"] > checked["12..24"]

    def test_tables_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--k-range", "1..11", "--suites", "tables")
        assert code == EXIT_OK
        assert out[0].startswith("tables") and "PASS" in out[0]

    def test_crossval_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--k-range", "12..14", "--suites", "crossval")
        assert code == EXIT_OK
        assert "PASS" in out[0]

    def test_identity_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suites", "identities")
        assert code == EXIT_OK
        assert "PASS" in out[0]

    def test_substrings_reports_known_exception(self, capsys):
        code, out, _ = run(capsys, "verify", "--k-range", "1..12", "--suites", "substrings")
        assert code == EXIT_OK
        assert any("1001000" in line for line in out)

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--k-range", "five")
        assert code == 2
        assert "k-range" in err

    def test_bad_suite_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--suites", "vibes")
        assert code == 2
        assert "vibes" in err

    @pytest.mark.parametrize(
        "suites, unknown", [("", "['']"), ("tables,", "['']"), (",", "['', '']")]
    )
    def test_empty_suite_name_is_usage_error(self, capsys, suites, unknown):
        code, out, err = run(capsys, "verify", "--k-range", "1..4", "--suites", suites)
        assert (code, out) == (EXIT_USAGE, [])
        pick = "tables,identities,substrings,extremal,crossval"
        assert err.splitlines() == [f"error: unknown suites {unknown}; pick from {pick}"]

    @pytest.mark.parametrize("suites", ["tables,tables", "crossval,tables,crossval"])
    def test_repeated_suite_is_usage_error(self, capsys, suites):
        code, out, err = run(capsys, "verify", "--k-range", "1..4", "--suites", suites)
        assert (code, out) == (EXIT_USAGE, [])
        assert err.splitlines() == [f"error: --suites names a suite more than once: {suites!r}"]

    def test_budget_exit(self, capsys, monkeypatch):
        monkeypatch.setenv(MAX_BITS_ENV_VAR, "10")
        code, _, err = run(capsys, "verify", "--k-range", "1..12", "--suites", "crossval")
        assert code == EXIT_BUDGET

    def test_ceiling_checked_before_any_suite(self, monkeypatch):
        monkeypatch.delenv(MAX_BITS_ENV_VAR, raising=False)
        argv = ["verify", "--k-range", "1..30"]
        proc = _spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (EXIT_BUDGET, b"")
        assert err.decode().splitlines() == [
            "error: scan of all indices below 2**30 needs indices up to 30 bits, exceeding the "
            f"ceiling of 24 bits (override with {MAX_BITS_ENV_VAR})"
        ]

    def test_ceiling_covers_the_tables_scan(self, monkeypatch):
        # tables scans below 2**8 whatever the range, so this run needs 8 bits.
        monkeypatch.setenv(MAX_BITS_ENV_VAR, "5")
        argv = ["verify", "--k-range", "1..5", "--suites", "identities,tables"]
        proc = _spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (EXIT_BUDGET, b"")
        assert err.decode().splitlines() == [
            "error: scan of all indices below 2**8 needs indices up to 8 bits, exceeding the "
            f"ceiling of 5 bits (override with {MAX_BITS_ENV_VAR})"
        ]

    def test_a_later_suites_scan_past_the_ceiling_prints_nothing(self, capsys, monkeypatch):
        # The ceiling is checked by the scan itself, whichever suite makes it.
        monkeypatch.delenv(MAX_BITS_ENV_VAR, raising=False)
        monkeypatch.setattr(verify, "_identities", lambda: records_scan(30))
        argv = ["verify", "--k-range", "1..4", "--suites", "tables,identities"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_BUDGET, [])
        assert err.splitlines() == [
            "error: scan of all indices below 2**30 needs indices up to 30 bits, exceeding the "
            f"ceiling of 24 bits (override with {MAX_BITS_ENV_VAR})"
        ]

    @pytest.mark.parametrize(
        "k_range, ceiling, code",
        [("1..11", "11", EXIT_OK), ("1..11", "10", EXIT_BUDGET), ("12..30", "8", EXIT_OK)],
    )
    def test_tables_ceiling_is_its_largest_scan(self, capsys, monkeypatch, k_range, ceiling, code):
        # Below 2**min(hi, 11) for the per-bit-length table, and only when lo <= 11.
        monkeypatch.setenv(MAX_BITS_ENV_VAR, ceiling)
        assert run(capsys, "verify", "--k-range", k_range, "--suites", "tables")[0] == code

    def test_suites_without_scan_ignore_the_ceiling(self, capsys):
        code, out, _ = run(capsys, "verify", "--k-range", "1..30", "--suites", "tables,identities")
        assert code == EXIT_OK
        assert [line.split()[:2] for line in out] == [["tables", "PASS"], ["identities", "PASS"]]

    def test_failure_exit_code(self, capsys, monkeypatch):
        # Corrupt the reference data to confirm failures surface as exit 1.
        monkeypatch.setattr("sternseq.verify.INITIAL_VALUES", (9,) * 16)
        code, out, _ = run(capsys, "verify", "--k-range", "1..4", "--suites", "tables")
        assert code == 1
        assert any("FAIL" in line for line in out)

    def test_crossval_failure_lines(self, capsys, monkeypatch):
        # A closed form that loses its smallest 13-bit entry surfaces as exit 1.
        rows = closedform.kbit_rows
        (first, *_), (second, *_) = itertools.islice(rows(13), 2)
        monkeypatch.setattr(
            closedform, "kbit_rows", lambda k: itertools.islice(rows(k), k == 13, None)
        )
        code, out, _ = run(capsys, "verify", "--k-range", "12..13", "--suites", "crossval")
        assert code == 1
        assert out[:3] == [
            "crossval    FAIL  checked=2",
            "  FAIL: 13-bit record-setters: 9 by closed form, 10 by scan (at 4096)",
            f"  FAIL: closed form gives index {second} (at {first})",
        ]


@pytest.mark.parametrize(
    "raw, message",
    [("abc", "must be an integer, got 'abc'"), ("0", "must be >= 1, got 0")],
)
@pytest.mark.parametrize("argv", [["--help"], ["records", "--max-bits", "4"]])
def test_malformed_ceiling_is_usage_error(capsys, monkeypatch, raw, message, argv):
    monkeypatch.setenv(MAX_BITS_ENV_VAR, raw)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, [])
    assert err.splitlines() == [f"error: {MAX_BITS_ENV_VAR} {message}"]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-to-str limit"
)
class TestBeyondIntStrLimit:
    """The 14,300-bit row ends in the E3 record-setter, whose index has 4,305 decimal digits."""

    #: E3 at n = 7150: index (2**(2n+1) + 1) / 3, value F(2n+1), bits (10)^(n-1) 11.
    E3_BITS = "10" * 7149 + "11"

    @pytest.fixture(scope="class")
    def e3_row(self):
        # Decimal(int) converts exactly, without going through decimal text.
        index, value = Decimal((2**14301 + 1) // 3), Decimal(fib(14301))
        return index, value, closedform._FAMILIES["E3"], None

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_format_records_restores_limit(self, e3_row, fmt):
        # A decimal row is written in every format under the default limit.
        limit = sys.get_int_max_str_digits()
        text = "".join(cli.format_records([(14300, [e3_row])], fmt))
        digits = str(e3_row[0])
        assert sys.get_int_max_str_digits() == limit
        assert len(digits) == 4305 and digits in text
        assert str(e3_row[1]) in text
        if fmt != "bfile":
            assert self.E3_BITS in text
        # Outside input is still parsed under the default guard.
        with pytest.raises(ValueError):
            parse_bfile(f"{digits} 1")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_records_command_exits_zero(self, capsys, monkeypatch, e3_row, fmt):
        index, value, _, _ = e3_row
        if fmt != "bfile":
            # Each of the 10,724 lines would also carry 14,300 bits: write the last row only.
            last_row = (14300, iter([e3_row]))
            monkeypatch.setattr(cli, "kbit_listing", lambda ks: iter([last_row]))
        limit = sys.get_int_max_str_digits()
        code, out, err = run(
            capsys, "records", "--bits", "14300", "--source", "closed-form", "--format", fmt
        )
        assert (code, err) == (EXIT_OK, "")
        assert sys.get_int_max_str_digits() == limit
        if fmt != "bfile":
            assert len(out) == (2 if fmt == "csv" else 1)
            for text in (str(index), str(value), self.E3_BITS):
                assert text in out[-1]
            return
        assert len(out) == count_kbit(14300) == 10724
        for line in (out[0], out[-1]):
            index, value = (int(Decimal(number)) for number in line.split())
            assert index.bit_length() == 14300
            assert stern_a(index) == value
        assert value == fib(14301)
        with pytest.raises(ValueError):
            parse_bfile(out[-1])


@pytest.mark.parametrize("convention", ["A", "S"])
def test_decimal_rows_equal_kbit_rows(convention):
    shift = 1 if convention == "S" else 0
    for k in [*range(1, 201), 511, 512, 999, 1000]:
        rows = [(kk, *row) for kk, rows in closedform.kbit_listing(range(k, k + 1)) for row in rows]
        expected = list(closedform.kbit_rows(k))
        assert rows == [(k, *row) for row in expected]
        assert all(type(n) is Decimal for _, index, value, *_ in rows for n in (index, value))
        # Under "S" each decimal index moves down by one exactly.
        if convention == "S":  # "A" index 1 is s-index 0
            listing = shifted_listing(closedform.kbit_listing, range(k if k > 1 else 0, k + 1))
        else:
            listing = closedform.kbit_listing(range(k, k + 1))
        lines = cli.format_records(listing, "bfile")
        assert list(lines) == [f"{index - shift} {value}\n" for index, value, _, _ in expected]


def test_records_leaves_the_decimal_context_unchanged(capsys):
    context = decimal.getcontext()
    settings = (context.prec, context.Emax, dict(context.traps), dict(context.flags))
    assert main(["records", "--max-bits", "40", "--source", "closed-form"]) == EXIT_OK
    assert decimal.getcontext() is context
    assert (context.prec, context.Emax, dict(context.traps), dict(context.flags)) == settings


def _child_env():
    """This session's environment for a fresh interpreter, with no ``OPENBLAS_NUM_THREADS``.

    In-process ``main`` calls earlier in the session have set that variable.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


def _run_child(script):
    """``script`` run to its end in a fresh interpreter, its output captured as text."""
    argv = [sys.executable, "-c", script]
    return subprocess.run(argv, capture_output=True, text=True, env=_child_env(), check=False)


def _spawn(argv, **kwargs):
    """The command line in a fresh interpreter, as the console script runs it."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)  # standard output is buffered, as a user runs it
    script = "import sys; from sternseq.cli import main; sys.exit(main())"
    return subprocess.Popen([sys.executable, "-c", script, *argv], env=env, **kwargs)


class TestOpenBlasThreads:
    def test_main_asks_for_one_thread_when_unset(self, capsys, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert main(["value", "11"]) == EXIT_OK
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_main_keeps_the_callers_setting(self, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert main(["value", "11"]) == EXIT_OK
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"

    def test_import_leaves_the_variable_unset(self):
        script = "import os, sternseq, sternseq.cli; assert 'OPENBLAS_NUM_THREADS' not in os.environ"
        result = _run_child(script)
        assert result.returncode == 0, result.stderr

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_plot_runs_on_one_thread(self):
        script = (
            "import os; from sternseq.cli import main\n"
            "main(['plot', '--max', '3'])\n"
            "print(len(os.listdir('/proc/self/task')))\n"
        )
        result = _run_child(script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["0,0,0", "1,1,1", "2,1,1", "3,2,2", "1"]


def _quiet_after_close(proc):
    """Exit code and standard error of ``proc`` once its reader has closed the pipe."""
    proc.stdout.close()  # long before the output ends
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err


class TestOutputErrors:
    def test_plot_into_head_one(self):  # plot --max 1000000 | head -1
        proc = _spawn(["plot", "--max", "1000000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"0,0,0\n"
        assert _quiet_after_close(proc) == (EXIT_OK, b"")

    def test_closed_form_records_into_head_ten_bytes(self):  # records ... | head -c 10
        argv = ["records", "--bits", "2000", "--source", "closed-form", "--format", "bfile"]
        proc = _spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(10) == str(next(closedform.kbit_rows(2000))[0])[:10].encode()
        assert _quiet_after_close(proc) == (EXIT_OK, b"")

    @pytest.mark.parametrize(
        "argv",
        [["plot", "--max", "1000000"], ["records", "--bits", "2000", "--source", "closed-form"]],
        ids=["plot", "closed-form-records"],
    )
    def test_interrupt_is_one_line(self, argv):  # Ctrl-C
        proc = _spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(1)  # running, and soon blocked on the full pipe
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_INTERRUPTED
        assert err.decode().splitlines() == ["error: interrupted"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize(
        "argv, target",
        [
            (["records", "--bits", "600", "--source", "closed-form", "--output"], "/dev/full"),
            (["plot", "--max", "100000", "--output"], "/dev/full"),
            (["records", "--max-bits", "12", "--source", "closed-form"], "standard output"),
            (["value", "11"], "standard output"),
        ],
        ids=["records-output", "plot-output", "records-stdout", "value-stdout"],
    )
    def test_write_error_is_one_line(self, argv, target):
        if target != "standard output":
            argv = [*argv, target]
        with open("/dev/full", "w") as full:
            proc = _spawn(argv, stdout=full, stderr=subprocess.PIPE)
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_USAGE
        assert err.decode().splitlines() == [
            f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}"
        ]
