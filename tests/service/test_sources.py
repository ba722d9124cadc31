"""Tests for telemetry tick sources and the wire format."""

import asyncio
import math

import pytest

from repro.service import FileTailSource, GeneratorSource
from repro.service.sources import TelemetrySource, parse_tick_line


def drain(source, limit=None):
    """Collect a source's ticks synchronously (bounded by ``limit``)."""

    async def _collect():
        out = []
        async for value in source.ticks():
            out.append(value)
            if limit is not None and len(out) >= limit:
                break
        return out

    return asyncio.run(_collect())


class TestParseTickLine:
    def test_bare_number(self):
        assert parse_tick_line("123.5\n") == 123.5

    def test_json_value_record(self):
        assert parse_tick_line('{"value": 42, "host": "db-1"}') == 42.0

    def test_blank_and_comment_lines_are_skipped(self):
        assert parse_tick_line("") is None
        assert parse_tick_line("   \n") is None
        assert parse_tick_line("# header\n") is None

    @pytest.mark.parametrize(
        "line", ["not-a-number", '{"broken": }', '{"no_value": 1}']
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ValueError):
            parse_tick_line(line)

    @pytest.mark.parametrize(
        "value, expected",
        [
            ("null", ValueError),
            ("true", ValueError),
            ("false", ValueError),
            ('"12.5"', ValueError),
            ("[1]", ValueError),
            ("12.5", 12.5),
            ("7", 7.0),
            # non-finite numbers are the runtime's invalid_policy to judge
            ("NaN", math.nan),
            ("-Infinity", -math.inf),
        ],
    )
    def test_a_record_value_must_be_a_json_number(self, value, expected):
        line = f'{{"value": {value}}}'
        if expected is ValueError:
            with pytest.raises(ValueError, match="malformed telemetry line"):
                parse_tick_line(line)
        else:
            assert parse_tick_line(line) == pytest.approx(expected, nan_ok=True)


class TestGeneratorSource:
    def test_yields_all_values_and_counts_position(self):
        source = GeneratorSource([1.0, 2.0, 3.0])
        assert drain(source) == [1.0, 2.0, 3.0]
        assert source.position == 3

    def test_seek_skips_processed_ticks(self):
        source = GeneratorSource([1.0, 2.0, 3.0, 4.0])
        source.seek(2)
        assert drain(source) == [3.0, 4.0]
        assert source.position == 4

    def test_seek_out_of_bounds_raises(self):
        source = GeneratorSource([1.0])
        with pytest.raises(ValueError):
            source.seek(5)

    def test_satisfies_the_source_protocol(self):
        assert isinstance(GeneratorSource([]), TelemetrySource)


class TestFileTailSource:
    def test_reads_mixed_format_file(self, tmp_path):
        path = tmp_path / "ticks.jsonl"
        path.write_text('# comment\n100\n\n{"value": 200.5}\n300\n')
        source = FileTailSource(path)
        assert drain(source) == [100.0, 200.5, 300.0]
        assert source.position == 3

    def test_seek_counts_ticks_not_lines(self, tmp_path):
        path = tmp_path / "ticks.jsonl"
        path.write_text("# comment\n100\n200\n300\n")
        source = FileTailSource(path)
        source.seek(2)
        assert drain(source) == [300.0]
        assert source.position == 3

    def test_satisfies_the_source_protocol(self, tmp_path):
        path = tmp_path / "t"
        path.write_text("")
        assert isinstance(FileTailSource(path), TelemetrySource)

