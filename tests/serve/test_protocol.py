"""The serve wire format: framing limits and the options codec."""

import dataclasses
import io

import pytest

from repro.core.options import ColumnCountPolicy, ParseOptions, TaggingMode
from repro.core.parser import ParPaRawParser
from repro.columnar.schema import DataType, Field, Schema
from repro.dfa import Dialect, rfc4180_dfa
from repro.errors import ProtocolError, ServeError
from repro.serve.protocol import (
    MAGIC,
    MAX_HEADER_BYTES,
    options_from_wire,
    options_to_wire,
    read_frame,
    write_frame,
)


def roundtrip(header, body=b"", max_body=None):
    buffer = io.BytesIO()
    write_frame(buffer, header, body)
    buffer.seek(0)
    if max_body is None:
        return read_frame(buffer)
    return read_frame(buffer, max_body=max_body)


class TestFraming:
    def test_roundtrip(self):
        header, body = roundtrip({"op": "parse", "tenant": "t"}, b"a,b\n")
        assert header == {"op": "parse", "tenant": "t"}
        assert body == b"a,b\n"

    def test_empty_body(self):
        header, body = roundtrip({"op": "ping"})
        assert header["op"] == "ping"
        assert body == b""

    def test_back_to_back_frames(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"n": 1}, b"one")
        write_frame(buffer, {"n": 2}, b"two")
        buffer.seek(0)
        assert read_frame(buffer) == ({"n": 1}, b"one")
        assert read_frame(buffer) == ({"n": 2}, b"two")

    def test_bad_magic(self):
        buffer = io.BytesIO(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ProtocolError, match="magic"):
            read_frame(buffer)

    def test_bad_version(self):
        buffer = io.BytesIO()
        write_frame(buffer, {}, b"")
        raw = bytearray(buffer.getvalue())
        raw[len(MAGIC)] = 99
        with pytest.raises(ProtocolError, match="version"):
            read_frame(io.BytesIO(bytes(raw)))

    def test_truncated_frame(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"op": "parse"}, b"payload")
        truncated = buffer.getvalue()[:-3]
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_frame(io.BytesIO(truncated))

    def test_oversized_body_rejected_before_read(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            roundtrip({"op": "parse"}, b"x" * 100, max_body=10)

    def test_oversized_header_rejected(self):
        with pytest.raises(ProtocolError, match="header"):
            write_frame(io.BytesIO(),
                        {"pad": "y" * (MAX_HEADER_BYTES + 1)})

    def test_non_dict_header_rejected(self):
        buffer = io.BytesIO()
        # Hand-build a frame whose header JSON is a list.
        import json
        import struct
        header_json = json.dumps([1, 2]).encode()
        buffer.write(MAGIC)
        buffer.write(struct.pack("<HI", 1, len(header_json)))
        buffer.write(header_json)
        buffer.write(struct.pack("<Q", 0))
        buffer.seek(0)
        with pytest.raises(ProtocolError, match="JSON object"):
            read_frame(buffer)


class TestOptionsCodec:
    def test_none_passes_through(self):
        assert options_from_wire(None) is None

    def test_default_options_roundtrip(self):
        options = ParseOptions()
        decoded = options_from_wire(options_to_wire(options))
        assert decoded.dialect == options.dialect
        assert decoded.chunk_size == options.chunk_size
        assert decoded.tagging_mode == options.tagging_mode
        assert decoded.column_count_policy == options.column_count_policy
        assert decoded.schema is None

    def test_exotic_options_roundtrip(self):
        options = ParseOptions(
            dialect=Dialect(delimiter=b";", quote=b"'", comment=b"#",
                            strip_carriage_return=False),
            chunk_size=17,
            kernel_stride=2,
            tagging_mode=TaggingMode.DELIMITED,
            column_count_policy=ColumnCountPolicy.STRICT,
            infer_types=True,
            schema=Schema([Field(name="id", dtype=DataType.INT64),
                           Field(name="name", dtype=DataType.STRING)]),
        )
        decoded = options_from_wire(options_to_wire(options))
        assert decoded.dialect == options.dialect
        assert decoded.chunk_size == 17
        assert decoded.kernel_stride == 2
        assert decoded.tagging_mode == TaggingMode.DELIMITED
        assert decoded.column_count_policy == ColumnCountPolicy.STRICT
        assert decoded.infer_types is True
        assert [(f.name, f.dtype) for f in decoded.schema] == \
            [("id", DataType.INT64), ("name", DataType.STRING)]

    def test_columns_shorthand(self):
        decoded = options_from_wire({"schema": {"columns": 3}})
        assert len(list(decoded.schema)) == 3

    def test_custom_dfa_cannot_travel(self):
        options = ParseOptions(dfa=rfc4180_dfa())
        with pytest.raises(ServeError, match="in-process"):
            options_to_wire(options)

    def test_malformed_options_raise_protocol_error(self):
        with pytest.raises(ProtocolError, match="malformed options"):
            options_from_wire({"tagging_mode": "no-such-mode"})
        with pytest.raises(ProtocolError, match="malformed options"):
            options_from_wire({"delimiter": 5})


#: A non-default value for every attribute that travels by wire.  A new
#: ParseOptions, Dialect or Field attribute without an entry here fails
#: the round-trip tests below, so no option is added that cannot travel.
OPTION_SAMPLES = {
    "dialect": Dialect(delimiter=b";", record_delimiter=b"\r", quote=b"'",
                       doubled_quote=False, escape=b"\\", comment=b"#",
                       strip_carriage_return=False),
    "schema": Schema([Field("id", DataType.INT64, nullable=False,
                            default=-1),
                      Field("price", DataType.DECIMAL, default=0.5,
                            decimal_scale=4),
                      Field("name", DataType.STRING, default="?")]),
    "chunk_size": 17,
    "kernel_stride": 2,
    "kernel_table_budget": 1 << 23,
    "minimize_dfa": False,
    "tagging_mode": TaggingMode.INLINE,
    "inline_terminator": 0x1F,
    "column_count_policy": ColumnCountPolicy.REJECT,
    "strict": True,
    "skip_rows": frozenset({0, 3}),
    "skip_records": frozenset({2}),
    "select_columns": (2, 0),
    "infer_types": True,
    "null_literals": ("NA", "null"),
    "block_threshold": 64,
    "device_threshold": 4096,
    "plan": "auto",
}

DIALECT_SAMPLES = {f.name: getattr(OPTION_SAMPLES["dialect"], f.name)
                   for f in dataclasses.fields(Dialect)}

FIELD_SAMPLES = {f.name: getattr(OPTION_SAMPLES["schema"][0], f.name)
                 for f in dataclasses.fields(Field)}


def wire_roundtrip(options: ParseOptions) -> ParseOptions:
    return options_from_wire(options_to_wire(options))


class TestLosslessCodec:
    def test_every_option_has_a_sample(self):
        names = {f.name for f in dataclasses.fields(ParseOptions)}
        assert names - {"dfa"} == set(OPTION_SAMPLES)

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ParseOptions)
                 if f.name != "dfa"])
    def test_each_option_survives(self, name):
        options = ParseOptions(**{name: OPTION_SAMPLES[name]})
        assert getattr(options, name) != \
            getattr(ParseOptions(), name), "sample must not be the default"
        decoded = wire_roundtrip(options)
        assert getattr(decoded, name) == getattr(options, name)
        assert decoded == options

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(Dialect)])
    def test_each_dialect_field_survives(self, name):
        dialect = Dialect(**{name: DIALECT_SAMPLES[name]})
        assert getattr(dialect, name) != getattr(Dialect(), name)
        decoded = wire_roundtrip(ParseOptions(dialect=dialect))
        assert decoded.dialect == dialect

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(Field)])
    def test_each_schema_field_attribute_survives(self, name):
        field = Field(**{"name": "v", "dtype": DataType.DECIMAL,
                         name: FIELD_SAMPLES[name]})
        decoded = wire_roundtrip(ParseOptions(schema=Schema([field])))
        assert decoded.schema[0] == field

    def test_all_options_at_once(self):
        options = ParseOptions(**OPTION_SAMPLES)
        assert wire_roundtrip(options) == options

    def test_unknown_key_is_named(self):
        with pytest.raises(ProtocolError, match="partition_strategy"):
            options_from_wire({"partition_strategy": "radix"})
        with pytest.raises(ProtocolError, match="nullible"):
            options_from_wire({"schema": {"fields": [
                {"name": "a", "dtype": "string", "nullible": False}]}})

    def test_unencodable_default_refused(self):
        options = ParseOptions(schema=Schema(
            [Field("a", DataType.STRING, default=b"bytes")]))
        with pytest.raises(ServeError, match="default"):
            options_to_wire(options)

    def test_decoded_options_parse_like_the_originals(self):
        """Selection, row pruning and NULL literals all travel: the
        decoded options return the rows the originals do."""
        data = b"a,b\nNA,x\n1,2\n"
        options = ParseOptions(select_columns=(1,), skip_rows={0},
                               null_literals=("NA",))
        local = ParPaRawParser(options).parse(data).table
        remote = ParPaRawParser(wire_roundtrip(options)).parse(data).table
        assert local.num_rows == 2
        assert remote.to_pylist() == local.to_pylist()
