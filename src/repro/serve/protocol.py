"""The serve wire protocol: framed requests over a byte stream.

One frame = one message, in either direction::

    magic  b"RPSV"
    u16    version (1)
    u32    header_json_length
    header JSON (utf-8)
    u64    body_length
    body   bytes (verbatim)

Request headers carry ``op`` plus op-specific fields; the body is the
raw input for ``parse`` and empty otherwise.  Response headers carry
``status`` (``ok``/``rejected``/``timeout``/``error``) plus outcome
fields; an ``ok`` parse response body is the table in the Feather-style
framing of :mod:`repro.columnar.serialize` (``write_feather``), a
``status`` response body is the service status dict as JSON.

Parse options travel as a flat JSON dict (:func:`options_to_wire` /
:func:`options_from_wire`): every :class:`~repro.dfa.dialects.Dialect`
field and every :class:`~repro.core.options.ParseOptions` field, one key
each, with an optional schema — either ``{"columns": N}`` (N string
columns) or ``{"fields": [{"name": ..., "dtype": ..., "nullable": ...,
"default": ..., "decimal_scale": ...}, ...]}``.  The codec is lossless
and rejects unknown keys.  Options backed by a custom DFA object cannot
travel by wire; use the in-process client for those.

Readers enforce limits before allocating: a header over
``MAX_HEADER_BYTES`` or a body over the reader's ``max_body`` raises
:class:`~repro.errors.ProtocolError`, so a malformed or hostile peer
cannot balloon the server.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from enum import Enum

from repro.columnar.schema import DataType, Field, Schema
from repro.core.options import ColumnCountPolicy, ParseOptions, TaggingMode
from repro.dfa.dialects import Dialect
from repro.errors import ProtocolError, ServeError

__all__ = [
    "MAGIC",
    "VERSION",
    "MAX_HEADER_BYTES",
    "write_frame",
    "read_frame",
    "options_to_wire",
    "options_from_wire",
]

MAGIC = b"RPSV"
VERSION = 1

#: Headers are small JSON dicts; anything bigger is a broken peer.
MAX_HEADER_BYTES = 1 * 1024 * 1024

#: Default body ceiling for readers that do not pass their own.
DEFAULT_MAX_BODY_BYTES = 1 * 1024 * 1024 * 1024

_PREFIX = struct.Struct("<HI")   # version, header length
_BODY_LEN = struct.Struct("<Q")


# -- framing -----------------------------------------------------------------

def write_frame(stream, header: dict, body: bytes = b"") -> None:
    """Write one frame to a file-like ``stream`` (and flush it)."""
    header_json = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_json) > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"frame header of {len(header_json)} bytes exceeds "
            f"{MAX_HEADER_BYTES}")
    stream.write(MAGIC)
    stream.write(_PREFIX.pack(VERSION, len(header_json)))
    stream.write(header_json)
    stream.write(_BODY_LEN.pack(len(body)))
    if body:
        stream.write(body)
    stream.flush()


def _read_exact(stream, count: int, what: str) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({what}: expected "
                f"{count} bytes, missing {remaining})")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream, max_body: int = DEFAULT_MAX_BODY_BYTES
               ) -> tuple[dict, bytes]:
    """Read one frame; returns ``(header, body)``.

    Raises :class:`~repro.errors.ProtocolError` on bad magic, version
    mismatch, truncation, malformed header JSON, or a body length over
    ``max_body`` — checked *before* the body is read, so an oversized
    announcement costs nothing.
    """
    magic = _read_exact(stream, len(MAGIC), "magic")
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    version, header_len = _PREFIX.unpack(
        _read_exact(stream, _PREFIX.size, "prefix"))
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"frame header of {header_len} bytes exceeds "
            f"{MAX_HEADER_BYTES}")
    try:
        header = json.loads(
            _read_exact(stream, header_len, "header").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed frame header: {error}") from None
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    body_len, = _BODY_LEN.unpack(
        _read_exact(stream, _BODY_LEN.size, "body length"))
    if body_len > max_body:
        raise ProtocolError(
            f"frame body of {body_len} bytes exceeds the reader's "
            f"limit of {max_body}")
    body = _read_exact(stream, body_len, "body") if body_len else b""
    return header, body


# -- options on the wire -----------------------------------------------------

def _optional(decode):
    return lambda value: None if value is None else decode(value)


def _ints(cast):
    return lambda value: cast(int(item) for item in value)


def _byte(value: str) -> bytes:
    return value.encode("latin-1")


#: Decoders of the Dialect fields, which travel flattened into the
#: options dict; encoding is generic (see ``_encode``).
_DIALECT_DECODERS = {
    "delimiter": _byte,
    "record_delimiter": _byte,
    "quote": _optional(_byte),
    "doubled_quote": bool,
    "escape": _optional(_byte),
    "comment": _optional(_byte),
    "strip_carriage_return": bool,
}

#: Decoders of the ParseOptions fields besides ``dialect``, ``dfa``
#: (which cannot travel) and ``schema``.
_OPTION_DECODERS = {
    "chunk_size": int,
    "kernel_stride": _optional(int),
    "kernel_table_budget": int,
    "minimize_dfa": bool,
    "tagging_mode": TaggingMode,
    "inline_terminator": int,
    "column_count_policy": ColumnCountPolicy,
    "strict": bool,
    "skip_rows": _ints(frozenset),
    "skip_records": _ints(frozenset),
    "select_columns": _optional(_ints(tuple)),
    "infer_types": bool,
    "null_literals": lambda value: tuple(str(item) for item in value),
    "block_threshold": int,
    "device_threshold": int,
    "plan": _optional(str),
}

_FIELD_KEYS = frozenset(f.name for f in dataclasses.fields(Field))


def _encode(value):
    """A JSON-ready form of one option value (bytes as latin-1 text)."""
    if isinstance(value, bytes):
        return value.decode("latin-1")
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _reject_unknown(spec: dict, known, what: str) -> None:
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ProtocolError(f"unknown {what} {unknown[0]!r}")


def _field_to_wire(field: Field) -> dict:
    if not isinstance(field.default, (type(None), bool, int, float, str)):
        raise ServeError(
            f"field {field.name!r} has a default of type "
            f"{type(field.default).__name__}, which cannot travel by wire")
    return {f.name: _encode(getattr(field, f.name))
            for f in dataclasses.fields(Field)}


def _schema_to_wire(schema: Schema | None):
    if schema is None:
        return None
    return {"fields": [_field_to_wire(f) for f in schema]}


def _schema_from_wire(spec) -> Schema | None:
    if spec is None:
        return None
    if "columns" in spec:
        return Schema.all_strings(int(spec["columns"]))
    fields = []
    for field in spec["fields"]:
        _reject_unknown(field, _FIELD_KEYS, "schema field attribute")
        fields.append(Field(**{**field, "dtype": DataType(field["dtype"])}))
    return Schema(fields)


def options_to_wire(options: ParseOptions) -> dict:
    """Encode ``options`` as the JSON dict the protocol carries.

    Lossless: :func:`options_from_wire` rebuilds options equal to
    ``options``.  Raises :class:`~repro.errors.ServeError` for what
    cannot travel — a custom DFA, a non-JSON field default, or an
    option this codec does not know.
    """
    if options.dfa is not None:
        raise ServeError(
            "options backed by a custom DFA cannot travel by wire; "
            "use the in-process Client")
    spec = {name: _encode(getattr(options.dialect, name))
            for name in _DIALECT_DECODERS}
    for f in dataclasses.fields(ParseOptions):
        if f.name in ("dialect", "dfa"):
            continue
        if f.name == "schema":
            spec["schema"] = _schema_to_wire(options.schema)
        elif f.name in _OPTION_DECODERS:
            spec[f.name] = _encode(getattr(options, f.name))
        else:
            raise ServeError(f"option {f.name!r} has no wire encoding")
    return spec


def options_from_wire(spec: dict | None) -> ParseOptions | None:
    """Decode a wire options dict (``None`` passes through).

    Absent keys take the :class:`ParseOptions` / :class:`Dialect`
    defaults; an unknown key raises :class:`~repro.errors.ProtocolError`
    naming it, so an option the server does not understand is never
    silently dropped.
    """
    if spec is None:
        return None
    _reject_unknown(spec, {*_DIALECT_DECODERS, *_OPTION_DECODERS, "schema"},
                    "option")
    try:
        dialect = Dialect(**{name: decode(spec[name])
                             for name, decode in _DIALECT_DECODERS.items()
                             if name in spec})
        kwargs = {name: decode(spec[name])
                  for name, decode in _OPTION_DECODERS.items()
                  if name in spec}
        return ParseOptions(dialect=dialect,
                            schema=_schema_from_wire(spec.get("schema")),
                            **kwargs)
    except (KeyError, ValueError, TypeError, AttributeError) as error:
        raise ProtocolError(f"malformed options: {error}") from None
