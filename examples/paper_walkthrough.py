#!/usr/bin/env python
"""The paper's worked example (Figures 3-5), executed live.

Walks the exact input from the paper's figures —

    1941,199.99,"Bookcase"
    1938,19.99,"Frame
    ""Ribba"", black"

— through every pipeline stage, printing the intermediate artefacts the
figures show: per-thread state-transition vectors and recovered start
states (Figure 3), per-chunk record counts and rel/abs column offsets with
their scans (Figure 4), and the partitioned per-column symbol strings with
their indexes (Figure 5).

Run: ``python examples/paper_walkthrough.py``
"""

import numpy as np

from repro import rfc4180_dfa
from repro.core.chunking import chunk_groups
from repro.core.context import compute_transition_vectors, \
    chunk_start_states
from repro.core.offsets import compute_chunk_offsets
from repro.core.partition import partition_by_column
from repro.core.tagging import compute_emissions, expand_symbol_tags, \
    tag_global

DATA = b'1941,199.99,"Bookcase"\n1938,19.99,"Frame\n""Ribba"", black"\n'
CHUNK = 10  # the figures use six ~10-byte chunks


def show(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(1, 60 - len(title)))


def main() -> None:
    dfa = rfc4180_dfa()
    print("input:", DATA)
    print("transition table (paper Table 1):")
    print(dfa.format_transition_table())

    raw = np.frombuffer(DATA, dtype=np.uint8)
    groups, chunking, padded = chunk_groups(raw, dfa, CHUNK)

    show("Figure 3: state-transition vectors per thread")
    vectors = compute_transition_vectors(groups, padded)
    starts = chunk_start_states(vectors, padded)
    names = dfa.state_names
    for c in range(chunking.num_chunks):
        lo, hi = c * CHUNK, min((c + 1) * CHUNK, len(DATA))
        stv = " ".join(f"{names[s]:>3}" for s in vectors[c])
        print(f"thread {c}: {DATA[lo:hi]!r:>16}  stv=[{stv}]  "
              f"start={names[starts[c]]}")

    show("Figure 4: record counts, rel/abs column offsets, scans")
    emissions, final, _ = compute_emissions(groups, starts, padded,
                                            chunking)
    tags = tag_global(emissions, final)
    padded_em = np.full(chunking.num_chunks * CHUNK, 4, dtype=np.uint8)
    padded_em[:len(DATA)] = emissions
    grid = padded_em.reshape(chunking.num_chunks, CHUNK)
    offsets = compute_chunk_offsets(grid == 2, grid == 1)
    for c in range(chunking.num_chunks):
        kind = "abs" if offsets.column_kinds[c] else "rel"
        print(f"thread {c}: records={int(offsets.record_counts[c])} "
              f"column-offset={kind} {int(offsets.column_values[c])}  "
              f"-> entering record={int(offsets.record_offsets[c])}, "
              f"column={int(offsets.entering_column_offsets[c])}")
    # The pipeline keeps one tag per field; the paper's per-symbol tag
    # streams are its expansion.
    symbols = expand_symbol_tags(tags)
    print("\ncolumn-tags:", symbols.column_ids.tolist())
    print("record-tags:", symbols.record_ids.tolist())

    show("Figure 5: partitioning into per-column CSSs + indexes")
    part = partition_by_column(raw, tags.data_mask, symbols.column_ids,
                               symbols.record_ids, num_columns=3)
    print("column offsets:", part.column_offsets.tolist())
    for column in range(3):
        css = part.column_css(column)
        records, offsets, lengths = part.column_fields(column)
        print(f"column {column}: CSS={css.tobytes()!r}")
        print(f"          records={records.tolist()} "
              f"offsets={offsets.tolist()} "
              f"lengths={lengths.tolist()}")

    show("typed result")
    from repro import DataType, Field, ParseOptions, ParPaRawParser, Schema
    schema = Schema([Field("id", DataType.INT64),
                     Field("price", DataType.DECIMAL),
                     Field("name", DataType.STRING)])
    result = ParPaRawParser(ParseOptions(schema=schema,
                                         chunk_size=CHUNK)).parse(DATA)
    for row in result.table.rows():
        print("  ", row)


if __name__ == "__main__":
    main()
