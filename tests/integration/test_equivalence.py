"""The library's central invariant: ParPaRaw ≡ sequential reference.

For any input, any chunk size, either tagger (production or the paper's
chunked formulation) — the massively parallel pipeline must produce exactly the output of the sequential FSM
parser.  A third-party oracle (Python's ``csv`` module) cross-checks both
on inputs where the semantics are comparable.
"""

import csv as csv_module

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ColumnCountPolicy,
    DataType,
    Dialect,
    Field,
    ParPaRawParser,
    ParseOptions,
    Schema,
)
from repro.baselines import SequentialParser, stdlib_csv_rows
from repro.workloads import CsvGenerator, generate_clf, generate_elf
from repro.dfa.logformats import common_log_format_dfa, \
    extended_log_format_dfa
from tests.conftest import TRICKY_INPUTS
from tests.oracles import PartitionStrategy, TaggingImpl, serial_executor

NO_CR = Dialect(strip_carriage_return=False)


def assert_equivalent(data: bytes, options: ParseOptions, executor=None):
    parallel = ParPaRawParser(options, executor=executor).parse(data) \
        .table.to_pylist()
    sequential = SequentialParser(options).parse(data).to_pylist()
    assert parallel == sequential, data


class TestTrickyCorpus:
    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 31])
    def test_all_tricky_inputs(self, chunk_size):
        for data in TRICKY_INPUTS:
            assert_equivalent(data, ParseOptions(dialect=NO_CR,
                                                 chunk_size=chunk_size))

    @pytest.mark.parametrize("impl", list(TaggingImpl))
    def test_both_impls(self, impl):
        """The production path, and the paper's chunked tagger feeding
        the radix partition, both equal the sequential parser."""
        partition = PartitionStrategy.RADIX \
            if impl is TaggingImpl.CHUNKED else PartitionStrategy.FIELD_RUN
        for data in TRICKY_INPUTS:
            assert_equivalent(data, ParseOptions(dialect=NO_CR,
                                                 chunk_size=4),
                              serial_executor(impl, partition))

    def test_reject_policy(self):
        for data in TRICKY_INPUTS:
            options = ParseOptions(
                dialect=NO_CR, schema=Schema.all_strings(3),
                column_count_policy=ColumnCountPolicy.REJECT)
            assert_equivalent(data, options)


class TestPropertyEquivalence:
    @given(st.text(alphabet=st.sampled_from(list('ab",\n')), max_size=150),
           st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_random_csvish(self, text, chunk_size):
        assert_equivalent(text.encode(),
                          ParseOptions(dialect=NO_CR,
                                       chunk_size=chunk_size))

    @given(st.binary(max_size=120), st.integers(1, 17))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes(self, data, chunk_size):
        # Even arbitrary binary garbage must parse identically (mostly
        # into rejected/invalid states, but identically).
        data = data.replace(b"\r", b"")  # quote-free CR semantics aside
        assert_equivalent(data, ParseOptions(dialect=NO_CR,
                                             chunk_size=chunk_size))

    @given(st.text(alphabet=st.sampled_from(list('ab",\n#')), max_size=150),
           st.integers(1, 23))
    @settings(max_examples=120, deadline=None)
    def test_comment_dialect(self, text, chunk_size):
        dialect = Dialect(comment=b"#", strip_carriage_return=False)
        assert_equivalent(text.encode(),
                          ParseOptions(dialect=dialect,
                                       chunk_size=chunk_size))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_generated_corpora(self, seed):
        data = CsvGenerator(dialect=NO_CR, seed=seed,
                            quote_probability=0.4,
                            embedded_delim_probability=0.5,
                            empty_probability=0.2,
                            numeric_columns=(1, 2)).generate(25)
        schema = Schema([Field("a", DataType.STRING),
                         Field("b", DataType.FLOAT64),
                         Field("c", DataType.INT64),
                         Field("d", DataType.STRING)])
        assert_equivalent(data, ParseOptions(dialect=NO_CR, schema=schema))


class TestAgainstStdlibCsv:
    """Third-party oracle, on inputs where the semantics align
    (no blank lines — csv yields [] there — and NULL folded to '')."""

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_rows_match(self, seed):
        data = CsvGenerator(dialect=NO_CR, seed=seed,
                            quote_probability=0.5,
                            embedded_delim_probability=0.5,
                            empty_probability=0.0).generate(20)
        ours = ParPaRawParser(ParseOptions(dialect=NO_CR)).parse(data)
        ours_rows = [["" if v is None else v for v in row]
                     for row in ours.table.rows()]
        oracle = stdlib_csv_rows(data, NO_CR)
        assert ours_rows == oracle

    def test_paper_example(self, paper_example):
        ours = ParPaRawParser(ParseOptions(dialect=NO_CR)) \
            .parse(paper_example)
        rows = [list(r) for r in ours.table.rows()]
        assert rows == stdlib_csv_rows(paper_example, NO_CR)


class TestLogFormats:
    @pytest.mark.parametrize("chunk_size", [3, 31])
    def test_clf_parallel_equals_sequential(self, chunk_size):
        data = generate_clf(120)
        options = ParseOptions(dfa=common_log_format_dfa(),
                               chunk_size=chunk_size)
        assert_equivalent(data, options)

    @pytest.mark.parametrize("chunk_size", [3, 31])
    def test_elf_with_directives(self, chunk_size):
        data = generate_elf(150, directive_every=20)
        options = ParseOptions(dfa=extended_log_format_dfa(),
                               chunk_size=chunk_size)
        result = ParPaRawParser(options).parse(data)
        assert result.num_rows == 150  # directives excluded
        assert_equivalent(data, options)

    def test_clf_typed(self):
        data = generate_clf(50)
        schema = Schema([
            Field("host", DataType.STRING),
            Field("ident", DataType.STRING),
            Field("user", DataType.STRING),
            Field("time", DataType.STRING),
            Field("request", DataType.STRING),
            Field("status", DataType.INT16),
            Field("bytes", DataType.INT64),
        ])
        options = ParseOptions(dfa=common_log_format_dfa(), schema=schema)
        result = ParPaRawParser(options).parse(data)
        statuses = set(result.table.column("status").to_list())
        assert statuses <= {200, 301, 404, 500}
        assert result.total_rejected_fields == 0
