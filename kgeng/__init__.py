"""kgeng — a Ray-Data-native knowledge-graph construction engine.

From-scratch engine generalizing the parse-and-load semantics of
``arangodb/graph-importer`` (see SURVEY.md) into a full extraction stack:

    read_documents -> detect_mentions -> link -> block (MinHash-LSH)
        -> canonicalize (union-find) -> triples -> materialize

All dataflow is ``ray.data.Dataset`` + ``map_batches`` over zero-copy Arrow
batches; stateful stages (linker, detectors) are actor pools; wide steps are
``groupby`` shuffles with explicit hot-key salting.  Nothing here calls
``ray.init`` — callers own the Ray session.
"""

__version__ = "0.1.0"

import logging as _logging


class _DropSchemaHashNoise(_logging.Filter):
    """Ray Data's unify_schemas logs 'Failed to hash the schemas (for
    deduplication): unhashable type: dict' once per reduce task whenever
    a block's schema carries pandas metadata (pa.Table.from_pandas keeps
    the b'pandas' key, whose hash raises). It is a benign fallback —
    unify proceeds without the dedup early-exit — but at one line per
    reduce task it buries real warnings in bench/driver logs. Workers
    import this package (stage callables live in kgeng.*), so the filter
    applies cluster-wide."""

    def filter(self, record: _logging.LogRecord) -> bool:  # noqa: A003
        return "Failed to hash the schemas" not in record.getMessage()


_logging.getLogger(
    "ray.data._internal.arrow_ops.transform_pyarrow").addFilter(
    _DropSchemaHashNoise())


class _DropEmptySchemaBundleNoise(_logging.Filter):
    """Ray's streaming executor warns 'Operator produced a RefBundle
    with a different schema ... new schema: .' whenever a sort/groupby
    emits a zero-row, zero-column partition next to full-schema ones —
    routine for bucketed map_groups plans (every iterative plan B here)
    and benign (downstream concat skips empties). Dropped ONLY when the
    new schema is empty; genuine schema drift still surfaces."""

    def filter(self, record: _logging.LogRecord) -> bool:  # noqa: A003
        msg = record.getMessage()
        return not ("RefBundle with a different schema" in msg
                    and "new schema: ." in msg)


_logging.getLogger(
    "ray.data._internal.execution.streaming_executor_state").addFilter(
    _DropEmptySchemaBundleNoise())
