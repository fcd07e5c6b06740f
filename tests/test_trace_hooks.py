"""The names the benchmark's tracer wraps from outside (`perfbench/tracing.py`):
a refactor that renamed or removed one would blank a per-layer metric
without failing a run, so they are checked here."""

import dataclasses

import splitcut
import splitcut.dominance
import splitcut.encoding
import splitcut.solver


def test_wrapped_functions_exist():
    for owner, name in (
        (splitcut.solver, "build_join_inputs"),
        (splitcut.solver, "build_index"),
        (splitcut.solver, "solve"),
        (splitcut.dominance.DominanceIndex, "batch_count"),
        (splitcut, "solve"),
    ):
        assert callable(getattr(owner, name, None)), name


def test_join_inputs_fields_read_by_the_tracer():
    fields = {f.name for f in dataclasses.fields(splitcut.encoding.JoinInputs)}
    assert {"query", "data", "query_masks", "data_masks"} <= fields
