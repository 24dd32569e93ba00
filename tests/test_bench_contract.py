"""The benchmark's spans (perfbench/spans.py) wrap package functions by
name; a refactor that deletes or renames one breaks `--trace 1` runs.
Check that every traced name still resolves and that installing and
restoring the spans round-trips."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod_name, attr):
    obj = importlib.import_module(f"centext.{mod_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_resolves(spans):
    for mod_name, attr, _, _, patch_in, _ in spans.TARGETS:
        assert callable(_resolve(mod_name, attr)), (mod_name, attr)
        for holder in patch_in or ():
            importlib.import_module(f"centext.{holder}")


def test_install_and_restore_round_trip(spans):
    """Each target is wrapped while installed (a function traced only
    where other modules call it must still be bound in one of them), and
    everything is back afterwards."""
    before = {(m, a): _resolve(m, a) for m, a, *_ in spans.TARGETS}
    restore = spans.install(spans.Recorder())
    try:
        for mod_name, attr, _, _, patch_in, _ in spans.TARGETS:
            orig = before[(mod_name, attr)]
            if patch_in:
                holders = [importlib.import_module(f"centext.{m}") for m in patch_in]
                bound = [getattr(h, attr, None) for h in holders]
                assert any(getattr(fn, "__wrapped__", None) is orig for fn in bound), attr
            else:
                assert _resolve(mod_name, attr).__wrapped__ is orig, attr
    finally:
        restore()
    assert all(_resolve(*key) is fn for key, fn in before.items())


def test_kernel_basis_span_reads_its_shape(spans):
    import centext

    f = centext.RATIONALS
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        centext.kernel_basis([(f.one, f.one, f.zero)], 3, f)
    finally:
        restore()
    assert recorder.counters["linalg.kernel_basis.rows"] == 1
    assert recorder.counters["linalg.kernel_basis.cols"] == 3
    assert recorder.counters["linalg.kernel_basis.rank"] == 1
