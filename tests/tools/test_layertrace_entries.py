"""The benchmark's layer tracer must still find every entry it wraps.

``perfbench/layertrace.py`` wraps the public entry points of each layer at
class level and refuses to install when one of them is no longer a
function defined on its class.  Inlining work into a caller may lower the
per-layer call counts ``--trace 1`` reports, but it must never remove or
rename a traced entry; this test installs the tracer against ``src/`` and
checks every entry is wrapped and then restored.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "layertrace", REPO_ROOT / "perfbench" / "layertrace.py"
)
layertrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layertrace)


def _entries():
    for _layer, entries in layertrace.LAYER_ENTRIES:
        for module_name, class_name, methods in entries:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in layertrace._entry_functions(cls, methods):
                yield cls, method


def test_miss_path_entries_are_traced():
    traced = {(cls.__name__, method) for cls, method in _entries()}
    for entry in [
        ("Socket", "access_l1_missed"),
        ("SetAssociativeCache", "insert"),
        ("Interconnect", "send"),
        ("BaselineProtocol", "read_miss_functional"),
        ("BaselineProtocol", "write_miss_functional"),
        ("BaselineProtocol", "llc_eviction_functional"),
        ("C3DProtocol", "read_miss_functional"),
        ("C3DProtocol", "write_miss_functional"),
        ("C3DProtocol", "llc_eviction_functional"),
    ]:
        assert entry in traced


def test_tracer_installs_and_uninstalls():
    originals = {(cls, method): vars(cls).get(method) for cls, method in _entries()}
    for (cls, method), function in originals.items():
        assert inspect.isfunction(function), f"{cls.__name__}.{method}"
    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        for (cls, method), function in originals.items():
            assert vars(cls)[method].__wrapped__ is function
    finally:
        tracer.uninstall()
    for (cls, method), function in originals.items():
        assert vars(cls)[method] is function
