"""The names bench/spans.py traces must exist in the program it traces.

The tracer replaces module attributes of leakexp.cli and leakexp.leakage by
name and reads some arguments of the wrapped calls by parameter name, so a
rename in the library would otherwise surface only in a traced bench run.
"""
import importlib.util
import inspect
import sys
from pathlib import Path

import leakexp.cli
import leakexp.leakage

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = {"cli": leakexp.cli, "leakage": leakexp.leakage}


def load_spans():
    # dataclasses look their module up in sys.modules while the file runs.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def test_every_traced_attribute_exists():
    for mod_key, attr, _ in spans._TARGETS:
        assert callable(getattr(MODULES[mod_key], attr, None)), f"{mod_key}.{attr}"


def test_every_read_parameter_is_in_the_signature():
    checked = set()
    for mod_key, attr, name in spans._TARGETS:
        if name not in spans._UNITS:
            continue
        params = inspect.signature(getattr(MODULES[mod_key], attr)).parameters
        wanted = [spans._UNITS[name]] + (["kind"] if name == "exponents.curve" else [])
        for param in wanted:
            assert param in params, f"{mod_key}.{attr} has no parameter {param!r}"
        checked.add(name)
    assert checked == set(spans._UNITS)


def test_traced_curve_records_its_kind_and_points(capsys):
    tracer = spans.Tracer()
    tracer.install(MODULES)
    try:
        code = leakexp.cli.main(["exponents", "er-bsc", "--channel", "bsc:0.11", "--steps", "7"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    curves = [s for s in tracer.spans if s.name == "exponents.curve"]
    assert [(s.kind, s.units) for s in curves] == [("er-bsc", 7)]
    assert leakexp.cli.curve is leakexp.exponents.curve
