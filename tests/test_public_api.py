"""The public surface: every exported name resolves, every run setting is
read by the code, and the benchmark's tracer, which wraps package functions
by name from outside, installs on the package and its undo restores the
originals."""
import ast
import importlib
import importlib.util
import pkgutil
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import penalab

SUBMODULES = [importlib.import_module(f"penalab.{m.name}")
              for m in pkgutil.iter_modules(penalab.__path__)]


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    """Every module-level binding of the package and its submodules, and the
    methods the tracer wraps."""
    out = {(m.__name__, k): v for m in [penalab, *SUBMODULES] for k, v in vars(m).items()}
    for cls in (penalab.integrands.Integrand, penalab.integrands.MeasureSpec):
        out.update(((cls.__name__, k), v) for k, v in vars(cls).items())
    return out


def test_every_exported_name_resolves():
    for name in penalab.__all__:
        assert hasattr(penalab, name), name
    for mod in SUBMODULES:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (mod.__name__, name)


# names read only from outside src/: the acceptance suite's envelope rows
# (criterion 9) and the benchmark job's worker override
_READ_OUTSIDE_SRC = {"envelope_rows", "replaced"}


def _names_read_in_src() -> set:
    """Every name loaded, attribute read or name imported in src/penalab,
    except the package's own re-exports: a name that __init__.py only passes
    on is read by no module."""
    read = set()
    for path in Path(penalab.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.alias):
                read.add(n.name)
    return read


def test_every_exported_name_and_member_is_read_by_the_package():
    # an export, method or field that only tests read is a test oracle or
    # dead code: an oracle lives in the test that uses it
    read = _names_read_in_src() | _READ_OUTSIDE_SRC
    unread = []
    for mod in SUBMODULES:
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            members = []
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                members = [k for k in vars(obj) if not k.startswith("_")]
                if is_dataclass(obj):
                    members += [f.name for f in fields(obj)]
            unread += [f"{mod.__name__}.{k}" for k in (name, *members) if k not in read]
    assert unread == []


def test_every_run_setting_is_read_outside_the_config_module():
    # a RunConfig field that no other module reads is an option with one
    # value in use; it belongs in the module that uses it, as a constant
    read = set()
    for path in Path(penalab.__file__).parent.glob("*.py"):
        if path.name != "config.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    assert [f.name for f in fields(penalab.RunConfig) if f.name not in read] == []


def test_experiments_bind_the_layer_originals():
    # the tracer and the benchmark's tests reach these through experiments
    ex, est, smp = penalab.experiments, penalab.estimator, penalab.samplers
    assert ex.run_chunked is est.run_chunked
    assert ex.bm_chunk_pass is est.bm_chunk_pass
    assert ex.substream is smp.substream
    assert ex.sample_W is smp.sample_W


def test_benchmark_tracer_installs_and_undoes():
    tr = _load_tracer()
    before = _bindings()
    tracer = tr.Tracer()
    undo = tr.install(tracer)
    try:
        for modname, attr, _ in tr.TARGETS:
            wrapped = getattr(sys.modules[modname], attr)
            assert wrapped.__wrapped__ is before[modname, attr], (modname, attr)
        for _, clsname, meth, _ in tr.METHODS:
            cls = getattr(penalab.integrands, clsname)
            assert vars(cls)[meth] is not before[clsname, meth]
        # the wrappers accept the package's own call signatures
        est = penalab.estimator
        accs = est.run_chunked(3, 11, est.bm_chunk_pass(
            0.0, 10, 0.01, lambda X: {"end": (X[:, -1], None)}))
        assert accs["end"].n == 3
    finally:
        undo()
    assert tracer.counters["estimator.paths"] == 3
    assert tracer.counters["estimator.bm_steps"] == 30
    assert {"estimator.run_chunked", "estimator.bm_chunk", "samplers.substream"} \
        <= {s[1] for s in tracer.spans}
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
