"""The benchmark harness reaches catscatter through names; they must exist.

``bench/tracing.py`` wraps and counts functions by name, and
``bench/workloads.py`` calls them as module attributes.  A name deleted
from the library, or a keyword dropped from a signature the benchmark
calls, would only surface in a benchmark run, so these tests read both
files (without changing them) and check every such name and call against
the library.  The last one runs a pass of the CLI workload and its checks,
so a flag that the workload passes and a subcommand does not take fails
here too.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
MODULES = ("analysis", "cli", "errors", "quadrature", "scattering", "states", "targets")


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _constant(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in the module")


def _module(short):
    return importlib.import_module(f"catscatter.{short}")


def _strings(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [s for elt in node.elts for s in _strings(elt)]
    return []


def test_tracer_wraps_existing_functions():
    tree = _tree("tracing.py")
    for short in _constant(tree, "CALLER_MODULES"):
        _module(short)
    for short, names in _constant(tree, "OWN_PUBLIC").items():
        for name in names:
            assert callable(getattr(_module(short), name, None)), f"{short}.{name}"
    for name in _constant(tree, "DNU_ROUTES"):
        assert callable(getattr(_module("scattering"), name, None)), f"scattering.{name}"


def test_span_names_the_tracer_counts_exist():
    # Every literal compared with a span's name (``name == "..."``,
    # ``s.name in (...)``) must name a function of some catscatter module.
    names = set()
    for node in ast.walk(_tree("tracing.py")):
        if isinstance(node, ast.Compare):
            left = node.left
            if (isinstance(left, ast.Name) and left.id == "name") or (
                    isinstance(left, ast.Attribute) and left.attr == "name"):
                for comp in node.comparators:
                    names.update(_strings(comp))
    assert {"integrate_1d", "integrate_nd", "wigner_values"} <= names
    for name in sorted(names):
        assert any(callable(getattr(_module(m), name, None)) for m in MODULES), name


def _aliases(tree):
    """``import catscatter.X as Y`` -> {Y: X}."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("catscatter.") and alias.asname:
                    out[alias.asname] = alias.name.split(".", 1)[1]
    return out


def _imported(tree):
    """``from catscatter.X import Name`` -> {Name: X}."""
    return {alias.name: node.module.split(".", 1)[1] for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("catscatter.")
            for alias in node.names}


def test_workloads_use_existing_attributes():
    tree = _tree("workloads.py")
    aliases = _aliases(tree)
    assert {"an", "cli", "sc", "st"} <= set(aliases)
    used = {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    used |= {(short, name) for name, short in _imported(tree).items()}
    assert ("analysis", "azimuthal_asymmetry") in used
    assert ("quadrature", "DEFAULT_SPEC_4D") in used
    for short, attr in sorted(used):
        assert hasattr(_module(short), attr), f"{short}.{attr}"


def _callee(func, aliases, imported):
    """The catscatter callable that a call's ``func`` node names, or None:
    ``an.sweep``, an imported ``AsymmetrySpec``, or ``BeamState.odd_cat``."""
    if isinstance(func, ast.Name) and func.id in imported:
        return getattr(_module(imported[func.id]), func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner = func.value.id
        if owner in aliases:
            return getattr(_module(aliases[owner]), func.attr)
        if owner in imported:
            return getattr(getattr(_module(imported[owner]), owner), func.attr)
    return None


def test_workload_calls_bind_to_the_library_signatures():
    # Each call's keywords and positional count must bind; a call that
    # unpacks ``*args`` is checked by its keywords alone.
    tree = _tree("workloads.py")
    aliases, imported = _aliases(tree), _imported(tree)
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = _callee(node.func, aliases, imported)
        if fn is None:
            continue
        n_pos = 0 if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
        keywords = [k.arg for k in node.keywords if k.arg is not None]
        name = ast.unparse(node.func)
        try:
            inspect.signature(fn).bind_partial(*[None] * n_pos, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"bench/workloads.py:{node.lineno} {name}: {exc}") from None
        bound.update(f"{name}({k}=)" for k in keywords)
    assert {"an.sweep(workers=)", "an.peak_theta(profile=)", "an.peak_theta(method=)",
            "st.negativity_scan(mode=)", "BeamState.odd_cat(phi_r0=)",
            "AsymmetrySpec(phi_grid_n=)"} <= bound


def test_a_cli_roundtrip_pass_passes_every_check(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", wl)
    spec.loader.exec_module(wl)
    jobs, _ = wl.build("cli_roundtrip", 771, str(tmp_path))
    outs = [job.collect(job.run()) for job in jobs]
    for i, (job, out) in enumerate(zip(jobs, outs)):
        verdict = wl.Verdict()
        job.verify(out, verdict, outs)
        assert verdict.failures == [], f"job {i} ({job.kind})"
