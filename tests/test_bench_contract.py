"""The library names that perfbench/tracer.py rebinds still exist.

The tracer wraps library functions by name at run time: the spans of its
``SPANS`` table, the scalar methods of ``SCALAR_METHODS``, ``MinorCache.spec``
and ``.uv`` (counting a lookup that grew the instance's ``_memo`` as a
miss, so every quasiminor must enter the memo through one of them), and
``verify.with_retries`` and ``verify.run_suite``.  A rename would
break only traced benchmark runs, so these tests read the tracer's tables
from its source, without importing or changing it, and resolve each name on
the package the way the tracer does.
"""

import ast
import importlib
import random
from pathlib import Path

from qbruhat import verify
from qbruhat.matrix import Matrix
from qbruhat.quasidet import MinorCache
from qbruhat.sampling import matrix as sample_matrix, with_retries
from qbruhat.scalars import RationalQuaternion
from qbruhat.weyl import Permutation

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_table(name):
    """The literal value assigned to `name` at the top level of tracer.py."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracer.py assigns no {name}")


def test_every_traced_span_resolves_on_the_package():
    spans = tracer_table("SPANS")
    assert spans
    for name, (module, path) in spans.items():
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(getattr(owner, attr, None)), name
        if isinstance(owner, type):
            # a traced method is replaced on the class that defines it
            assert attr in vars(owner), name


def test_scalar_methods_and_cache_lookups_are_defined_where_the_tracer_replaces_them():
    for methods in tracer_table("SCALAR_METHODS").values():
        for method in methods:
            assert method in vars(RationalQuaternion), method
    for method in ("spec", "uv"):
        assert method in vars(MinorCache), method
    cache = MinorCache(Matrix([[2, 1], [1, 1]]))
    before = len(cache._memo)
    s1 = Permutation((2, 1))
    cache.uv(s1, s1, 1)
    assert len(cache._memo) > before  # a miss grows the memo


def test_grid_checks_fill_the_cache_through_spec_or_uv(monkeypatch):
    # a grid that filled its cache around spec and uv would trace 0 lookups
    caches, lookups, misses = [], [0], [0]
    init = MinorCache.__init__
    monkeypatch.setattr(
        MinorCache, "__init__", lambda self, x: caches.append(self) or init(self, x)
    )
    for method in ("spec", "uv"):

        def counted(cache, *args, original=vars(MinorCache)[method]):
            before = len(cache._memo)
            try:
                return original(cache, *args)
            finally:
                lookups[0] += 1
                misses[0] += len(cache._memo) - before

        monkeypatch.setattr(MinorCache, method, counted)
    rng = random.Random(2)
    for grid in (verify.check_dodgson_grid, verify.check_minors_plucker_grid):
        caches.clear()
        lookups[0] = misses[0] = 0
        with_retries(lambda: grid(sample_matrix(rng, 3, 3)))
        assert misses[0] == sum(len(cache._memo) for cache in caches) > 0
        assert lookups[0] >= misses[0]


def test_suite_harness_names_take_the_tracer_arguments():
    assert "with_retries" in vars(verify) and "run_suite" in vars(verify)
    # the tracer calls with_retries(body, budget) positionally
    assert verify.with_retries(lambda: 7, None) == 7
    assert verify.with_retries(lambda: 7, 1) == 7
    report = verify.run_suite("twist-involution", 2, 1, 0)
    assert report.checks >= 1
