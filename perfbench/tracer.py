"""Per-layer tracing of qbruhat from outside the package.

``Tracer.install`` rebinds the traced public functions at run time: every
``qbruhat`` module namespace that holds a traced function gets a wrapper in
its place, and traced methods are replaced on their class.  ``uninstall``
puts the originals back.  No source file of the package is touched.

Two kinds of wrapper exist:

* spans, one per call of a layer-boundary function.  A span records its
  name, start, end, parent span and op id; spans stay in memory and are
  written out once, at the end.  Self time is the span's duration minus
  the time covered by its child spans, and a child's own bookkeeping
  (including the operand classification of ``matrix.matmul``) is charged
  to the child, so tracer work never lands in a parent's self time;
* counters.  Scalar operations are far too frequent for spans, so
  ``scalars.*`` are aggregate counters: ``scalars.self_ms`` is the time
  inside RationalQuaternion operations and overlaps the self time of
  whichever span was open.  Only the outermost scalar operation counts,
  so ``a.__rmul__`` delegating to ``__mul__`` is one multiplication.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

from config import PER_LAYER

# span name -> (module, attribute path).  The layer is the module.
SPANS = {
    "matrix.matmul": ("qbruhat.matrix", "Matrix.__mul__"),
    "matrix.inverse": ("qbruhat.matrix", "Matrix.inverse"),
    "quasidet.quasideterminant": ("qbruhat.quasidet", "quasideterminant"),
    "gauss.gauss_parts": ("qbruhat.gauss", "gauss_parts"),
    "weyl.representative": ("qbruhat.weyl", "representative"),
    "weyl.subword_perms": ("qbruhat.weyl", "DoubleWord.subword_perms"),
    "cells.classify": ("qbruhat.cells", "classify"),
    "cells.twist_general": ("qbruhat.cells", "twist_general"),
    "cells.in_reduced_cell": ("qbruhat.cells", "in_reduced_cell"),
    "factorize.product_map": ("qbruhat.factorize", "product_map"),
    "factorize.recover_params": ("qbruhat.factorize", "recover_params"),
    "factorize.upper_factorize": ("qbruhat.factorize", "upper_factorize"),
    "factorize.factor_u_w0": ("qbruhat.factorize", "factor_u_w0"),
    "factorize.factor_w0_v": ("qbruhat.factorize", "factor_w0_v"),
    "factorize.verify_double_ratios": ("qbruhat.factorize", "verify_double_ratios"),
    "verify.check_dodgson_grid": ("qbruhat.verify", "check_dodgson_grid"),
    "verify.check_minors_plucker_grid": ("qbruhat.verify", "check_minors_plucker_grid"),
}

# Scalar operations: counter kind -> RationalQuaternion methods.
SCALAR_METHODS = {
    "mul": ("__mul__", "__rmul__"),
    "addsub": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "inv": ("inverse",),
}

# Counts, ratios and bit sizes are deterministic for a seed; times and the
# overhead are not.  Names and units are those of BENCHMARK.json's per_layer.
DETERMINISTIC = tuple(
    name for name, unit in PER_LAYER.items() if unit != "ms" and name != "trace.overhead_frac"
)


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "qbruhat" or name.startswith("qbruhat."))
    ]


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _is_structured(m) -> bool:
    """Diagonal, signed permutation, or an elementary factor, of size 2 or more.

    An elementary factor is the identity outside one block at adjacent
    indices k, k+1 that has the shape of x_i(t) [[1, t], [0, 1]], y_i(t)
    [[1, 0], [t, 1]] or x_{-i}(t) [[1/t, 0], [1, t]]; h_i(t) is diagonal and
    the simple representatives are signed permutations.  A 1x1 operand is a
    single scalar product and counts as dense.  Only comparisons are used,
    never scalar arithmetic, so classifying an operand adds nothing to the
    scalar counters.
    """
    rows = m.to_lists()
    n = len(rows)
    if n < 2 or any(len(row) != n for row in rows):
        return False
    nonzero = [(i, j, a) for i, row in enumerate(rows) for j, a in enumerate(row) if not a == 0]
    if all(i == j for i, j, _ in nonzero):
        return True
    if (
        len(nonzero) == n
        and len({i for i, _, _ in nonzero}) == n
        and len({j for _, j, _ in nonzero}) == n
        and all(a == 1 or a == -1 for _, _, a in nonzero)
    ):
        return True
    off = {(i, j) for i, j, _ in nonzero if i != j}
    if len(off) != 1:
        return False
    (i, j), = off
    k = min(i, j)
    if abs(i - j) != 1 or any(
        not rows[d][d] == 1 for d in range(n) if d not in (k, k + 1)
    ):
        return False
    if i < j or not rows[i][j] == 1:
        # x_i(t), y_i(t): a unit diagonal in the block.
        return rows[k][k] == 1 and rows[k + 1][k + 1] == 1
    # x_{-i}(t): 1 below the diagonal, an invertible pair on it.
    return not rows[k][k] == 0 and not rows[k + 1][k + 1] == 0


class Tracer:
    def __init__(self):
        self.op = -1
        self.spans = []
        self.span_calls = {name: 0 for name in SPANS}
        self.span_self_ns = {name: 0 for name in SPANS}
        self.not_generic = 0
        self.matmul_structured = 0
        self.scalar_calls = {kind: 0 for kind in SCALAR_METHODS}
        self.scalar_ns = [0]
        self.mul_bits = [0]
        self.cache_lookups = 0
        self.cache_misses = 0
        self.attempts = 0
        self.trials = 0
        self.checks = 0
        self.zero_inverse_escapes = 0
        self._stack = []
        self._next_id = 0
        self._saved = []

    # -- installing -----------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _rebind_everywhere(self, original, wrapper, cls=None):
        """Swap `original` for `wrapper` on `cls` or in every package namespace."""
        owners = [cls] if cls is not None else _package_modules()
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._replace(owner, attr, wrapper)

    def install(self):
        from qbruhat.errors import NotGeneric
        from qbruhat.quasidet import MinorCache
        from qbruhat.scalars import RationalQuaternion
        import qbruhat.verify as verify

        for name, (module, path) in SPANS.items():
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            before = self._classify_operands if name == "matrix.matmul" else None
            counts_ng = name == "quasidet.quasideterminant"
            wrapper = self._span(name, original, before, NotGeneric if counts_ng else None)
            self._rebind_everywhere(original, wrapper, owner if isinstance(owner, type) else None)

        depth = [0]
        for kind, methods in SCALAR_METHODS.items():
            for method in methods:
                original = RationalQuaternion.__dict__[method]
                self._replace(
                    RationalQuaternion, method, self._scalar(kind, original, depth)
                )

        cache_depth = [0]
        for method in ("spec", "uv"):
            self._replace(
                MinorCache, method, self._cache(MinorCache.__dict__[method], cache_depth)
            )

        # Suite-harness attempts only: the samplers' own retries stay uncounted.
        self._replace(verify, "with_retries", self._retries(verify.with_retries))
        original_run_suite = verify.run_suite
        self._rebind_everywhere(original_run_suite, self._suite(original_run_suite))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _classify_operands(self, args):
        if len(args) == 2 and all(hasattr(a, "to_lists") for a in args):
            if _is_structured(args[0]) or _is_structured(args[1]):
                self.matmul_structured += 1

    def _span(self, name, fn, before, counted_error):
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        calls = self.span_calls
        self_ns = self.span_self_ns
        tracer = self

        def wrapper(*args, **kwargs):
            enter = clock()
            if before is not None:
                before(args)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if counted_error is not None and isinstance(exc, counted_error):
                    tracer.not_generic += 1
                raise
            finally:
                end = clock()
                stack.pop()
                calls[name] += 1
                self_ns[name] += end - start - frame[1]
                spans.append((span_id, name, start, end, parent, tracer.op))
                if stack:
                    stack[-1][1] += clock() - enter

        wrapper.__wrapped__ = fn
        return wrapper

    def _scalar(self, kind, fn, depth):
        clock = time.perf_counter_ns
        calls = self.scalar_calls
        scalar_ns = self.scalar_ns
        mul_bits = self.mul_bits
        is_mul = kind == "mul"

        def wrapper(*args):
            if depth[0]:
                return fn(*args)
            depth[0] = 1
            start = clock()
            try:
                result = fn(*args)
            finally:
                scalar_ns[0] += clock() - start
                depth[0] = 0
            if result is NotImplemented:
                return result
            calls[kind] += 1
            if is_mul:
                mul_bits[0] += max(
                    max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in result.components()
                )
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _cache(self, fn, depth):
        """Count lookups; a lookup that grew the cache's memo was a miss."""
        tracer = self

        def wrapper(cache, *args):
            if depth[0]:
                return fn(cache, *args)
            depth[0] = 1
            before = len(cache._memo)
            try:
                return fn(cache, *args)
            finally:
                depth[0] = 0
                tracer.cache_lookups += 1
                if len(cache._memo) > before:
                    tracer.cache_misses += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _retries(self, fn):
        tracer = self

        def wrapper(body, budget=None):
            def counted():
                tracer.attempts += 1
                return body()

            tracer.trials += 1
            return fn(counted, budget)

        wrapper.__wrapped__ = fn
        return wrapper

    def _suite(self, fn):
        from qbruhat.errors import ZeroInverse

        tracer = self

        def wrapper(*args, **kwargs):
            try:
                report = fn(*args, **kwargs)
            except ZeroInverse:
                tracer.zero_inverse_escapes += 1
                raise
            tracer.checks += report.checks
            return report

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict:
        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "scalars.mul.calls": self.scalar_calls["mul"],
            "scalars.addsub.calls": self.scalar_calls["addsub"],
            "scalars.inv.calls": self.scalar_calls["inv"],
            "scalars.self_ms": self.scalar_ns[0] / 1e6,
            "scalars.mul.mean_bits": ratio(self.mul_bits[0], self.scalar_calls["mul"]),
            "matrix.matmul.structured_frac": ratio(
                self.matmul_structured, self.span_calls["matrix.matmul"]
            ),
            "quasidet.cache.lookups": self.cache_lookups,
            "quasidet.cache.hit_ratio": ratio(
                self.cache_lookups - self.cache_misses, self.cache_lookups
            ),
            "quasidet.not_generic": self.not_generic,
            "verify.attempts": self.attempts,
            "verify.useful_ratio": ratio(self.trials, self.attempts),
            "verify.checks": self.checks,
            "verify.zero_inverse_escapes": self.zero_inverse_escapes,
            "trace.overhead_frac": overhead_frac,
        }
        for name in SPANS:
            out[f"{name}.calls"] = self.span_calls[name]
            out[f"{name}.self_ms"] = self.span_self_ns[name] / 1e6
        missing = [name for name in PER_LAYER if name not in out]
        if missing:
            raise KeyError(f"BENCHMARK.json names per-layer metrics the tracer lacks: {missing}")
        return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}

    def write_spans(self, path):
        """Write every span as one JSON object per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                )
                fh.write("\n")
