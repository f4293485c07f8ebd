"""Spans around the classifier's entry points, from outside `src/`.

`Tracer.install` wraps the functions named in ENTRY_POINTS, plus
`AlgebraicScalar.inverted`, and rebinds every `arnoldnf` module's
reference to them, so calls made through `from .x import f` names are
traced too.  Small helpers called hundreds of thousands of times per
round (`weight_value`, `from_rational`, `mono_mul`, ...) stay unwrapped:
a span around each would cost more than the helper and move time out of
the layers that call it.  A span's self time is its duration minus the
time of the spans it encloses.  Spans are folded into per-name totals as
they close, so memory stays flat however long the run.

Scalar multiplication is counted, not timed: `scalars.tower_mul` counts
`AlgebraicScalar` products where an operand lives over a tower of
height at least one.
"""

import sys
import time
from collections import defaultdict

ENTRY_POINTS = {
    "cli": ["main", "run_classify", "result_payload"],
    "classify": ["classify"],
    "poly": ["parse_poly", "substitute", "mul_trunc"],
    "localalg": ["milnor_number", "layer_decompose", "linear_solve"],
    "newton": [
        "newton_polygon",
        "face_jet",
        "face_nondegenerate",
        "repeated_factor",
        "two_face_grading",
        "face_decompose",
        "face_compose",
        "quadratic_roots",
        "cubic_root",
        "rational_roots",
        "uni_yun",
        "uni_gcd",
        "uni_divmod",
    ],
    "transform": [
        "split_germ",
        "apply_linear",
        "straighten_jet",
        "clear_level",
        "graded_ladder",
        "absorb_above",
        "rescale_to_unit",
        "kill_face_middle",
        "even_quartic_form",
        "normalize_double_core",
    ],
    "scalars": ["adjoin_root", "approximate", "scalar_payload"],
}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.tower_mul = 0
        self.tower_degree_max = 1
        self._stack = []

    def snapshot(self):
        """Totals so far, for per-operation deltas."""
        return dict(self.self_s), dict(self.calls), self.tower_mul

    def _wrap(self, name, fn, after=None):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def span(*args, **kwargs):
            enclosed = [0.0]
            stack.append(enclosed)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - enclosed[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def _note_degree(self, degree):
        if degree > self.tower_degree_max:
            self.tower_degree_max = degree

    def install(self, package="arnoldnf"):
        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == package or n.startswith(package + ".")
        ]
        wrapped = {}
        for short, names in ENTRY_POINTS.items():
            module = sys.modules[f"{package}.{short}"]
            for name in names:
                after = None
                if (short, name) == ("scalars", "adjoin_root"):
                    after = lambda args, result: self._note_degree(result[0].degree)
                fn = getattr(module, name)
                wrapped[fn] = self._wrap(f"{short}.{name}", fn, after)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if callable(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])

        scalar = sys.modules[package + ".scalars"].AlgebraicScalar
        scalar.inverted = self._wrap(
            "scalars.inverted",
            scalar.inverted,
            lambda args, result: self._note_degree(args[0].tower.degree),
        )
        multiply = scalar.__mul__

        def counted(a, b):
            if a.tower.levels or (type(b) is scalar and b.tower.levels):
                self.tower_mul += 1
            return multiply(a, b)

        scalar.__mul__ = scalar.__rmul__ = counted
