"""Per-layer spans recorded from outside the program.

``install`` replaces each public function of a layer, wherever a module of
the package (or the pass module) has it bound, with a wrapper that records
a span: group, start, end and the index of the enclosing span.  Methods are
wrapped on their class.  Spans live in flat arrays until the pass ends;
``summary`` turns them into self time per group, a span's duration minus
the durations of its child spans.  Functions called once per summation term
or per prime are not wrapped: their time counts in the caller's self time.
"""

from __future__ import annotations

import sys
import time
from array import array

# layer group -> "module:attribute" or "module:Class.attribute" targets
GROUPS = {
    "triangles": [
        "sixj.triangles:triangle_sums", "sixj.triangles:check_admissible",
        "sixj.triangles:is_admissible", "sixj.triangles:classify_parity",
        "sixj.triangles:beta_decompose", "sixj.triangles:rescale",
        "sixj.triangles:SpinSextuple.of", "sixj.triangles:SpinSextuple.scaled",
    ],
    "halfint.parse": [
        "sixj.halfint:HalfInt.parse", "sixj.halfint:parse_halfint",
        "sixj.triangles:SpinSextuple.parse",
    ],
    "symbols": ["sixj.symbols:sixj_exact", "sixj.symbols:sixj_super_exact"],
    "exact.canon": [
        "sixj.exact:ExactSymbol.__post_init__", "sixj.exact:ExactSymbol.from_prime_exponents",
        "sixj.exact:primes_up_to",
    ],
    "exact.to_scaled": ["sixj.exact:ExactSymbol.to_scaled", "sixj.exact:exact_to_scaled"],
    "geometry": [
        "sixj.geometry:tet_from_spins", "sixj.geometry:cayley_menger",
        "sixj.geometry:discriminant_check",
    ],
    "asymptotics": [
        "sixj.asymptotics:asym_for_scaled", "sixj.asymptotics:asym_standard",
        "sixj.asymptotics:asym_alpha", "sixj.asymptotics:asym_beta",
        "sixj.asymptotics:asym_gamma", "sixj.asymptotics:saddle_coeff_a",
        "sixj.asymptotics:saddle_coeff_b", "sixj.asymptotics:saddle_coeff_c",
    ],
    "scan.self": ["sixj.scan:scan", "sixj.scan:k_range"],
    "scan.write": ["sixj.scan:write_csv", "sixj.scan:write_json"],
    "scan.read": ["sixj.scan:read_csv"],
    "scan.fit": ["sixj.scan:envelope_slope", "sixj.scan:local_maxima"],
    "cli": ["sixj.cli:cli_main"],
}
NAMES = list(GROUPS)
_SYMBOLS = NAMES.index("symbols")


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        self.group = array("b")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.coeff_bits = 0
        self._stack = [-1]
        self._undo = []

    def _wrap(self, fn, gid: int):
        group, parent, start, end, stack = self.group, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            i = len(group)
            group.append(gid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if gid == _SYMBOLS:
                c = result.coeff
                tracer.coeff_bits += c.numerator.bit_length() + c.denominator.bit_length()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, extra_modules=()) -> None:
        """Wrap every target of every group whose module is loaded."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "sixj" or name.startswith("sixj.")]
        modules += list(extra_modules)
        for gid, name in enumerate(NAMES):
            for target in GROUPS[name]:
                mod_name, _, attr = target.partition(":")
                if mod_name not in sys.modules:
                    continue
                owner = sys.modules[mod_name]
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    self._wrap_method(getattr(owner, cls_name), meth, gid)
                else:
                    self._wrap_function(getattr(owner, attr), gid, modules)

    def _wrap_function(self, fn, gid, modules) -> None:
        wrapper = self._wrap(fn, gid)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _wrap_method(self, cls, meth: str, gid: int) -> None:
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, gid))
        else:
            new = self._wrap(raw, gid)
        self._undo.append((cls, meth, raw))
        setattr(cls, meth, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self, pass_ns: int) -> dict:
        """Self time and calls per group, time outside every span, call edges."""
        n = len(self.group)
        child_ns = [0] * n
        durations = [self.end[i] - self.start[i] for i in range(n)]
        top_ns = 0
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                top_ns += durations[i]
            else:
                child_ns[p] += durations[i]
        self_ns = dict.fromkeys(NAMES, 0)
        calls = dict.fromkeys(NAMES, 0)
        edges: dict[str, list[int]] = {}
        for i in range(n):
            name = NAMES[self.group[i]]
            self_ns[name] += durations[i] - child_ns[i]
            calls[name] += 1
            p = self.parent[i]
            key = f"{'pass' if p < 0 else NAMES[self.group[p]]}>{name}"
            edge = edges.setdefault(key, [0, 0])
            edge[0] += 1
            edge[1] += durations[i]
        return {
            "self_ns": self_ns,
            "calls": calls,
            "outside_ns": pass_ns - top_ns,
            "spans": n,
            "coeff_bits": self.coeff_bits,
            "edges": edges,
        }
