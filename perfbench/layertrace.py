"""Per-layer tracing of wittcycle, installed from outside the program.

Every public function of each layer module (and lru_cache wrapper such as
_tables.field_tables) is replaced by a timing wrapper, in its own module
and in every wittcycle module that copied it with `from ... import`, so
calls between modules pass through the wrappers too.  A wrapper records
calls, inclusive seconds (outermost call only, so recursion is not counted
twice) and self seconds (its duration minus that of wrapped calls it made).
"""

import functools
import importlib
import sys
import time

LAYERS = ("padic", "_tables", "jacobi", "group_algebra", "principal_series",
          "weights", "constants", "cli")


class Stat:
    __slots__ = ("calls", "s", "self_s", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.extra = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []
        self.tables = {}
        self.originals = {}

    def _wrap(self, fn, stat, on_result):
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.active += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                stat.active -= 1
                if not stat.active:
                    stat.s += dt
                stat.calls += 1
            if on_result is not None:
                stat.extra += on_result(args, out)
            return out

        return wrapper

    def install(self):
        """Wrap the public callables of every layer and patch all copies."""
        mods = {name: importlib.import_module("wittcycle." + name) for name in LAYERS}
        hooks = {
            "group_algebra.ga_multiply": lambda a, out: len(a[0]) * len(a[1]),
            "principal_series.ps_act": lambda a, out: (1 if isinstance(a[1], tuple) else len(a[1])) * len(a[2]),
            "group_algebra.contract_splus": lambda a, out: int(out.params.N > a[1].N),
            "principal_series.exchange_constant": lambda a, out: int(out[2].N > a[2].N),
            "_tables.field_tables": self._note_tables,
        }
        replaced = {}
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                key = "%s.%s" % (name, attr)
                stat = self.stats[key] = Stat()
                self.originals[key] = obj
                replaced[id(obj)] = self._wrap(obj, stat, hooks.get(key))
        for mod in [m for n, m in sys.modules.items() if n == "wittcycle" or n.startswith("wittcycle.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

    def _note_tables(self, args, out):
        self.tables[id(out)] = out
        return 0

    def metrics(self):
        """Aggregate counts and times by layer, keyed by the benchmark's names."""
        st = self.stats
        out = {}
        for name in LAYERS:
            prefix = name + "."
            out[_layer(name) + ".self_s"] = sum(v.self_s for k, v in st.items() if k.startswith(prefix))
        for key, field in [
            ("_tables.field_tables", "s"), ("_tables.teich_by_code", "s"),
            ("padic.witt_mul", "calls"), ("padic.witt_add", "calls"), ("padic.teichmuller", "calls"),
            ("jacobi.jacobi_sum", "calls"), ("jacobi.jacobi_sum", "s"), ("jacobi.stickelberger_data", "s"),
            ("group_algebra.ga_multiply", "calls"), ("group_algebra.ga_multiply", "s"),
            ("group_algebra.s_operator", "s"), ("group_algebra.contract_splus", "s"),
            ("principal_series.ps_act", "calls"), ("principal_series.ps_act", "s"),
            ("principal_series.exchange_constant", "s"), ("weights.cycles_of", "s"),
            ("constants.breuil_constant", "s"), ("constants.beta_by_bruteforce", "s"),
            ("constants.ctilde_product", "s"), ("cli.run", "s"), ("cli.canonical_json", "s"),
        ]:
            out["%s.%s" % (_layer(key), field)] = getattr(st[key], field)
        out["group_algebra.ga_multiply.term_pairs"] = st["group_algebra.ga_multiply"].extra
        out["principal_series.ps_act.term_pairs"] = st["principal_series.ps_act"].extra
        out["group_algebra.contract_splus.escalations"] = st["group_algebra.contract_splus"].extra
        out["principal_series.exchange_constant.escalations"] = st["principal_series.exchange_constant"].extra
        out["tables.field_tables.builds"] = self.originals["_tables.field_tables"].cache_info().misses
        out["tables.table_mb"] = sum(
            len(arr) * arr.itemsize
            for t in self.tables.values()
            for arr in (t.mul, t.add, t.neg, t.inv, t.dlog, t.exp)
        ) / 2 ** 20
        return out

    def dump(self):
        """Every wrapped function's raw figures, for the trace file."""
        return {k: {"calls": v.calls, "s": v.s, "self_s": v.self_s, "extra": v.extra}
                for k, v in sorted(self.stats.items()) if v.calls}


def _layer(key):
    """Metric names start with a letter, so the _tables layer reads 'tables'."""
    return key[1:] if key.startswith("_") else key
