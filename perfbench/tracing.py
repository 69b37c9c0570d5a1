"""Outside-in tracing of flagke's layers.

`Tracer` replaces module attributes (and the arithmetic methods of
`rootspace.Weight`) with timing wrappers.  Call sites look these names up at
call time, so calls inside a module and between modules are both caught.
`restore` puts every original back.

Per wrapped name it keeps the call count, the inclusive time and the self
time (inclusive minus the time of wrapped children).  Spans (id, name,
start, end, parent id) are kept in memory for every target except the
high-frequency leaves, up to a cap, and written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

# (module, attribute, metric prefix, keep spans)
TARGETS = (
    ("flagke.rootspace", "inner", "rootspace.inner", False),
    ("flagke.rootspace", "Weight.__add__", "rootspace.Weight.arith", False),
    ("flagke.rootspace", "Weight.__sub__", "rootspace.Weight.arith", False),
    ("flagke.rootspace", "Weight.__neg__", "rootspace.Weight.arith", False),
    ("flagke.rootspace", "Weight.__mul__", "rootspace.Weight.arith", False),
    ("flagke.rootspace", "Weight.__rmul__", "rootspace.Weight.arith", False),
    ("flagke.rootspace", "fundamental_weight", "rootspace.fundamental_weight", False),
    ("flagke.painted", "koszul", "painted.koszul", True),
    ("flagke.painted", "r_m_plus", "painted.r_m_plus", True),
    ("flagke.bundle", "eligible_strings", "bundle.eligible_strings", True),
    ("flagke.bundle", "chi_weight", "bundle.chi_weight", False),
    ("flagke.bundle", "kappa_z0_form", "bundle.kappa_z0_form", True),
    ("flagke.bundle", "kappa_z0_oracle", "bundle.kappa_z0_oracle", True),
    ("flagke.bundle", "kappa", "bundle.kappa", True),
    ("flagke.bundle", "koszul_update_check", "bundle.koszul_update_check", True),
    ("flagke.einstein", "classify", "einstein.classify", True),
    ("flagke.einstein", "ray_extends", "einstein.ray_extends", True),
    ("flagke.einstein", "z0_form", "einstein.z0_form", True),
    ("flagke.census", "enumerate_records", "census.enumerate_records", True),
    ("flagke.census", "write_jsonl", "census.write_jsonl", True),
    ("flagke.cli", "main", "cli.main", True),
    ("flagke.profile", "metric_profile", "profile.metric_profile", True),
    ("flagke.profile", "domain_end", "profile.domain_end", True),
    ("flagke.profile", "t_of_f", "profile.t_of_f", True),
    ("flagke.profile", "f_of_t", "profile.f_of_t", True),
    ("flagke.profile", "ode_residual", "profile.ode_residual", True),
    ("flagke.profile", "f_ddot", "profile.f_ddot", True),
    ("flagke.profile", "quad", "profile.quad", True),
    ("flagke.poly", "eval_exact", "poly.eval_exact", False),
    ("flagke.poly", "mul", "poly.mul", False),
)

# metric prefix -> (module, candidate attributes holding the lru_cache)
CACHES = {
    "rootspace.fundamental_weight": ("flagke.rootspace", ("fundamental_weight",)),
    "bundle.chi_weight": ("flagke.bundle", ("_chi_weight_cached", "chi_weight")),
    "painted.koszul": ("flagke.painted", ("_koszul_cached", "koszul")),
}

MAX_SPANS = 400_000


def _resolve(module: str, path: str):
    """(owner, attribute name) for a dotted attribute path inside a module."""
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # prefix -> [calls, inclusive s, self s]
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.quad_neval = 0
        self.absent: dict[str, str] = {}
        self._stack: list[list] = []  # per open span: [child seconds, span id]
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- install / restore -------------------------------------------------
    def install(self) -> None:
        for module, path, prefix, keep in TARGETS:
            try:
                owner, name = _resolve(module, path)
                original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            except (ImportError, AttributeError, KeyError) as exc:
                self.absent[f"{module}.{path}"] = f"not found: {exc!r}"
                continue
            self.stats.setdefault(prefix, [0, 0.0, 0.0])
            setattr(owner, name, self._wrap(original, prefix, keep))
            self._saved.append((owner, name, original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def installed(self) -> int:
        """Number of wrappers still in place (0 after `restore`)."""
        count = 0
        for module, path, _, _ in TARGETS:
            try:
                owner, name = _resolve(module, path)
                fn = getattr(owner, name)
            except (ImportError, AttributeError):
                continue
            count += getattr(fn, "__perfbench_wrapper__", False)
        return count

    # -- wrappers ----------------------------------------------------------
    def _enter(self):
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        frame = [0.0, self._next_id]
        self._stack.append(frame)
        return frame, parent, time.perf_counter()

    def _exit(self, stats, name, keep, frame, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - start
        stats[0] += 1
        stats[1] += dur
        stats[2] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        if keep:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame[1], name, start, end, parent))
            else:
                self.spans_dropped += 1

    def _wrap(self, fn, prefix, keep):
        stats = self.stats[prefix]
        enter, leave = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            # time each resumption, so the records' work lands in this span
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame, parent, start = enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(stats, prefix, keep, frame, parent, start)
                    yield item
        elif prefix == "profile.quad":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame, parent, start = enter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    leave(stats, prefix, keep, frame, parent, start)
                if isinstance(out, tuple) and len(out) >= 3 and isinstance(out[2], dict):
                    self.quad_neval += out[2].get("neval", 0)
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame, parent, start = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(stats, prefix, keep, frame, parent, start)
        wrapper.__perfbench_wrapper__ = True
        return wrapper

    # -- results -----------------------------------------------------------
    def calls(self, prefix: str) -> int:
        return self.stats.get(prefix, [0])[0]

    def cache_counts(self) -> dict[str, list[int]]:
        """prefix -> [hits, misses] from the lru_cache behind each cached layer."""
        out = {}
        for prefix, (module, names) in CACHES.items():
            mod = importlib.import_module(module)
            for name in names:
                info = getattr(getattr(mod, name, None), "cache_info", None)
                if info is not None:
                    ci = info()
                    out[prefix] = [ci.hits, ci.misses]
                    break
            else:
                self.absent[f"{prefix}.hit_ratio"] = "no lru_cache found"
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "dropped": self.spans_dropped, "spans": self.spans}, fh)
