"""One pass of a benchmark workload, in a fresh interpreter.

`run.py` starts this script once per pass, writes the pass spec as JSON to
its stdin and reads one JSON result line from its stdout.  A fresh process
starts every lazy cache cold, as a `flagke` command does.  The result
carries `ready`, the `time.monotonic()` reading right after flagke and its
CLI are imported, and `ready_cal_s`, a calibration kernel run right after,
from which the parent takes the set-up time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

RESIDUAL_LIMIT = 1e-6
T_REL_TOL = 1e-8  # |t_ref(f(t)) - t| <= T_REL_TOL * max(1, t)
MAX_ERRORS = 5
SWEEP_BLOCK = 250  # chi_sweep data per block
CENSUS_BLOCK = 100  # census records per block

# Operations are timed in CPU time of this thread and scaled to a fixed machine
# speed.  On a shared machine the CPU time of the same work changes by a third
# from one minute to the next as other tenants load the host.  So right before
# each block of work and after the last one, a fixed kernel of stdlib
# arithmetic runs (no flagke code, so no change to the program can move it),
# and a block's times are scaled by CAL_REF_S over the mean kernel time around
# it.  CAL_REF_S is the kernel's typical time on the two-core VM the benchmark
# was built on, so the figures read as times on that VM.
CLOCK = time.thread_time
CAL_REF_S = 0.0075


def calibration_kernel() -> float:
    """CPU seconds of a fixed mix of exact-rational and float arithmetic, the
    two kinds of work flagke does."""
    from fractions import Fraction

    start = CLOCK()
    acc, x = Fraction(0), 0.0
    for i in range(1, 600):
        acc += Fraction(i, i + 7) * Fraction(3, 11) - Fraction(1, i)
        x += math.sqrt(i) * math.sin(x)
    return CLOCK() - start


def import_flagke() -> float:
    """Import flagke and its CLI, as the `flagke` command starts, from this
    checkout's sources; returns the monotonic time when done."""
    sys.path.insert(0, SRC)
    import flagke
    import flagke.cli  # noqa: F401
    if not os.path.abspath(flagke.__file__).startswith(SRC + os.sep):
        raise ImportError(f"flagke imported from {flagke.__file__}, not from {SRC}")
    return time.monotonic()


class Pass:
    """Counters and timings of one pass.  Operations are grouped in blocks of
    consecutive work; per block `blocks` holds [operations, seconds]."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.lat_s: list[float] = []
        self.blocks: list[list] = []
        self.block_ops: list[float] = []
        self.cal_s = [calibration_kernel()]  # before each block and after the last
        self.rss_mb = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(what)

    def op(self, seconds: float) -> None:
        self.lat_s.append(seconds)
        self.block_ops.append(seconds)

    def end_block(self, seconds: float | None = None) -> None:
        """Close the block of the operations since the last call; `seconds`
        is the block's whole time when it holds more than its operations."""
        ops, self.block_ops = self.block_ops, []
        self.blocks.append([len(ops), sum(ops) if seconds is None else seconds])
        self.cal_s.append(calibration_kernel())

    def end_timed_work(self) -> None:
        """Read the peak memory before the checks, which are the benchmark's
        own work, can raise it."""
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def scaled(self) -> tuple[list[float], list[list]]:
        """(latencies, blocks) scaled to the reference machine speed."""
        scale = [2 * CAL_REF_S / (a + b) for a, b in zip(self.cal_s, self.cal_s[1:])]
        lat, i = [], 0
        for (n, _), k in zip(self.blocks, scale):
            lat.extend(t * k for t in self.lat_s[i:i + n])
            i += n
        return lat, [[n, seconds * k] for (n, seconds), k in zip(self.blocks, scale)]


# -- census ------------------------------------------------------------------

def census_pass(spec: dict, p: Pass, tracer) -> dict:
    """`flagke census` through `cli.main`.  A hook on `census.enumerate_records`
    (one clock read per record) times each record; blocks are
    CENSUS_BLOCK records, and the last one also holds the file output."""
    from flagke import census, cli

    enumerate_records = census.enumerate_records

    def timed(*args, **kwargs):
        gen = enumerate_records(*args, **kwargs)
        while True:
            t0 = CLOCK()
            try:
                rec = next(gen)
            except StopIteration:
                return
            p.op(CLOCK() - t0)
            if len(p.block_ops) == CENSUS_BLOCK:
                p.end_block()
            yield rec

    argv = ["census", "--family", spec["family"], "--max-rank", str(spec["max_rank"]),
            "--out", spec["out"], "--summary", spec["summary"]]
    census.enumerate_records = timed
    try:
        start = CLOCK()
        code = cli.main(argv)
        elapsed = CLOCK() - start
    finally:
        census.enumerate_records = enumerate_records
    # the last block holds what the command did besides producing records,
    # without the kernels that ran between blocks
    records_s = sum(p.lat_s) - sum(p.block_ops)
    p.end_block(elapsed - records_s - sum(p.cal_s[1:]))
    p.end_timed_work()
    with open(spec["out"], "rb") as fh:
        p.attempted += sum(1 for _ in fh)
    if code != 0:
        p.fail(f"census exited with {code}")
    return {}


# -- chi_sweep ---------------------------------------------------------------

def _verdict_line(key, start, end, chi, verdict, ksq) -> str:
    z, pos, neg = verdict.lambda_zero, verdict.lambda_pos, verdict.lambda_neg
    req = "-" if z.required_chi is None else ",".join(map(str, z.required_chi))
    return (f"{key}|{start}|{end}|{','.join(map(str, chi))}|{int(z.exists)}|{req}|"
            f"{int(pos.exists)}|{int(neg.exists)}|{int(neg.complete)}|{int(verdict.ray_extends)}|"
            f"{ksq.numerator}/{ksq.denominator}")


def chi_sweep_pass(spec: dict, p: Pass, tracer) -> dict:
    import itertools

    from flagke import bundle as bd, cli, einstein as es

    grid = spec["chi_range"]
    digests = {}  # per diagram key, a sha256 of its verdict lines joined by newlines
    clock = CLOCK
    for item in spec["diagrams"]:
        dg = cli.parse_diagram(item["key"])
        for start in item["starts"]:
            for chi in itertools.product(grid, repeat=item["k"]):
                for end in ("left", "right"):
                    if len(p.block_ops) == SWEEP_BLOCK:
                        p.end_block()
                    p.attempted += 1
                    t0 = clock()
                    try:
                        data = bd.admissible_data(dg, start, end, chi)
                        verdict = es.classify(data)
                        same = bd.kappa_z0_form(data) == bd.kappa_z0_oracle(data)
                        ksq, _ = bd.kappa(data)
                    except Exception as exc:  # count and go on: one datum must not end the pass
                        p.fail(f"{item['key']} {start} {end} {chi}: {exc!r}")
                        continue
                    finally:
                        p.op(clock() - t0)
                    if not same:
                        p.fail(f"{item['key']} {start} {end} {chi}: form != oracle")
                    line = _verdict_line(item["key"], start, end, chi, verdict, ksq)
                    h = digests.get(item["key"])
                    if h is None:
                        digests[item["key"]] = hashlib.sha256(line.encode())
                    else:
                        h.update(b"\n" + line.encode())
    p.end_block()
    p.end_timed_work()
    return {"digests": {k: h.hexdigest()[:16] for k, h in digests.items()}}


# -- profile -----------------------------------------------------------------

def t_reference(pairs, kappa_sq, m: int, lam, f: float, dps: int = 30) -> float:
    """t(f) by tanh-sinh quadrature in mpmath, independent of scipy and of
    flagke's polynomial code:  t = int_0^sqrt(u) 2v sqrt(Q(v^2) / (2 J(v^2))) dv
    with u = f/kappa, Q(w) = prod(a + w r) and J(w) = int_0^w (m - lam s) Q(s) ds."""
    from fractions import Fraction

    import mpmath

    q = [Fraction(1)]
    for a, r in pairs:
        q = [(q[i] if i < len(q) else 0) * a + (q[i - 1] * r if i else 0) for i in range(len(q) + 1)]
    lam = Fraction(lam)
    integrand = [(q[i] if i < len(q) else 0) * m - (q[i - 1] * lam if i else 0)
                 for i in range(len(q) + 1)]
    with mpmath.workdps(dps):
        def mp(x: Fraction):
            return mpmath.mpf(x.numerator) / x.denominator

        jc = [mp(c / (i + 1)) for i, c in enumerate(integrand)]
        fac = [(mp(a), mp(r)) for a, r in pairs]

        def g(v):
            w = v * v
            qv = mpmath.fprod(a + w * r for a, r in fac)
            jv = mpmath.mpf(0)
            for c in reversed(jc):
                jv = jv * w + c
            return 2 * v * mpmath.sqrt(qv / (2 * jv * w))

        u = mpmath.mpf(f) / mpmath.sqrt(mp(Fraction(kappa_sq)))
        return float(mpmath.quad(g, [0, mpmath.sqrt(u)]))


def profile_pass(spec: dict, p: Pass, tracer) -> dict:
    from fractions import Fraction

    from flagke import bundle as bd, cli, profile as pf

    rows = spec["rows"]
    clock = CLOCK
    tables, quad_in_rows = [], 0
    for item in spec["data"]:
        dg = cli.parse_diagram(item["key"])
        start = clock()
        prof, table = None, []
        try:
            data = bd.admissible_data(dg, item["start"], item["end"], item["chi"])
            prof = pf.metric_profile(data, Fraction(item["lam"]))
            f_sup = pf.domain_end(prof)
            t_hi = pf.t_of_f(prof, 0.97 * f_sup if math.isfinite(f_sup) else 8.0 * prof.kappa)
            for i in range(1, rows + 1):
                t = t_hi * i / (rows + 1)
                q0 = tracer.calls("profile.quad") if tracer else 0
                r0 = clock()
                f = pf.f_of_t(prof, t)
                res = pf.ode_residual(prof, t)
                p.op(clock() - r0)
                if tracer:
                    quad_in_rows += tracer.calls("profile.quad") - q0
                table.append((i, t, f, res))
        except Exception as exc:  # count and go on: one datum must not end the pass
            for _ in range(rows - len(table)):
                p.fail(f"{item}: {exc!r}")
        p.attempted += rows
        p.end_block(clock() - start)
        tables.append((item, prof, table))
    p.end_timed_work()
    # checks, outside the timed region
    worst_res = worst_t = 0.0
    for item, prof, table in tables:
        for i, t, f, res in table:
            bad = not abs(res) < RESIDUAL_LIMIT
            worst_res = max(worst_res, abs(res))
            if i in item["check_rows"] and prof is not None:
                err = abs(t_reference(prof.pairs, prof.kappa_sq, prof.m, prof.lam, f) - t)
                worst_t = max(worst_t, err / max(1.0, t))
                bad = bad or not err <= T_REL_TOL * max(1.0, t)
            if bad:
                p.fail(f"{item} row {i}: residual {res:.2e}, t {t!r}, f {f!r}")
    return {"quad_in_rows": quad_in_rows,
            "worst_residual": worst_res, "worst_t_rel_err": worst_t}


PASSES = {"census": census_pass, "chi_sweep": chi_sweep_pass, "profile": profile_pass}


def main() -> int:
    ready = import_flagke()
    ready_cal_s = statistics.median(calibration_kernel() for _ in range(3))
    spec = json.loads(sys.stdin.read())
    if spec["workload"] == "setup":
        print(json.dumps({"ready": ready, "ready_cal_s": ready_cal_s}))
        return 0
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    p = Pass()
    try:
        out = PASSES[spec["workload"]](spec, p, tracer)
    finally:
        if tracer:
            tracer.restore()
    lat, blocks = p.scaled()
    out.update(ready=ready, ready_cal_s=ready_cal_s, attempted=p.attempted, failed=p.failed, errors=p.errors,
               lat_s=lat, blocks=blocks, rss_mb=p.rss_mb)
    if tracer:
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
        out["trace"] = {"stats": tracer.stats, "cache": tracer.cache_counts(),
                        "quad_neval": tracer.quad_neval, "absent": tracer.absent,
                        "left_installed": tracer.installed()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
