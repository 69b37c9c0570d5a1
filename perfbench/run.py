"""flagke benchmark: census, chi_sweep and profile workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --acceptance

Run from the root of a checkout.  Every pass of a workload runs in a fresh
interpreter (`worker.py`), so lazy caches start cold as they do for a
`flagke` command.  The run repeats passes on the same seeded inputs until
the next pass would end after `--seconds`, with at least one pass.  It
checks every output, then prints the metrics as one JSON object on the last
line of stdout.  With `--trace 1` it alternates untraced and traced passes
and reports the per-layer metrics and the tracing overhead instead.

`--acceptance` runs the acceptance suite once and reports each criterion's
time against its budget; it is not a workload and gates nothing.

See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

import inputs
from worker import CAL_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("census", "chi_sweep", "profile")

SETUP_PROBES = 5      # extra fresh interpreters per run that only import flagke
WORKER_TIMEOUT = 150  # seconds for one pass
MODULES = ("rootspace", "painted", "bundle", "einstein", "profile", "poly", "census", "cli")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(spec: dict, importtime: bool = False) -> tuple[dict, float, str]:
    """Run one worker; returns (its result, its set-up seconds, its stderr).
    The set-up is the wall time from start until flagke is imported, scaled
    to the reference machine speed like every other time (worker.CAL_REF_S)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [WORKER]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, input=json.dumps(spec), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{spec['workload']} worker timed out after {WORKER_TIMEOUT}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} worker exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = (result["ready"] - start) * CAL_REF_S / result["ready_cal_s"]
    return result, setup, proc.stderr


# -- passes --------------------------------------------------------------------

def census_pass(ctx: dict, traced: bool) -> list[dict]:
    """One `flagke census` command per family.  The input is exhaustive, so
    census ignores `--seed`."""
    ref = ctx["reference"]["census"]
    out = []
    for family in inputs.FAMILIES:
        jsonl = os.path.join(OUT, f"census-{family}.jsonl")
        csv = os.path.join(OUT, f"census-{family}.csv")
        spec = {"workload": "census", "family": family, "max_rank": inputs.CENSUS_MAX_RANK,
                "out": jsonl, "summary": csv, "trace": traced}
        res = ctx["spawn"](spec)
        got = {"jsonl_sha256": _sha256(jsonl), "csv_sha256": _sha256(csv)}
        os.remove(jsonl)
        os.remove(csv)
        want_count = inputs.census_record_count(family, inputs.CENSUS_MAX_RANK)
        problems = [k for k, v in got.items() if v != ref[family][k]]
        if res["attempted"] != want_count:
            problems.append(f"{res['attempted']} records, independent count {want_count}")
        if problems:
            res["failed"] += max(res["attempted"], 1)
            res["errors"].append(f"census {family}: mismatch in {', '.join(problems)}")
        out.append(res)
    return out


def chi_sweep_pass(ctx: dict, traced: bool) -> list[dict]:
    spec = {"workload": "chi_sweep", "diagrams": ctx["inputs"],
            "chi_range": list(inputs.SWEEP_CHI_RANGE), "trace": traced}
    res = ctx["spawn"](spec)
    ref = ctx["reference"]["chi_sweep"]
    for key, digest in res["digests"].items():
        if ref.get(key) != digest:
            res["failed"] += 1
            res["errors"].append(f"chi_sweep {key}: verdict digest {digest}, reference {ref.get(key)}")
    if len(res["digests"]) != len(ctx["inputs"]):
        res["failed"] += 1
        res["errors"].append("chi_sweep: some diagrams produced no verdicts")
    return [res]


def profile_pass(ctx: dict, traced: bool) -> list[dict]:
    spec = {"workload": "profile", "data": ctx["inputs"], "rows": inputs.PROFILE_ROWS,
            "trace": traced}
    return [ctx["spawn"](spec)]


PASSES = {"census": census_pass, "chi_sweep": chi_sweep_pass, "profile": profile_pass}
GENERATORS = {"census": lambda seed: None, "chi_sweep": inputs.chi_sweep_sample,
              "profile": inputs.profile_sample}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- metrics -------------------------------------------------------------------

def end_to_end(passes: list[list[dict]], setups: list[float]) -> dict[str, float]:
    workers = [w for ws in passes for w in ws]
    lat = [x for w in workers for x in w["lat_s"]]
    blocks = [b for w in workers for b in w["blocks"]]
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": sum(n for n, _ in blocks) / sum(s for _, s in blocks),
        "latency_ms_p50": 1000 * statistics.median(lat),
        "latency_ms_p90": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[-1],
        "peak_rss_mb": max(w["rss_mb"] for w in workers),
    }


def _per_pass_layers(workers: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced pass (summed over its workers)."""
    stats: dict[str, list] = {}
    cache: dict[str, list] = {}
    for w in workers:
        for prefix, (calls, incl, self_s) in w["trace"]["stats"].items():
            acc = stats.setdefault(prefix, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for prefix, (hits, misses) in w["trace"]["cache"].items():
            acc = cache.setdefault(prefix, [0, 0])
            acc[0] += hits
            acc[1] += misses
    out = {}
    for prefix, (calls, incl, self_s) in stats.items():
        out[f"{prefix}.calls"] = calls
        out[f"{prefix}.self_s"] = self_s
        out[f"{prefix}.busy_s"] = incl
    for prefix, (hits, misses) in cache.items():
        out[f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    rows = sum(len(w["lat_s"]) for w in workers) if "quad_in_rows" in workers[0] else 0
    out["profile.quad.neval"] = sum(w["trace"]["quad_neval"] for w in workers)
    out["profile.quad.per_row"] = (sum(w.get("quad_in_rows", 0) for w in workers) / rows
                                   if rows else 0.0)
    return out


def per_layer(traced: list[list[dict]], plain: list[list[dict]],
              imports: dict[str, float]) -> dict[str, float]:
    """Per-layer values: medians over traced passes, plus import times and
    the tracing overhead."""
    layers = [_per_pass_layers(ws) for ws in traced]
    out = {name: statistics.median(layer.get(name, 0) for layer in layers)
           for name in set().union(*layers)}
    out.update(imports)
    traced_s = statistics.median(_busy(ws) for ws in traced)
    out["trace.overhead_ratio"] = traced_s / statistics.median(_busy(ws) for ws in plain) - 1.0
    return out


def _busy(workers: list[dict]) -> float:
    return sum(s for w in workers for _, s in w["blocks"])


def import_times(stderr: str) -> dict[str, float]:
    """setup.import.<module>_s from `python -X importtime` output (cumulative)."""
    cumulative = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e6
    out = {"setup.import.flagke_s": cumulative.get("flagke", 0.0)}
    for mod in MODULES:
        out[f"setup.import.{mod}_s"] = cumulative.get(f"flagke.{mod}", 0.0)
    return out


# -- one run -------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "flagke", "__init__.py")):
        raise BenchError("no flagke sources under src/: run from the root of a checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    setups: list[float] = []

    def spawn_pass(pass_spec: dict) -> dict:
        if pass_spec.get("trace"):
            name = "-".join(filter(None, (workload, pass_spec.get("family"))))
            pass_spec["spans"] = os.path.join(OUT, f"spans-{name}.json")
        res, setup, _ = spawn(pass_spec)
        setups.append(setup)
        return res

    ctx = {"reference": load_reference(),
           "inputs": GENERATORS[workload](seed), "spawn": spawn_pass}
    for _ in range(SETUP_PROBES):
        setups.append(spawn({"workload": "setup"})[1])
    imports = {}
    if trace:
        _, _, stderr = spawn({"workload": "setup"}, importtime=True)
        imports = import_times(stderr)

    plain, traced = [], []
    start = time.monotonic()
    last = 0.0
    while (not plain or (trace and not traced)
           or time.monotonic() - start + last <= seconds):
        t0 = time.monotonic()
        use_trace = trace and len(traced) < len(plain)
        (traced if use_trace else plain).append(PASSES[workload](ctx, use_trace))
        last = time.monotonic() - t0

    workers = [w for ws in plain + traced for w in ws]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    for w in workers:
        for err in w["errors"]:
            print(f"check failed: {err}", file=sys.stderr)
        if w.get("trace", {}).get("left_installed"):
            raise BenchError("tracing left wrappers installed")
    if trace:
        values = per_layer(traced, plain, imports)
        absent = {k: v for w in workers for k, v in w.get("trace", {}).get("absent", {}).items()}
        for name, why in absent.items():
            print(f"per-layer target absent, reported as 0: {name}: {why}", file=sys.stderr)
    else:
        values = end_to_end(plain, setups)
    metrics = {m["name"]: {"value": values.get(m["name"], 0) if trace else values[m["name"]],
                           "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    print(f"{workload} seed {seed}: {len(plain)} plain + {len(traced)} traced passes, "
          f"{attempted} operations, {failed} failed, {len(setups)} set-ups", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- acceptance headroom -------------------------------------------------------

def acceptance_report() -> dict:
    """Run the acceptance suite once; each criterion's time against its budget."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-s", "-q",
           "-p", "no:cacheprovider"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800)
    criteria = []
    for m in re.finditer(r"\[(PASS|FAIL)\] (.+?): ([0-9.]+)s \(budget ([0-9.]+)s\)", proc.stdout):
        elapsed, budget = float(m.group(3)), float(m.group(4))
        status = "OVER" if elapsed >= budget else m.group(1)
        criteria.append({"criterion": m.group(2), "status": status, "elapsed_s": elapsed,
                         "budget_s": budget, "headroom": 1.0 - elapsed / budget})
    report = {"pytest_exit": proc.returncode, "criteria": criteria}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "acceptance.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for c in criteria:
        print(f"{c['status']} {c['elapsed_s']:8.2f}s / {c['budget_s']:5.0f}s "
              f"headroom {100 * c['headroom']:5.1f}%  {c['criterion']}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--acceptance", action="store_true",
                        help="report acceptance-criterion time against budget, then exit")
    args = parser.parse_args(argv)
    try:
        if args.acceptance:
            report = acceptance_report()
            print(json.dumps(report))
            return 0 if report["criteria"] else 1
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
