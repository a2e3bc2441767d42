"""Benchmark of triplemoduli: four seeded workloads, checked outputs.

    python3 perfbench/run.py --workload triple-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke          # every workload and check, tiny sizes

Run from the repository root. Without ``--workload`` every workload runs
in turn. The inputs are generated here from the seed (``gen.py``); a
fresh worker process (``worker.py``) receives only the inputs, times
whole passes of ops and checks every output. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
Times are reported at the reference speed of the speed probe
(``probe.py``), which runs between ops and between set-up spawns; the
record of each run also holds the wall-clock figures.
Each run also writes a record with the run environment to
``perfbench/results/``. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Workload descriptions, tail percentiles and minimum pass counts live in
``perfbench/workloads.json``; the digests of the default seed's first
timed pass in ``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import gen  # noqa: E402
import probe  # noqa: E402

RESULTS = os.path.join(HERE, "results")
RUN_LIMIT_S = 170
SETUP_SPAWNS = 21
# the CPUs this process may use, read before it pins itself to the first
CPUS = sorted(os.sched_getaffinity(0))


def _load(path):
    with open(path) as f:
        return json.load(f)


def _read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def _commit():
    """HEAD of the checkout, read without git; "unknown" outside a clone."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return "unknown"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(ROOT, ".git", ref))
    if sha:
        return sha.strip()
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment():
    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    load = (_read("/proc/loadavg") or "").split()[:3]
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(CPUS),
        "pinned_cpu": CPUS[0],
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg": [float(x) for x in load],
    }


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Imports read cached bytecode, as an installed package would; the
    # cache lives under the benchmark's own results directory.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(RESULTS, "pycache")
    return env


def setup_seconds(modules, spawns, env):
    """Median time from spawning a fresh interpreter until the workload's
    modules are imported, at the speed probe's reference speed and as
    measured. One unmeasured spawn first fills the caches."""
    code = "import %s; print('ready', flush=True)" % ", ".join(modules)
    scaled, wall = [], []
    before = probe.measure()
    for i in range(spawns + 1):
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env)
        line = proc.stdout.readline()
        dt = time.perf_counter_ns() - t0
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError("cannot import %s from %s" % (modules, os.path.join(ROOT, "src")))
        after = probe.measure()
        if i:
            scaled.append(probe.scaled_ns(dt, before, after) / 1e9)
            wall.append(dt / 1e9)
        before = after
    return statistics.median(scaled), statistics.median(wall)


def run_worker(job, env, deadline):
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job).encode(), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker exceeded the %d s run limit" % RUN_LIMIT_S)
    if proc.returncode != 0:
        raise RuntimeError("worker failed:\n" + err.decode(errors="replace")[-3000:])
    return json.loads(out.decode().strip().splitlines()[-1])


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def run_workload(name, desc, default_seed, args, env, spec):
    deadline = time.monotonic() + RUN_LIMIT_S
    mode = "smoke" if args.smoke else "full"
    rng = random.Random("%d:%s" % (args.seed, name))
    inputs = gen.GENERATORS[name](rng, args.smoke)
    setup = setup_seconds(desc["setup_modules"], 1 if args.smoke else SETUP_SPAWNS, env)
    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d-trace%d%s" % (name, args.seed, args.trace, "-smoke" if args.smoke else "")
    job = {
        "workload": name,
        "seconds": args.seconds,
        "trace": args.trace,
        "min_passes": 1 if args.smoke else desc["min_passes"],
        "warmup": inputs["warmup"],
        "passes": inputs["passes"],
        "spans_path": os.path.join(RESULTS, "spans-%s.jsonl" % tag),
    }
    res = run_worker(job, env, deadline)
    size = len(inputs["passes"][0])
    pct = desc["tail_percentile"]
    lat = res["phases"][0]["lat_ns"]
    beyond = sum(1 for x in lat if x > percentile(lat, pct))
    notes = []
    if not (args.smoke or args.trace) and beyond < 10:
        notes.append("only %d samples beyond p%s" % (beyond, pct))

    def timings(lat, setup):
        pass_ns = [sum(lat[i:i + size]) for i in range(0, len(lat), size)]
        return {
            "setup_s": setup,
            # ops per pass over the median pass time: a burst of machine
            # noise during one pass does not move it
            "ops_per_s": size / (statistics.median(pass_ns) / 1e9),
            "op_p50_ms": percentile(lat, 50) / 1e6,
            "op_tail_ms": percentile(lat, pct) / 1e6,
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
        }

    wall_metrics = timings(res["phases"][0]["wall_ns"], setup[1])
    metrics = dict(res["layers"]) if args.trace else timings(lat, setup[0])
    probe_ms = [t / 1e6 for t in res["probe_ns"]]
    missing = [m for m in spec if m not in metrics]
    if missing:
        raise RuntimeError("metrics not measured: %s" % missing)
    expected = _load(os.path.join(HERE, "digests.json")).get(mode, {}).get(name)
    default = args.seed == default_seed
    digest_ok = res["digest"] == expected if default else None
    correct = res["failed"] == 0 and digest_ok is not False
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "fail_ratio": res["failed"] / res["attempted"],
        "problems": res["problems"],
        "digest": res["digest"],
        "digest_expected": expected if default else None,
        "digest_ok": digest_ok,
        "ops": len(lat),
        "passes": [p["passes"] for p in res["phases"]],
        "measured_s": [sum(p["wall_ns"]) / 1e9 for p in res["phases"]],
        "check_s": res["check_s"],
        "tail": {"percentile": pct, "samples": len(lat), "beyond": beyond},
        "notes": notes,
        "metrics": {k: {"value": metrics[k], "unit": spec[k]} for k in spec},
        "wall_clock_metrics": wall_metrics,
        "probe_ms": {"count": len(probe_ms), "reference": probe.REFERENCE_NS / 1e6,
                     "quartiles": statistics.quantiles(probe_ms, n=4) if len(probe_ms) > 1 else probe_ms * 3},
    }
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    return record


def report(rec):
    print("== %s  seed %d  trace %d%s  [%s]" % (
        rec["workload"], rec["seed"], rec["trace"], "  smoke" if rec["smoke"] else "",
        "correct" if rec["correct"] else "INCORRECT"))
    env = rec["environment"]
    print("   commit %s  python %s  nproc %d  load %s  cpu %s" % (
        env["commit"][:12], env["python"], env["nproc"], env["loadavg"], env["cpu_model"]))
    print("   %.1f s timed, %.1f s checking, %d probes, probe quartiles %s ms (reference %.1f ms)" % (
        sum(rec["measured_s"]), rec["check_s"], rec["probe_ms"]["count"],
        " ".join("%.2f" % q for q in rec["probe_ms"]["quartiles"]), rec["probe_ms"]["reference"]))
    print("   ops %d in %s passes, fail_ratio %.4g (%d of %d), p%s tail with %d samples beyond, digest %s%s" % (
        rec["ops"], "+".join(map(str, rec["passes"])), rec["fail_ratio"], rec["failed"], rec["attempted"],
        rec["tail"]["percentile"], rec["tail"]["beyond"], rec["digest"],
        "" if rec["digest_ok"] is None else (" (matches)" if rec["digest_ok"] else " (EXPECTED %s)" % rec["digest_expected"])))
    for note in rec["notes"]:
        print("   note: " + note)
    for p in rec["problems"][:5]:
        print("   problem: %s" % json.dumps(p)[:400])
    wall = rec["wall_clock_metrics"] if not rec["trace"] else {}
    for k, m in rec["metrics"].items():
        print("   %-32s %14.6g %-6s%s" % (k, m["value"], m["unit"],
                                         "  (wall clock %.6g)" % wall[k] if k in wall else ""))


def main(argv=None):
    desc = _load(os.path.join(HERE, "workloads.json"))
    names = list(desc["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=desc["default_seed"])
    ap.add_argument("--seconds", type=float, default=None, help="timed seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, every workload and check in seconds")
    args = ap.parse_args(argv)
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    if args.seconds is None:
        args.seconds = 0.05 if args.smoke else bench["run_seconds"]
    spec = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    env = child_env()
    # One CPU for this process and every process it starts, so that the
    # speed probe runs where the timed work runs, CLI children included.
    os.sched_setaffinity(0, {CPUS[0]})
    if not os.path.isdir(os.path.join(ROOT, "src", "triplemoduli")):
        print("error: no package source at %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    selected = names if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, desc["workloads"][n], desc["default_seed"], args, env, spec) for n in selected]
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for rec in records:
        report(rec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
