"""Run one workload in a fresh single-threaded process.

Reads the job from stdin as JSON: the workload name, the generated
inputs (never the seed), the time budget and whether to trace. Runs the
warm-up inputs, then whole passes of the timed inputs until the budget
is spent and the workload's minimum pass count is reached. Every output
is checked right after its op, outside the timed region. Between ops a
speed probe (``probe.py``) runs at least every 20 ms, and each latency is
rescaled by the probes either side of it. Prints one JSON object with the
scaled and the wall-clock latencies, the failure counts, the digest of
the first timed pass, the peak resident memory and, when traced, the
per-layer metrics derived from the spans.

A traced job runs half its budget untraced and half traced, so that the
tracing overhead is measured in the same process on fresh inputs.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import fields, is_dataclass

import ops
import probe
from triplemoduli import DomainError, jsonable

# work counters taken at the span boundary, from the returned value
_COUNTS = {
    "walls.enumerate_walls": lambda c, r: c.update(walls_out=len(r), witnesses=sum(len(w.witnesses) for w in r)),
    "census.enumerate_region": lambda c, r: c.update(classes_out=r.count),
}

CLI_SUBCOMMANDS = ("triple", "walls", "chambers", "higgs", "rigidity", "morse", "census", "classify")


def direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    """Records a span (id, name, start_ns, end_ns, parent id, op id) for
    every call the benchmark makes into a layer. Spans stay in memory
    until the run ends."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.refusals = Counter()
        self.cli = []
        self.op_span = None
        self.op_id = None

    def begin_op(self, op_id):
        self.op_id = op_id
        self.op_span = len(self.spans)
        self.spans.append(None)

    def end_op(self, t0, t1):
        self.spans[self.op_span] = (self.op_span, "op", t0, t1, None, self.op_id)

    def _span(self, name, t0, t1):
        self.spans.append((len(self.spans), name, t0, t1, self.op_span, self.op_id))

    def __call__(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except DomainError:
            self._span(name, t0, time.perf_counter_ns())
            self.refusals[name.split(".")[0]] += 1
            raise
        self._span(name, t0, time.perf_counter_ns())
        count = _COUNTS.get(name)
        if count is not None:
            count(self.counts, result)
        return result

    def record_cli(self, sub, t0, t1, child_clock, rc, nbytes):
        """One traced CLI request: the process ran from t0 to t1; the
        child read the same monotonic clock before and after importing
        the CLI and after main(argv)."""
        c0, c1, c2 = child_clock
        self._span("cli.import", c0, c1)
        self._span("cli.main." + sub, c1, c2)
        self.cli.append((sub, t1 - t0, c1 - c0, c2 - c1, rc, nbytes, self.op_id))

    def layer_metrics(self, n_ops, speed):
        """Per-layer metrics of the traced ops; ``speed[op_id]`` rescales
        the times of an op's spans like its latency."""
        own = defaultdict(float)
        calls = Counter()
        children = defaultdict(int)
        for sid, name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                children[parent] += t1 - t0
        op_ns = uncovered = 0
        for sid, name, t0, t1, parent, op_id in self.spans:
            d = t1 - t0
            if name == "op":
                op_ns += d
                uncovered += d - children[sid]
            else:
                own[name] += (d - children[sid]) * speed[op_id]
                calls[name] += 1

        def secs(*names, prefix=None):
            ns = sum(own[n] for n in names)
            if prefix:
                ns += sum(v for k, v in own.items() if k.startswith(prefix))
            return ns / 1e9

        def n_calls(prefix):
            return sum(v for k, v in calls.items() if k.startswith(prefix))

        def per_op(s):
            return s / n_ops if n_ops else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        walls_out, classes_out = self.counts["walls_out"], self.counts["classes_out"]
        m = {
            "triples.thresholds.calls": calls["triples.thresholds"],
            "triples.thresholds.s": per_op(secs("triples.thresholds")),
            "triples.thresholds.us_per_call": ratio(secs("triples.thresholds") * 1e6, calls["triples.thresholds"]),
            "triples.closed_forms.s": per_op(secs("triples.alpha_range", "triples.chi",
                                                  "triples.dim_stable_moduli", "triples.fibration_dims")),
            "walls.enumerate_walls.calls": calls["walls.enumerate_walls"],
            "walls.enumerate_walls.s": per_op(secs("walls.enumerate_walls")),
            "walls.walls_out": walls_out,
            "walls.witnesses_per_wall": ratio(self.counts["witnesses"], walls_out),
            "walls.us_per_wall": ratio(secs("walls.enumerate_walls") * 1e6, walls_out),
            "walls.chambers.calls": calls["walls.chambers"],
            "walls.chambers.s": per_op(secs("walls.chambers")),
            "walls.is_critical.s": per_op(secs("walls.is_critical")),
            "walls.flip_dims.s": per_op(secs("walls.flip_dims")),
            "census.enumerate_region.calls": calls["census.enumerate_region"],
            "census.enumerate_region.s": per_op(secs("census.enumerate_region")),
            "census.classes_out": classes_out,
            "census.us_per_class": ratio(secs("census.enumerate_region") * 1e6, classes_out),
            "census.coprime_partition.s": per_op(secs("census.coprime_partition")),
            "census.canonicalize.calls": calls["census.canonicalize"],
            "census.canonicalize.s": per_op(secs("census.canonicalize")),
            "higgs.calls": n_calls("higgs."),
            "higgs.s": per_op(secs(prefix="higgs.")),
            "classify.calls": calls["classify.classify"],
            "classify.s": per_op(secs("classify.classify")),
            "classify.us_per_call": ratio(secs("classify.classify") * 1e6, calls["classify.classify"]),
            "morse.calls": n_calls("morse."),
            "morse.s": per_op(secs(prefix="morse.")),
        }
        n_cli = len(self.cli)
        cli = [(s, p * speed[o], i * speed[o], mn * speed[o], rc, b) for s, p, i, mn, rc, b, o in self.cli]
        m["cli.interp_s"] = ratio(sum(p - i - mn for _, p, i, mn, _, _ in cli) / 1e9, n_cli)
        m["cli.import_s"] = ratio(sum(i for _, _, i, _, _, _ in cli) / 1e9, n_cli)
        m["cli.main_s"] = ratio(sum(mn for _, _, _, mn, _, _ in cli) / 1e9, n_cli)
        for sub in CLI_SUBCOMMANDS:
            mains = [mn for s, _, _, mn, _, _ in cli if s == sub]
            m["cli.main.%s.s" % sub] = ratio(sum(mains) / 1e9, len(mains))
        m["cli.out_bytes"] = ratio(sum(b for *_, b in cli), n_cli)
        m["cli.exit1"] = sum(1 for c in self.cli if c[4] == 1)
        m["cli.exit2"] = sum(1 for c in self.cli if c[4] == 2)
        for layer in ("triples", "walls", "census", "higgs", "classify", "morse"):
            m[layer + ".domain_errors"] = self.refusals[layer]
        m["cli.domain_errors"] = m["cli.exit1"] + m["cli.exit2"]
        m["trace.uncovered_ratio"] = ratio(uncovered, op_ns)
        m["trace.spans"] = len(self.spans)
        return m


_PLAIN = (int, str, bool, type(None))
_FIELD_NAMES = {}


def _canon(x):
    """JSON-ready form of an output: dataclasses become dicts of their
    fields, rationals go through jsonable."""
    t = type(x)
    if t in _PLAIN:
        return x
    if t is tuple or t is list:
        return [_canon(v) for v in x]
    if t is dict:
        return {str(k): _canon(v) for k, v in x.items()}
    if t is bytes:
        return x.decode("utf-8", "replace")
    names = _FIELD_NAMES.get(t)
    if names is None:
        if not is_dataclass(x):
            return jsonable(x)
        names = _FIELD_NAMES[t] = tuple(f.name for f in fields(x))
    return {n: _canon(getattr(x, n)) for n in names}


def feed(h, x):
    """Hash the canonical JSON of x (sorted keys, no spaces, built with
    jsonable), one top-level key or list item at a time, so a large output
    never becomes one string."""
    if isinstance(x, dict):
        h.update(b"{")
        for i, k in enumerate(sorted(x, key=str)):
            h.update((b"," if i else b"") + json.dumps(str(k)).encode() + b":")
            feed(h, x[k])
        h.update(b"}")
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for i, v in enumerate(x):
            if i:
                h.update(b",")
            feed(h, v)
        h.update(b"]")
    else:
        h.update(json.dumps(_canon(x), sort_keys=True, separators=(",", ":")).encode())


class Run:
    def __init__(self, job):
        self.op, self.check = ops.WORKLOADS[job["workload"]]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = hashlib.sha256()
        self.unmeasured_ns = 0
        self.probes = probe.Probes()

    def one(self, inp, call, op_id, digest=False):
        """Run, time and check one op; returns its latency in ns."""
        tracer = call if call is not direct else None
        if tracer:
            tracer.begin_op(op_id)
        t0 = time.perf_counter_ns()
        try:
            out, err = self.op(inp, call), None
        except Exception:
            out, err = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter_ns()
        if tracer:
            tracer.end_op(t0, t1)
        self.attempted += 1
        bad = [err] if err else self.check(inp, out)
        if bad:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"input": inp, "problems": [str(b) for b in bad[:5]]})
        if digest:
            feed(self.digest, {"input": inp, "output": out})
        self.unmeasured_ns += time.perf_counter_ns() - t1
        return t1 - t0

    def phase(self, passes, call, budget_s, min_passes, digest_first):
        """Whole passes until ``budget_s`` of wall-clock op time is spent.
        Returns the latencies at the probe's reference speed (``lat_ns``)
        and as measured (``wall_ns``)."""
        wall, marks = [], []
        done = 0
        self.probes.take()
        while passes and (done < min_passes or sum(wall) < budget_s * 1e9):
            row = passes.pop(0)
            for inp in row:
                marks.append(self.probes.mark())
                wall.append(self.one(inp, call, len(wall), digest=digest_first and done == 0))
                self.probes.due()
            done += 1
        self.probes.take()
        lat = [self.probes.scale(k, ns) for k, ns in zip(marks, wall)]
        return {"lat_ns": lat, "wall_ns": wall, "passes": done}


def main():
    job = json.load(sys.stdin)
    run = Run(job)
    for i, inp in enumerate(job["warmup"]):
        run.one(inp, direct, i)
    passes = list(job["passes"])
    result = {}
    if job["trace"]:
        half = job["seconds"] / 2
        plain = run.phase(passes, direct, half, 1, True)
        tracer = Tracer()
        traced = run.phase(passes, tracer, half, 1, False)
        n = len(traced["lat_ns"])
        speed = [s / w if w else 1.0 for s, w in zip(traced["lat_ns"], traced["wall_ns"])]
        layers = tracer.layer_metrics(n, speed)
        rate = lambda ph: len(ph["lat_ns"]) / sum(ph["lat_ns"]) if ph["lat_ns"] else 0.0
        layers["trace.overhead_ratio"] = rate(traced) / rate(plain) if rate(plain) else 0.0
        result["layers"] = layers
        result["phases"] = [plain, traced]
        with open(job["spans_path"], "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(s) + "\n")
    else:
        result["phases"] = [run.phase(passes, direct, job["seconds"], job["min_passes"], True)]
    who = resource.RUSAGE_CHILDREN if job["workload"] == "cli-mix" else resource.RUSAGE_SELF
    result.update(
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems,
        digest=run.digest.hexdigest(),
        check_s=run.unmeasured_ns / 1e9,
        probe_ns=run.probes.times,
        peak_rss_kb=resource.getrusage(who).ru_maxrss,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
