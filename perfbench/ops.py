"""The timed operations of each workload and the checks of their outputs.

An op function takes one generated input and a ``call(name, fn, *args)``
hook, makes every call into the package through the hook (so the traced
run can wrap each one in a span named ``<layer>.<function>``), and
returns a dict of the results. A check function takes the input and
that dict and returns a list of problems; it runs outside the timed
region. Checks use closed forms from the paper and the brute-force
oracle of the test suite, never the code path they check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F

from triplemoduli import (
    DomainError,
    HiggsType,
    HodgeChain,
    TripleType,
    alpha_range,
    canonicalize,
    chambers,
    classify,
    coprime_partition,
    dim_h1_weight,
    dim_stable_moduli,
    enumerate_region,
    enumerate_walls,
    fibration_dims,
    flip_dims,
    is_critical,
    morse_index,
    mw_relations,
    rigidity,
    tau_quotient_facts,
    thresholds,
    uk_profile,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))
from oracles import oracle_critical_at_integer, oracle_walls  # noqa: E402

REFUSED = "refused"


def refused(call, name, fn, *args):
    """Call that is expected to raise DomainError; returns REFUSED or the
    unexpected result."""
    try:
        return call(name, fn, *args)
    except DomainError:
        return REFUSED


class Problems(list):
    def expect(self, cond, what):
        if not cond:
            self.append(what)


def _wall_set(walls):
    return {w.alpha: {(x.n1p, x.n2p, x.dsum) for x in w.witnesses} for w in walls}


def _check_wall_list(P, T, walls, lo, hi, strict_lo, strict_hi):
    """Strictly ascending, inside the window, and every witness solves the
    wall equation n d' - (n1'+n2') D = alpha (n1' n2 - n1 n2')."""
    if not walls:
        return
    n1, n2, d1, d2 = T
    n, D = n1 + n2, d1 + d2
    first, last = walls[0].alpha, walls[-1].alpha
    if not ((lo < first if strict_lo else lo <= first) and (last < hi if strict_hi else last <= hi)):
        P.append("walls [%s, %s] outside the window [%s, %s]" % (first, last, lo, hi))
    prev = None
    for w in walls:
        a = w.alpha
        if prev is not None and not prev < a:
            P.append("walls not strictly ascending at %s" % a)
        if not w.witnesses:
            P.append("wall %s without witness" % a)
        num, den = a.numerator, a.denominator
        for x in w.witnesses:
            if (n * x.dsum - (x.n1p + x.n2p) * D) * den != num * (x.n1p * n2 - n1 * x.n2p):
                P.append("witness %r does not solve the wall equation at %s" % (x, a))
        prev = a


def _check_oracle(P, T, walls, lo, hi, drop):
    expected = oracle_walls(TripleType(*T), lo, hi)
    for a in drop:
        expected.pop(a, None)
    P.expect(_wall_set(walls) == expected, "walls differ from the oracle")


# --------------------------------------------------------------------------
# triple-sweep: one op is one type's full profile


def op_triple(inp, call):
    n1, n2, d1, d2 = inp["t"]
    g = inp["g"]
    T = call("triples.TripleType", TripleType, n1, n2, d1, d2)
    walls = call("walls.enumerate_walls", enumerate_walls, T, g=g if n1 == n2 else None)
    out = {
        "range": call("triples.alpha_range", alpha_range, T),
        "thresholds": call("triples.thresholds", thresholds, T),
        "walls": walls,
        "chambers": refused(call, "walls.chambers", chambers, T, g),
        "critical": call("walls.is_critical", is_critical, T, 2 * g - 2),
        "dim": call("triples.dim_stable_moduli", dim_stable_moduli, T, g),
        "fibration": call("triples.fibration_dims", fibration_dims, T, g),
        "flip": None,
    }
    if walls:
        # one interior witness: the first of the middle wall, with its
        # degree sum split in proportion to the ranks
        w = walls[len(walls) // 2].witnesses[0]
        d1p = w.dsum * w.n1p // (w.n1p + w.n2p)
        Tp = call("triples.TripleType", TripleType, w.n1p, w.n2p, d1p, w.dsum - d1p)
        out["flip"] = call("walls.flip_dims", flip_dims, T, Tp, g)
    return out


def check_triple(inp, out):
    P = Problems()
    n1, n2, d1, d2 = inp["t"]
    g = inp["g"]
    gap = F(d1, n1) - F(d2, n2)
    rng = out["range"]
    hi = None if n1 == n2 else (1 + F(n1 + n2, abs(n1 - n2))) * gap
    P.expect(rng.lo == gap and rng.hi == hi and not rng.empty, "alpha_range")
    walls = out["walls"]
    alphas = [w.alpha for w in walls]
    th = out["thresholds"]
    if n1 == n2:
        alpha_L = n1 * (n1 - 1) * gap
        top = max(alpha_L, F(2 * g - 2), gap) + 1
        _check_wall_list(P, inp["t"], walls, gap, top, True, False)
        P.expect(th.alpha_L == alpha_L, "alpha_L closed form")
        P.expect(all(w.stabilized == (w.alpha > alpha_L) for w in walls), "stabilized flags")
        drop = [gap]
    else:
        top = hi
        _check_wall_list(P, inp["t"], walls, gap, top, True, True)
        if walls:
            P.expect(th.alpha_L == alphas[-1] and not th.alpha_L_is_fallback, "alpha_L is the largest wall")
        else:
            P.expect(th.alpha_L == gap and th.alpha_L_is_fallback, "alpha_L fallback")
        drop = [gap, hi]
    P.expect(th.alpha_m == gap and th.alpha_M == hi, "thresholds range")
    js = th.alpha_js
    P.expect(all(a >= b for a, b in zip(js, js[1:])), "alpha_j not decreasing")
    P.expect(th.alpha_e == max(x for x in (th.alpha_m, th.alpha_0, th.alpha_t) if x is not None), "alpha_e")
    ch = out["chambers"]
    if gap == 0 and n1 != n2:
        P.expect(ch == REFUSED, "chambers accepted a one-point range")
    else:
        P.expect(ch != REFUSED, "chambers refused")
        if ch != REFUSED:
            P.expect([w.alpha for w in ch.walls] == [a for a in alphas if a < top], "chamber walls differ from the scan")
            bounds = [c.lo for c in ch.chambers] + [ch.chambers[-1].hi]
            P.expect(bounds == [gap] + [w.alpha for w in ch.walls] + [top], "chambers do not tile the range")
    crit = out["critical"]
    P.expect(crit.critical == oracle_critical_at_integer(TripleType(n1, n2, d1, d2), 2 * g - 2), "is_critical vs oracle")
    P.expect(out["dim"] == (g - 1) * (n1 * n1 + n2 * n2 - n1 * n2) + n2 * d1 - n1 * d2 + 1, "dimension closed form")
    fib = out["fibration"]
    P.expect(fib.empty_fiber == (fib.fiber_dim < 0), "fibration flag")
    flip = out["flip"]
    P.expect((flip is None) == (not walls), "flip presence")
    if flip is not None:
        P.expect(flip.alpha_c == alphas[len(alphas) // 2], "flip wall")
        P.expect(flip.dim_moduli == out["dim"], "flip dim_moduli")
        P.expect(flip.codim_in_moduli == out["dim"] - flip.stilde_dim == flip.minus_chi_cross_rev, "flip codimension identity")
    if inp["oracle"]:
        _check_oracle(P, inp["t"], walls, gap, top, drop)
    return P


# --------------------------------------------------------------------------
# wall-bulk: one op is one enumerate_walls, chambers or is_critical call


def op_wall(inp, call):
    T = call("triples.TripleType", TripleType, *inp["t"])
    op = inp["op"]
    if op == "walls":
        return {"walls": call("walls.enumerate_walls", enumerate_walls, T)}
    if op == "walls_interval":
        lo, hi = (F(x) for x in inp["interval"])
        return {"walls": call("walls.enumerate_walls", enumerate_walls, T, interval=(lo, hi))}
    if op == "walls_g":
        return {"walls": call("walls.enumerate_walls", enumerate_walls, T, g=inp["g"])}
    if op == "chambers":
        return {"chambers": call("walls.chambers", chambers, T, inp["g"])}
    return {"critical": call("walls.is_critical", is_critical, T, F(inp["alpha"]))}


def check_wall(inp, out):
    P = Problems()
    n1, n2, d1, d2 = T = inp["t"]
    gap = F(d1, n1) - F(d2, n2)
    hi = None if n1 == n2 else (1 + F(n1 + n2, abs(n1 - n2))) * gap
    op = inp["op"]
    if op == "walls":
        lo, top, drop = gap, hi, [gap, hi]
        _check_wall_list(P, T, out["walls"], lo, top, True, True)
    elif op == "walls_interval":
        lo, top = (F(x) for x in inp["interval"])
        drop = [gap]
        _check_wall_list(P, T, out["walls"], lo, top, lo == gap, False)
    elif op == "walls_g":
        lo, drop = gap, [gap]
        top = max(n1 * (n1 - 1) * gap, F(2 * inp["g"] - 2), gap) + 1
        _check_wall_list(P, T, out["walls"], lo, top, True, False)
    elif op == "chambers":
        ch = out["chambers"]
        top = hi if hi is not None else max(n1 * (n1 - 1) * gap, F(2 * inp["g"] - 2), gap) + 1
        _check_wall_list(P, T, ch.walls, gap, top, True, True)
        bounds = [c.lo for c in ch.chambers] + [ch.chambers[-1].hi]
        P.expect(bounds == [gap] + [w.alpha for w in ch.walls] + [top], "chambers do not tile the range")
        P.expect(ch.chambers[-1].is_large_chamber, "last chamber not large")
        return P
    else:
        crit = out["critical"]
        n, D = n1 + n2, d1 + d2
        a = crit.alpha
        P.expect(a == F(inp["alpha"]), "alpha echoed")
        for x in crit.witnesses:
            P.expect(n * x.dsum - (x.n1p + x.n2p) * D == a * (x.n1p * n2 - n1 * x.n2p), "critical witness")
        if op == "is_critical_wall":
            P.expect(crit.critical and tuple(inp["witness"]) in {(x.n1p, x.n2p, x.dsum) for x in crit.witnesses},
                     "wall value not critical")
        else:
            P.expect(not crit.critical and not crit.witnesses, "non-wall value critical")
        return P
    P.expect(len(out["walls"]) > 0, "empty scan")
    if inp["oracle"]:
        _check_oracle(P, T, out["walls"], lo, top, drop)
    return P


# --------------------------------------------------------------------------
# upq-census: one op is one (p, q, g)


def op_census(inp, call):
    p, q, g = inp["pqg"]
    rep = call("census.enumerate_region", enumerate_region, p, q, g)
    out = {
        "region": rep,
        "partition": call("census.coprime_partition", coprime_partition, p, q, g),
        "quotient": call("census.tau_quotient_facts", tau_quotient_facts, p, q),
        "verdicts": [],
        "mw": [],
        "rigidity": [],
    }
    for cp in rep.points:
        H = call("higgs.HiggsType", HiggsType, p, q, cp.a, cp.b, g)
        v = call("classify.classify", classify, H)
        out["verdicts"].append(v)
        out["mw"].append(call("higgs.mw_relations", mw_relations, H))
        if v.saturated:
            out["rigidity"].append(call("higgs.rigidity", rigidity, H))
    out["canonical"] = []
    for idx, l in inp["translates"]:
        cp = rep.points[idx % rep.count]
        out["canonical"].append(call("census.canonicalize", canonicalize, p, q, g, cp.a + l * p, cp.b + l * q))
    out["outside"] = refused(call, "census.canonicalize", canonicalize, p, q, g, *inp["outside"])
    out["bad_higgs"] = refused(call, "higgs.HiggsType", HiggsType, *inp["bad_higgs"])
    out["bad_chain"] = refused(call, "morse.HodgeChain", HodgeChain, *inp["bad_chain"])
    out["chains"] = []
    for ranks, degrees in inp["chains"]:
        C = call("morse.HodgeChain", HodgeChain, ranks, degrees)
        m = len(ranks)
        out["chains"].append({
            "index": call("morse.morse_index", morse_index, C, g),
            "uk": [call("morse.uk_profile", uk_profile, C, k) for k in range(-(m - 1), m)],
            "h1": [call("morse.dim_h1_weight", dim_h1_weight, C, k, g) for k in range(m)],
        })
    return out


_DECIDED = (
    "stable_nonempty",
    "closure_of_stable_connected",
    "full_space_nonempty",
    "full_space_connected",
)


def check_census(inp, out):
    P = Problems()
    p, q, g = inp["pqg"]
    k = math.gcd(p, q)
    bound = (p + q) * min(p, q) * (g - 1)
    rep = out["region"]
    pts = [(cp.a, cp.b) for cp in rep.points]
    P.expect(rep.count == len(pts) == 2 * bound + k, "census count differs from 2(p+q)min(p,q)(g-1)+gcd(p,q)")
    P.expect(len(set(pts)) == len(pts), "repeated class")
    P.expect(all(abs(a * q - b * p) <= bound for a, b in pts), "class beyond the Toledo bound")
    P.expect(all(len(line) == k for line in rep.lines.values()), "tau-line without gcd(p,q) points")
    P.expect(sum(len(line) for line in rep.lines.values()) == rep.count, "lines do not cover the census")
    part = out["partition"]
    cop = {(a, b) for a, b in pts if math.gcd(p + q, a + b) == 1}
    P.expect({(c.a, c.b) for c in part.coprime} == cop, "coprime part")
    P.expect(len(part.coprime) + len(part.non_coprime) == rep.count and part.both_nonempty, "partition sizes")
    quo = out["quotient"]
    P.expect(quo.k == quo.kernel_size == k and quo.image_lattice_step == F(2 * k, p + q), "tau quotient facts")
    expected_dim = 1 + (p + q) ** 2 * (g - 1)
    for v in out["verdicts"]:
        P.expect(v.in_range, "census class out of range")
        if v.coprime:
            fields = [getattr(v, f) for f in _DECIDED] + [
                v.r_gamma.nonempty, v.r_gamma.connected, v.r_gamma.stable_nonempty,
                v.r_gamma.closure_of_stable_connected, v.r_gamma.smooth_of_expected_dim,
                v.r_pu.nonempty, v.r_pu.connected,
            ]
            P.expect("unknown" not in fields and v.stable_smooth_dim == expected_dim,
                     "coprime class (%d, %d) not fully decided" % (v.higgs.a, v.higgs.b))
    P.expect(all(all(ok for _, ok in mw.facts) for mw in out["mw"]), "Milnor-Wood fact failed")
    m = min(p, q)
    for r in out["rigidity"]:
        P.expect(r.applies == (p != q), "rigidity applicability")
        if r.applies:
            P.expect(r.dim_sum == 2 + (4 * m * m + (p - q) ** 2) * (g - 1), "rigidity dimension sum")
    for (idx, _), c in zip(inp["translates"], out["canonical"]):
        P.expect((c.a, c.b) == pts[idx % rep.count], "canonicalize is not a retraction")
    P.expect(out["outside"] == REFUSED, "canonicalize accepted a class beyond the bound")
    P.expect(out["bad_higgs"] == REFUSED, "HiggsType accepted genus 1")
    P.expect(out["bad_chain"] == REFUSED, "HodgeChain accepted a zero rank")
    for (ranks, _), ch in zip(inp["chains"], out["chains"]):
        uk = ch["uk"]
        P.expect(all(r == r2 and d == -d2 for (r, d), (r2, d2) in zip(uk, reversed(uk))), "U_k reflection symmetry")
        mid = len(ranks) - 1
        index = sum((g - 1) * uk[mid + k][0] + (-1) ** (k + 1) * uk[mid + k][1] for k in range(2, len(ranks)))
        P.expect(ch["index"] == index, "Morse index differs from the U_k sum")
    return P


# --------------------------------------------------------------------------
# cli-mix: one op is one subprocess request


CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
TIMING_MARK = b"\x1eperfbench-cli "


def op_cli(inp, call):
    """Run one request. The plain run starts ``python -m
    triplemoduli.cli``; the traced run starts the benchmark's child
    driver, which times the import and ``main(argv)`` and reports them
    on the last line of stderr."""
    traced = hasattr(call, "record_cli")
    head = [sys.executable, CHILD] if traced else [sys.executable, "-m", "triplemoduli.cli"]
    t0 = time.perf_counter_ns()
    proc = subprocess.run(head + inp["argv"], capture_output=True, timeout=120)
    err = proc.stderr
    if traced:
        t1 = time.perf_counter_ns()
        err, _, line = err.rpartition(TIMING_MARK)
        call.record_cli(inp["argv"][0], t0, t1, [int(x) for x in line.split()], proc.returncode, len(proc.stdout))
    return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": err}


def check_cli(inp, out):
    """Exit code and stream shape for every request. Requests marked
    ``deep`` are also compared byte for byte with an in-process
    ``main(argv)``, and their JSON reports checked against closed forms."""
    P = Problems()
    rc, text, err = out["rc"], out["stdout"], out["stderr"]
    P.expect(rc == inp["expect"], "exit code %d, expected %d" % (rc, inp["expect"]))
    P.expect(b"Traceback" not in err, "traceback on stderr")
    if rc == 0:
        P.expect(text and not err, "exit 0 without a clean report")
    elif rc == 1:
        P.expect(not text and err.startswith(b"error: "), "exit 1 without an error line")
    elif rc == 2:
        P.expect(not text and b"usage:" in err, "exit 2 without usage")
    if not inp.get("deep") or P:
        return P
    from triplemoduli import cli

    buf, ebuf = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(ebuf):
        rc2 = cli.main(list(inp["argv"]))
    P.expect(rc2 == rc and buf.getvalue().encode() == text, "subprocess output differs from main(argv)")
    if rc == 0 and "--json" in inp["argv"]:
        rep = json.loads(text)
        P.expect(sorted(rep) == ["citations", "command", "inputs", "outputs", "warnings"], "envelope keys")
        P.expect(rep["command"] == inp["argv"][0], "envelope command")
        o = rep["outputs"]
        if rep["command"] == "census":
            pq, g = (rep["inputs"]["p"], rep["inputs"]["q"]), rep["inputs"]["g"]
            P.expect(o["count"] == 2 * sum(pq) * min(pq) * (g - 1) + math.gcd(*pq) == len(o["points"]), "census count")
        elif rep["command"] == "walls":
            P.expect(o["count"] == len(o["walls"]), "walls count")
    return P


WORKLOADS = {
    "triple-sweep": (op_triple, check_triple),
    "wall-bulk": (op_wall, check_wall),
    "upq-census": (op_census, check_census),
    "cli-mix": (op_cli, check_cli),
}
