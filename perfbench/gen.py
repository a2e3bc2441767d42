"""Seeded inputs for the four benchmark workloads.

Every generator takes a ``random.Random`` and a ``smoke`` flag and
returns ``{"warmup": [...], "passes": [[...], ...]}``. The benchmark
times whole passes, so every pass has the same composition: the seed
picks *which* inputs fill each slot, never how many or how large. That
keeps the latency percentiles and the throughput comparable across
seeds. No input repeats anywhere in one run, and the warm-up inputs are
drawn from slots the timed passes never use, so a memo cache cannot turn
a timed op into a lookup.

Only integer and ``Fraction`` arithmetic is used; rationals travel as
"num/den" strings. The generators never import the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

def _rat(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


def _gap(n1, n2, d1, d2) -> Fraction:
    return Fraction(d1, n1) - Fraction(d2, n2)


def _alpha_M(n1, n2, d1, d2):
    """Upper end of the admissible range; None when n1 = n2."""
    if n1 == n2:
        return None
    return (1 + Fraction(n1 + n2, abs(n1 - n2))) * _gap(n1, n2, d1, d2)


def _admissible_pairs(n1, n2):
    return [
        (a, b)
        for a in range(n1 + 1)
        for b in range(n2 + 1)
        if (a, b) != (0, 0) and a * n2 != n1 * b
    ]


# --------------------------------------------------------------------------
# triple-sweep


def triple_sweep(rng, smoke: bool) -> dict:
    """Stratified sample of small types with a non-empty range.

    Strata are the rank pairs; inside each, types are sorted by the gap
    mu1 - mu2 (which sets the wall count and, for equal ranks, the
    horizon) and cut into equal bins. A pass takes one unused type from
    every bin, so every pass has the same spread of sizes.
    """
    ranks = range(1, 3) if smoke else range(1, 7)
    dmax = 3 if smoke else 15
    bins_per_pair = 2 if smoke else 8
    bins = []
    for n1 in ranks:
        for n2 in ranks:
            pool = [
                (n1, n2, d1, d2)
                for d1 in range(-dmax, dmax + 1)
                for d2 in range(-dmax, dmax + 1)
                if d1 * n2 >= d2 * n1
            ]
            pool.sort(key=lambda t: (_gap(*t), t[2]))
            size = len(pool) // bins_per_pair
            for i in range(bins_per_pair):
                b = pool[i * size:(i + 1) * size]
                rng.shuffle(b)
                bins.append(b)
    warm = [b.pop() for b in bins[::6]]
    n_passes = min(len(b) for b in bins)
    every = 8 if smoke else 32

    def item(t, k):
        g = rng.randint(2, 6)
        return {"t": list(t), "g": g, "oracle": k % every == 0}

    passes = []
    for p in range(n_passes):
        row = [item(b[p], k) for k, b in enumerate(bins)]
        rng.shuffle(row)
        passes.append(row)
    return {"warmup": [item(t, 1) for t in warm], "passes": passes}


# --------------------------------------------------------------------------
# wall-bulk

# (op, (n1, n2), D): the type is (n1, n2, D + j1, -D - j2) with a small
# seeded jitter (j1, j2) that is new in every pass. The (3, 2) rungs
# repeat so that the median and the p75 tail fall among ops of one size:
# five at D = 500 hold the middle of the latencies, and the two at
# D = 1000 sit with (2, 3) at 1000 around the tail.
_WALL_LADDER = [
    ("walls", (5, 3), 250),
    ("walls", (5, 3), 500),
    ("walls", (5, 3), 1000),
    ("walls", (5, 3), 2000),
    ("walls", (5, 3), 4000),
    ("walls", (3, 2), 500),
    ("walls", (3, 2), 500),
    ("walls", (3, 2), 500),
    ("walls", (3, 2), 500),
    ("walls", (3, 2), 500),
    ("walls", (3, 2), 1000),
    ("walls", (3, 2), 1000),
    ("walls", (4, 1), 1000),
    ("walls", (4, 1), 4000),
    ("walls", (2, 3), 1000),
    ("walls_interval", (3, 3), 500),
    ("walls_interval", (3, 3), 2000),
    ("walls_g", (4, 4), 125),
    ("walls_g", (4, 4), 250),
    ("chambers", (5, 3), 500),
    ("chambers", (5, 3), 1000),
    ("chambers", (3, 3), 250),
    ("is_critical_wall", (5, 3), 4000),
    ("is_critical_wall", (3, 3), 500),
    ("is_critical_wall", (4, 1), 1000),
    ("is_critical_free", (5, 3), 4000),
    ("is_critical_free", (3, 2), 1000),
    ("is_critical_free", (4, 4), 250),
]
_WALL_LADDER_SMOKE = [
    ("walls", (5, 3), 10),
    ("walls", (2, 1), 20),
    ("walls_interval", (3, 3), 10),
    ("walls_g", (2, 2), 5),
    ("chambers", (5, 3), 10),
    ("chambers", (2, 2), 5),
    ("is_critical_wall", (5, 3), 10),
    ("is_critical_free", (2, 2), 10),
]
# Non-wall test values have this prime denominator, larger than any
# wall denominator |n1' n2 - n1 n2'| <= n1 n2 in the ladder.
_FREE_DEN = 10007


def _wall_item(rng, op, ranks, D, jitter):
    n1, n2 = ranks
    d1, d2 = D + jitter[0], -D - jitter[1]
    T = [n1, n2, d1, d2]
    lo = _gap(n1, n2, d1, d2)
    hi = _alpha_M(n1, n2, d1, d2)
    if hi is None:
        hi = lo + D
    item = {"op": op, "t": T, "oracle": False}
    if op == "walls_interval":
        item["interval"] = [_rat(lo), _rat(lo + D)]
    elif op in ("walls_g", "chambers"):
        item["g"] = rng.randint(2, 6)
    elif op == "is_critical_wall":
        n, tot = n1 + n2, d1 + d2
        a, b = rng.choice(_admissible_pairs(n1, n2))
        det = a * n2 - n1 * b
        target = lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)
        dp = round((target * det + (a + b) * tot) / n)
        item["alpha"] = _rat(Fraction(n * dp - (a + b) * tot, det))
        item["witness"] = [a, b, dp]
    elif op == "is_critical_free":
        k = math.floor((lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)) * _FREE_DEN)
        if k % _FREE_DEN == 0:
            k += 1
        item["alpha"] = _rat(Fraction(k, _FREE_DEN))
    return item


def wall_bulk(rng, smoke: bool) -> dict:
    """A fixed degree ladder of wide-window wall scans.

    Every pass runs the whole ladder once, in a seeded order, with a
    jitter pair (j1, j2) per rung that no other pass of the run repeats.
    """
    ladder = _WALL_LADDER_SMOKE if smoke else _WALL_LADDER
    n_passes = 6 if smoke else 12
    # one shuffled jitter grid per distinct rung, large enough that its
    # repeats in the ladder never share a jitter
    jitters = {}
    for rung in ladder:
        if rung not in jitters:
            D = rung[2]
            J = max(3, D // 100)
            while (J + 1) ** 2 < ladder.count(rung) * n_passes + 1:
                J += 1
            grid = [(i, j) for i in range(J + 1) for j in range(J + 1)]
            rng.shuffle(grid)
            jitters[rung] = grid
    # the warm-up takes the last jitter of the rungs with D <= 500
    warm = [_wall_item(rng, op, r, D, jitters[op, r, D].pop()) for op, r, D in dict.fromkeys(ladder) if D <= 500]
    passes = []
    for p in range(n_passes):
        row = [_wall_item(rng, *rung, jitters[rung].pop(0)) for rung in ladder]
        if p == 0:
            for it in row:
                small = max(abs(it["t"][2]), abs(it["t"][3])) <= 260
                it["oracle"] = it["op"].startswith("walls") and small
        rng.shuffle(row)
        passes.append(row)
    return {"warmup": warm, "passes": passes}


# --------------------------------------------------------------------------
# upq-census

# Target Toledo bounds (p+q) min(p,q) (g-1) of the ladder's rungs, with
# their tolerance. The census of a rung visits about bound^2 grid cells,
# whatever the shape (p, q), and emits 2 bound + gcd(p,q) classes. Three
# ops of the 250 rung hold the middle three sevenths of the latencies, so
# the median has many samples; two of the largest rung hold the top two
# sevenths and set the tail.
_CENSUS_RUNGS = [(60, 0.1), (150, 0.05), (250, 0.03), (250, 0.03), (250, 0.03), (400, 0.02), (400, 0.02)]
_CENSUS_RUNGS_SMOKE = [(6, 0.3), (10, 0.2), (14, 0.2)]
_CENSUS_WARM = (20, 0.1)
_CENSUS_WARM_SMOKE = (3, 0.4)


def _census_candidates(target, tol):
    out = []
    for p in range(1, 13):
        for q in range(1, 13):
            for g in range(2, 200):
                bound = (p + q) * min(p, q) * (g - 1)
                if abs(bound - target) <= tol * target:
                    out.append((p, q, g))
    return out


def _census_item(rng, pqg):
    p, q, g = pqg
    bound = (p + q) * min(p, q) * (g - 1)
    translates = [[rng.randrange(1 << 30), rng.choice([-6, -5, -3, -2, -1, 1, 2, 4, 7])] for _ in range(4)]
    # a class beyond the Toledo bound |aq - bp| <= bound: canonicalize refuses
    outside = [bound // q + 1 + rng.randint(0, 3), 0]
    chains = []
    for _ in range(3):
        m = rng.randint(2, 5)
        chains.append([[rng.randint(1, 3) for _ in range(m)], [rng.randint(-6, 6) for _ in range(m)]])
    return {
        "pqg": [p, q, g],
        "translates": translates,
        "outside": outside,
        "chains": chains,
        # a zero rank and a genus below 2: expected refusals
        "bad_chain": [[1, 0], [0, 0]],
        "bad_higgs": [p, q, 0, 0, 1],
    }


def upq_census(rng, smoke: bool) -> dict:
    """A (p, q, g) ladder; each rung draws an unused triple of about the
    rung's Toledo bound, so every pass has the same sizes."""
    rungs = _CENSUS_RUNGS_SMOKE if smoke else _CENSUS_RUNGS
    cands = {}
    for rung in sorted(set(rungs)):
        c = _census_candidates(*rung)
        rng.shuffle(c)
        cands[rung] = c
    warm_c = _census_candidates(*(_CENSUS_WARM_SMOKE if smoke else _CENSUS_WARM))
    rng.shuffle(warm_c)
    taken = {rung: 0 for rung in cands}
    passes = []
    n_passes = min(len(cands[r]) // rungs.count(r) for r in cands)
    for _ in range(n_passes):
        row = []
        for rung in rungs:
            row.append(_census_item(rng, cands[rung][taken[rung]]))
            taken[rung] += 1
        rng.shuffle(row)
        passes.append(row)
    return {"warmup": [_census_item(rng, x) for x in warm_c[:3]], "passes": passes}


# --------------------------------------------------------------------------
# cli-mix


def _small_type(rng, rmax=3, dmax=6, equal_ok=True, strict=True):
    while True:
        n1, n2 = rng.randint(1, rmax), rng.randint(1, rmax)
        d1, d2 = rng.randint(-dmax, dmax), rng.randint(-dmax, dmax)
        if not equal_ok and n1 == n2:
            continue
        gap = d1 * n2 - d2 * n1
        if gap > 0 or (gap == 0 and not strict):
            return n1, n2, d1, d2


def _tflags(t):
    return ["--n1", str(t[0]), "--n2", str(t[1]), "--d1", str(t[2]), "--d2", str(t[3])]


def _higgs_flags(rng, saturated=False):
    p, q, g = rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 4)
    if saturated:
        while p == q:
            q = rng.randint(1, 3)
        # search for a saturated class: |qa - pb| = min(p,q)(p+q)(g-1)
        while True:
            a, b = rng.randint(-20, 20), rng.randint(-20, 20)
            if abs(q * a - p * b) == min(p, q) * (p + q) * (g - 1):
                break
    else:
        bound = min(p, q) * (p + q) * (g - 1)
        while True:
            a, b = rng.randint(-8, 8), rng.randint(-8, 8)
            if abs(q * a - p * b) <= bound:
                break
    return ["--p", str(p), "--q", str(q), "--a", str(a), "--b", str(b), "--g", str(g)]


def _cli_request(rng, kind, json_mode, census_pool):
    """One argv (without the interpreter part) and its expected exit code."""
    rc = 0
    if kind == "triple":
        argv = ["triple"] + _tflags(_small_type(rng, strict=False)) + ["--g", str(rng.randint(2, 5))]
        if rng.random() < 0.5:
            argv += ["--alpha", _rat(Fraction(rng.randint(0, 40), rng.randint(1, 7)))]
    elif kind == "walls":
        t = _small_type(rng, equal_ok=False)
        argv = ["walls"] + _tflags(t)
        if rng.random() < 0.5:
            argv += ["--alpha", _rat(Fraction(rng.randint(0, 40), rng.randint(1, 4)))]
    elif kind == "chambers":
        argv = ["chambers"] + _tflags(_small_type(rng)) + ["--g", str(rng.randint(2, 5))]
    elif kind in ("higgs", "classify"):
        argv = [kind] + _higgs_flags(rng)
    elif kind == "rigidity":
        argv = ["rigidity"] + _higgs_flags(rng, saturated=True)
    elif kind == "morse":
        m = rng.randint(2, 5)
        ranks = ",".join(str(rng.randint(1, 3)) for _ in range(m))
        degs = ",".join(str(rng.randint(-6, 6)) for _ in range(m))
        argv = ["morse", "--ranks=" + ranks, "--degrees=" + degs, "--g", str(rng.randint(2, 5))]
    elif kind == "census":
        p, q, g = rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 4)
        argv = ["census", "--p", str(p), "--q", str(q), "--g", str(g)]
    elif kind == "census_canon":
        p, q, g = rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 4)
        l = rng.randint(-5, 5)
        argv = ["census", "--p", str(p), "--q", str(q), "--g", str(g), "--a", str(l * p), "--b", str(l * q)]
    elif kind == "walls_large":
        argv = ["walls"] + _tflags((5, 3, 300 + rng.randint(0, 20), -300 - rng.randint(0, 20)))
    elif kind == "census_large":
        p, q, g = rng.choice(census_pool)
        argv = ["census", "--p", str(p), "--q", str(q), "--g", str(g)]
    elif kind == "exit1_genus":
        argv = ["census", "--p", str(rng.randint(1, 9)), "--q", str(rng.randint(1, 9)), "--g", "1"]
        rc = 1
    elif kind == "exit1_empty":
        while True:
            t = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(-6, 6), rng.randint(-6, 6))
            if t[2] * t[1] < t[3] * t[0]:
                break
        argv = ["chambers"] + _tflags(t) + ["--g", "2"]
        rc = 1
    elif kind == "exit2_rational":
        bad = rng.choice(["%d/x", "%d.5", "%de3", "%d//2"]) % rng.randint(1, 99)
        argv = ["walls"] + _tflags(_small_type(rng, equal_ok=False)) + ["--alpha", bad]
        rc = 2
    elif kind == "exit2_missing":
        argv = ["triple", "--n1", str(rng.randint(1, 9)), "--d1", str(rng.randint(-9, 9))]
        rc = 2
    else:
        raise ValueError(kind)
    if json_mode:
        argv.append("--json")
    return {"argv": argv, "expect": rc}


# (kind, json?) for one pass: 30 small successes over all eight
# subcommands, 4 expected refusals (exit 1 and exit 2), and 10 large
# outputs that hold the top 23% of the latencies, so that the p90 tail
# falls in the middle of the large requests.
_CLI_PASS = (
    [("triple", j) for j in (1, 1, 0, 0)]
    + [("walls", j) for j in (1, 1, 0, 0)]
    + [("chambers", j) for j in (1, 1, 0, 0)]
    + [("higgs", j) for j in (1, 1, 0, 0)]
    + [("rigidity", j) for j in (1, 0, 0)]
    + [("morse", j) for j in (1, 1, 0, 0)]
    + [("census", 1), ("census", 0), ("census_canon", 1)]
    + [("classify", j) for j in (1, 1, 0, 0)]
    + [("exit1_genus", 0), ("exit1_empty", 1), ("exit2_rational", 1), ("exit2_missing", 0)]
    + [("walls_large", j) for j in (1, 1, 1, 0, 0)]
    + [("census_large", j) for j in (1, 1, 1, 0, 0)]
)
_CLI_PASS_SMOKE = [
    ("triple", 1), ("walls", 0), ("chambers", 1), ("higgs", 0), ("rigidity", 1),
    ("morse", 0), ("census_canon", 1), ("classify", 0), ("exit1_genus", 1), ("exit2_rational", 0),
]


def cli_mix(rng, smoke: bool) -> dict:
    plan = _CLI_PASS_SMOKE if smoke else _CLI_PASS
    n_passes = 3 if smoke else 12
    used = set()
    census_pool = _census_candidates(300, 0.03)

    def req(kind, j):
        while True:
            r = _cli_request(rng, kind, j, census_pool)
            key = tuple(r["argv"])
            if key not in used:
                used.add(key)
                return r

    warm = [req(k, j) for k, j in plan[::4]]
    passes = []
    for p in range(n_passes):
        row = [req(k, j) for k, j in plan]
        for r in row:
            r["deep"] = p == 0
        rng.shuffle(row)
        passes.append(row)
    for r in warm:
        r["deep"] = True
    return {"warmup": warm, "passes": passes}


GENERATORS = {
    "triple-sweep": triple_sweep,
    "wall-bulk": wall_bulk,
    "upq-census": upq_census,
    "cli-mix": cli_mix,
}
