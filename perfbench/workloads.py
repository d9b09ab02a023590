"""The four workloads.  Each has a timed run (tracing off; end-to-end
numbers) and a traced run (spans around public calls; per-layer numbers
and consistency checks).

A timed run repeats its list of operations in rounds until the
requested seconds are used up; an operation is
  table-*         one cold `count --kind all --by dimvector --format json`
  requests-mixed  one request of the seeded closed-loop stream
  oracle-d2       one pass over the acceptance oracle point set
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import time

import checks
import harness
import layers
import pool as poolmod
from harness import (
    clear_module_caches,
    require_fresh_file_resolution,
    run_cli,
    run_rounds,
)

TABLE_DEPTH = {"psl2z": 7, "sl2z": 5}
# the acceptance suite's oracle points; a table group is checked at its q here
ORACLE_POINTS = [("dinf", 3), ("dinf", 5), ("psl2z", 7), ("gc(2)", 5), ("gc(2)", 13), ("sl2z", 13)]
ORACLE_FIELDS = (2, 3, 4, 5, 7, 9, 11, 13)
ORACLE_MAX_Q_IN_POOL = 7  # keeps the oracle share of a traced requests run small
LOAD_REPEATS = 5
STREAM_CHECK = 30  # requests replayed with tracing on and off


class Context:
    def __init__(self, vfreps, work, seed, golden, tracer):
        self.vfreps = vfreps
        self.cli = vfreps.cli
        self.work = work
        self.seed = seed
        self.golden = golden
        self.tracer = tracer
        self.probe = harness.SpeedProbe()
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def write_group(self, label, data):
        path = self.work / f"{label}.json"
        path.write_bytes(data)
        return path

    def count(self, problems):
        """Record one attempted operation; True when it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return not problems


def _table_argv(group, D):
    return ["count", "--group", group, "--max-dim", D, "--kind", "all", "--by", "dimvector", "--format", "json"]


def _load_ms(vfreps, data):
    times = []
    for _ in range(LOAD_REPEATS):
        t0 = time.perf_counter()
        vfreps.groupgraph.load(data)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def _output_tables(out):
    """{kind: {dimvector text: coefficient tuple}} of a table output."""
    tables = json.loads(out)["tables"]
    return {
        kind: {
            checks.dimvector_text(e["dimvector"]): tuple(checks.coeffs_of(e["coefficients"]))
            for e in tables[kind]
        }
        for kind in ("absim", "ss")
    }


def _staged_tables(g, D, vfreps):
    absim = vfreps.series.compute_absim(g, D)
    ss = vfreps.series.compute_ss(g, D)
    return {
        kind: {
            checks.dimvector_text(m.per_vertex): tuple(p.coefficients())
            for m, p in table.items() if m.total >= 1
        }
        for kind, table in (("absim", absim), ("ss", ss))
    }


def _unit_layers(ctx, unit, staged, load_ms):
    """Layer numbers of one unit of work from its spans and staged results."""
    totals = ctx.tracer.totals(unit)
    out = {
        "groupgraph.load_ms": load_ms,
        "dimmonoid.enum_s": totals["dimmonoid.enum"],
        "dimmonoid.keys": sum(staged["keys_per_degree"]),
        "series.build_F_s": totals["series.build_F"],
        "series.invert_s": totals["series.invert"],
        "series.shift_s": totals["series.shift"],
        "series.log_s": totals["series.log"],
        "series.exp_s": totals["series.exp"],
        "series.sim_s": totals["series.sim"],
        "series.invert_pairs": sum(staged["pairs_per_degree"]["invert"]),
        "series.log_pairs": sum(staged["pairs_per_degree"]["log"]),
        "series.exp_pairs": sum(staged["pairs_per_degree"]["exp"]),
    }
    for k, v in staged["scalars"].items():
        out[f"exactalg.{k}"] = v
    for span, metric in (
        ("fforacle.count_hom", "fforacle.count_hom_s"),
        ("fforacle.absim_orbits", "fforacle.absim_orbits_s"),
        ("cli.warm_call", "cli.warm_call_s"),
    ):
        if span in totals:
            out[metric] = totals[span]
    return out


def _aggregate(units, how):
    """Combine per-unit layer numbers: 'sum' over a pass, or 'median' over
    a pool.  A metric is combined over the units that measured it."""
    names = sorted({k for u in units for k in u})
    out = {}
    for name in names:
        vals = [u[name] for u in units if name in u]
        out[name] = sum(vals) if how == "sum" else statistics.median(vals)
    return out


def _stage_unit(ctx, unit, g, D, data):
    """Staged pipeline on a fresh graph plus a check against the command
    line's cold output on the same group file."""
    ctx.tracer.unit = unit
    staged = layers.staged_pipeline(ctx.vfreps, ctx.tracer, g, D)
    path = ctx.write_group(f"stage-{unit}", data)
    rc, out, err, _ = run_cli(ctx.cli, _table_argv(path, D))
    if rc != 0:
        ctx.count([f"{unit}: cold table exit {rc}: {err.strip()}"])
    else:
        same = _output_tables(out) == _staged_tables(g, D, ctx.vfreps)
        ctx.count([] if same else [f"{unit}: staged pipeline differs from command-line output"])
    return staged


def _warm_call(ctx, name, D):
    """cli.main on a preset graph whose absim and ss are already cached."""
    g = ctx.vfreps.groupgraph.preset(name)
    ctx.vfreps.series.compute_absim(g, D)
    ctx.vfreps.series.compute_ss(g, D)
    with ctx.tracer.span("cli.warm_call"):
        rc, out, err, _ = run_cli(ctx.cli, _table_argv(name, D))
    ctx.count([] if rc == 0 else [f"warm call on {name}: exit {rc}"])
    return out


def _smallest_q(vfreps, name):
    g = vfreps.groupgraph.preset(name)
    for q in ORACLE_FIELDS:
        if vfreps.groupgraph.is_suitable_prime_power(g, q):
            return q
    return None


# ---------------------------------------------------------------------------
# table-psl2z, table-sl2z
# ---------------------------------------------------------------------------

class Table:
    def __init__(self, name):
        self.name = name
        self.D = TABLE_DEPTH[name]

    def prepare(self, ctx):
        gg = ctx.vfreps.groupgraph
        self.data = gg.save(gg.preset(self.name))
        self.doc = json.loads(self.data)
        # named after the preset so the output's group label is the same
        self.path = ctx.write_group(self.name, self.data)
        return self.path

    def _cold_table(self, ctx):
        require_fresh_file_resolution(ctx.cli, self.path)
        gc.collect()
        return run_cli(ctx.cli, _table_argv(self.path, self.D))

    def timed(self, ctx, seconds, between_rounds):
        verified = []

        def op(i, round_no):
            rc, out, err, dt = self._cold_table(ctx)
            if rc != 0:
                ctx.count([f"exit {rc}: {err.strip()[-300:]}"])
            elif verified and out == verified[0]:
                ctx.count([])
            elif verified:
                ctx.count(["output differs from an earlier verified run"])
            elif ctx.count(checks.check_table(out, ctx.golden, self.name, self.doc, self.D)):
                verified.append(out)
            return dt

        scaled, samples, rounds = run_rounds(1, op, seconds, between_rounds, ctx.probe)
        return (scaled[0], samples, rounds), {"group": self.name, "D": self.D}

    def traced(self, ctx, seconds):
        vfreps, tracer = ctx.vfreps, ctx.tracer
        tracer.unit = self.name
        rc, plain, _, t_plain = self._cold_table(ctx)
        ctx.count(checks.check_table(plain, ctx.golden, self.name, self.doc, self.D) if rc == 0 else [f"exit {rc}"])
        require_fresh_file_resolution(ctx.cli, self.path)
        gc.collect()
        with tracer.span("cli.cold_table"):
            rc, traced_out, _, t_traced = run_cli(ctx.cli, _table_argv(self.path, self.D))
        ctx.count([] if traced_out == plain else ["stdout differs with tracing on"])

        load_ms = _load_ms(vfreps, self.data)
        clear_module_caches(vfreps.groupgraph.preset)
        g = vfreps.groupgraph.preset(self.name)
        staged = layers.staged_pipeline(vfreps, tracer, g, self.D)
        same = _output_tables(plain) == _staged_tables(g, self.D, vfreps)
        ctx.count([] if same else ["staged pipeline differs from command-line output"])
        warm = _warm_call(ctx, self.name, self.D)
        ctx.count([] if warm == plain else ["warm call output differs from cold output"])
        ctx.count(layers.oracle_point(vfreps, tracer, self.name, dict(ORACLE_POINTS)[self.name], staged["absim"]))

        per_layer = _unit_layers(ctx, self.name, staged, load_ms)
        details = {
            "group": self.name,
            "D": self.D,
            "keys_per_degree": staged["keys_per_degree"],
            "pairs_per_degree": staged["pairs_per_degree"],
            "max_den_deg": staged["scalars"]["max_den_deg"],
            "orbit_ratio": layers.orbit_ratio(vfreps, vfreps.groupgraph.load(self.data), self.D),
            "trace_overhead_s": t_traced - t_plain,
        }
        return per_layer, details


# ---------------------------------------------------------------------------
# requests-mixed
# ---------------------------------------------------------------------------

class Requests:
    name = "requests-mixed"

    def prepare(self, ctx):
        self.pool = poolmod.make_pool(ctx.seed, ctx.vfreps)
        self.paths = [ctx.write_group(e["label"], e["bytes"]) for e in self.pool]
        return self.paths[0]

    def _send(self, ctx, req):
        path = self.paths[req["group"]]
        require_fresh_file_resolution(ctx.cli, path)
        return run_cli(ctx.cli, poolmod.argv(req, path))

    def timed(self, ctx, seconds, between_rounds):
        reqs = poolmod.request_list(ctx.seed, self.pool)
        first = {}  # request id -> (stdout digest, passed) of its first round

        def op(i, round_no):
            req = reqs[i]
            rc, out, err, dt = self._send(ctx, req)
            digest = hashlib.sha256(out.encode()).digest()
            if round_no == 0:
                problems = checks.check_request(req, rc, out, self.pool[req["group"]]["doc"])
                first[i] = (digest, ctx.count([f"request {req}: {p}" for p in problems]))
            else:
                ctx.count([] if first[i] == (digest, True) else [f"request {req}: repeat differs or failed"])
            return dt

        scaled, samples, rounds = run_rounds(len(reqs), op, seconds, between_rounds, ctx.probe)
        return ([t for per_req in scaled for t in per_req], samples, rounds), {
            "pool": [{k: e[k] for k in ("label", "D", "keys", "has_descriptor")} for e in self.pool],
            "descriptor_share": sum(self.pool[r["group"]]["has_descriptor"] for r in reqs) / len(reqs),
            "requests_per_round": len(reqs),
        }

    def traced(self, ctx, seconds):
        vfreps, tracer = ctx.vfreps, ctx.tracer
        # identical stdout with tracing on and off, and the tracing overhead
        reqs = poolmod.request_list(ctx.seed, self.pool)[:STREAM_CHECK]
        tracer.unit = "stream"
        plain = [self._send(ctx, r) for r in reqs]
        traced = []
        for r in reqs:
            with tracer.span("request"):
                traced.append(self._send(ctx, r))
        for r, a, b in zip(reqs, plain, traced):
            ctx.count([] if a[:2] == b[:2] else [f"request {r}: stdout differs with tracing on"])
        overhead = sum(b[3] for b in traced) - sum(a[3] for a in plain)

        units, orbit_ratios = [], []
        for e in self.pool:
            g = vfreps.groupgraph.load(e["bytes"])
            staged = _stage_unit(ctx, e["label"], g, e["D"], e["bytes"])
            if e["preset"]:
                _warm_call(ctx, e["preset"], e["D"])
            q = _smallest_q(vfreps, e["oracle"]) if e["oracle"] else None
            if q is not None and q <= ORACLE_MAX_Q_IN_POOL:
                ctx.count(layers.oracle_point(vfreps, tracer, e["oracle"], q))
            units.append(_unit_layers(ctx, e["label"], staged, _load_ms(vfreps, e["bytes"])))
            ratio = layers.orbit_ratio(vfreps, vfreps.groupgraph.load(e["bytes"]), e["D"])
            if ratio is not None:
                orbit_ratios.append(ratio)
            e["keys_per_degree"] = staged["keys_per_degree"]
            e["pairs_per_degree"] = staged["pairs_per_degree"]
            e["max_den_deg"] = staged["scalars"]["max_den_deg"]
        details = {
            "pool": [
                {k: e[k] for k in ("label", "D", "has_descriptor", "keys_per_degree",
                                   "pairs_per_degree", "max_den_deg")}
                for e in self.pool
            ],
            "descriptor_share_of_pool": sum(e["has_descriptor"] for e in self.pool) / len(self.pool),
            "orbit_ratio_median": statistics.median(orbit_ratios) if orbit_ratios else None,
            "trace_overhead_s": overhead,
        }
        return _aggregate(units, "median"), details


# ---------------------------------------------------------------------------
# oracle-d2
# ---------------------------------------------------------------------------

class Oracle:
    name = "oracle-d2"

    def prepare(self, ctx):
        gg = ctx.vfreps.groupgraph
        self.points = list(ORACLE_POINTS)
        random.Random(f"oracle-{ctx.seed}").shuffle(self.points)
        self.calls = []
        for name, q in self.points:
            for d, check in ((1, "hom"), (2, "hom"), (2, "absim")):
                self.calls.append(["oracle", "--group", name, "--q", q, "--dim", d, "--check", check])
        self.calls += [["oracle", "--group", "psl2z", "--q", 7, "--dim", d, "--check", "per-vector"] for d in (1, 2)]
        self.data = {name: gg.save(gg.preset(name)) for name, _ in self.points}
        return ctx.write_group("sl2z", self.data["sl2z"])

    def _clear(self, ctx):
        ff, gg = ctx.vfreps.fforacle, ctx.vfreps.groupgraph
        clear_module_caches(gg.preset, ff.field, ff.power_solutions, ff.invariant_lines)
        gc.collect()

    def _pass(self, ctx, spans=False):
        self._clear(ctx)
        results = []
        t0 = time.perf_counter()
        for argv in self.calls:
            if spans:
                with ctx.tracer.span("cli.oracle"):
                    results.append(run_cli(ctx.cli, argv))
            else:
                results.append(run_cli(ctx.cli, argv))
        return time.perf_counter() - t0, results

    def _check(self, ctx, i, result, reference):
        argv, (rc, out, err, _) = self.calls[i], result
        problems = []
        if rc != 0 or "FAIL" in out or "PASS" not in out:
            problems.append(f"{argv}: exit {rc}: {out.strip()[-200:]} {err.strip()[-200:]}")
        if argv[2] == "psl2z" and argv[-1] == "absim" and "oracle=15 " not in out:
            problems.append("psl2z q=7 absim orbit count is not 15")
        if reference is not None and out != reference:
            problems.append(f"{argv}: output differs from the first pass")
        ctx.count(problems)

    def timed(self, ctx, seconds, between_rounds):
        first = {}  # call index -> stdout of the first pass

        def op(i, round_no):
            if i == 0:
                self._clear(ctx)
            result = run_cli(ctx.cli, self.calls[i])
            self._check(ctx, i, result, first.get(i))
            first.setdefault(i, result[1])
            return result[3]

        scaled, samples, rounds = run_rounds(len(self.calls), op, seconds, between_rounds, ctx.probe)
        # the operation is one pass over the point set
        passes = [sum(per_call[r] for per_call in scaled) for r in range(rounds)]
        return (passes, samples, rounds), {"points": self.points, "calls_per_pass": len(self.calls)}

    def traced(self, ctx, seconds):
        vfreps, tracer = ctx.vfreps, ctx.tracer
        tracer.unit = "pass"
        t_plain, plain = self._pass(ctx)
        t_traced, traced = self._pass(ctx, spans=True)
        for i in range(len(self.calls)):
            self._check(ctx, i, plain[i], None)
            self._check(ctx, i, traced[i], plain[i][1])

        units = []
        for name, q in self.points:
            unit = f"{name}@{q}"
            clear_module_caches(vfreps.groupgraph.preset)
            g = vfreps.groupgraph.preset(name)
            staged = _stage_unit(ctx, unit, g, 2, self.data[name])
            _warm_call(ctx, name, 2)
            ctx.count(layers.oracle_point(vfreps, tracer, name, q, staged["absim"]))
            units.append(_unit_layers(ctx, unit, staged, _load_ms(vfreps, self.data[name])))
        details = {"points": self.points, "trace_overhead_s": t_traced - t_plain}
        return _aggregate(units, "sum"), details


WORKLOADS = {
    "table-psl2z": lambda: Table("psl2z"),
    "table-sl2z": lambda: Table("sl2z"),
    "requests-mixed": Requests,
    "oracle-d2": Oracle,
}
