"""Shared measurement pieces: spans, statistics, set-up time, cold-start
self-tests and captured in-process calls of the command line."""

from __future__ import annotations

import bisect
import contextlib
import io
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "fixtures" / "golden_tables.json"


class BenchFailure(Exception):
    """A self-test of the benchmark failed; the run reports correct=false."""


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans recorded around public calls into each layer.

    A span has a name, start and end (perf_counter seconds), the index of
    the span open when it started, and the unit of work it belongs to (a
    group, or one oracle point).  Nothing is written until the run ends.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self.unit = None

    @contextlib.contextmanager
    def span(self, name):
        rec = {
            "name": name,
            "unit": self.unit,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def totals(self, unit):
        """{span name: summed duration of its spans in that unit}."""
        out = {}
        for s in self.spans:
            if s["unit"] == unit:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def self_times(self):
        """Per span name: total duration minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {}
        for i, s in enumerate(self.spans):
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - child[i]
        return out


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, p):
    """Linear-interpolated percentile p in [0, 100] of a non-empty list."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timing_summary(values):
    """Median with its sample count, and the highest of p90/p99/p99.9 that
    has at least ten samples beyond it (None when there are too few)."""
    n = len(values)
    tail = None
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            tail = {"p": p, "value": percentile(values, p)}
            break
    return {
        "n": n,
        "median": statistics.median(values),
        "p90": percentile(values, 90.0),
        "tail": tail,
    }


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

# The reference kernel's time on the 2.1 GHz Xeon virtual machine the
# benchmark was built on, when the shared host was quiet.  Timings are
# scaled to that speed.
REFERENCE_S = 0.008
REFERENCE_INTERVAL_S = 0.25

_REF_A = [((i * 7919) % 1000003) - 500000 for i in range(30)]
_REF_B = [((i * 104729) % 999983) - 499991 for i in range(30)]


def _reference_kernel():
    """Fixed pure-Python work of the same kind as the pipeline's: integer
    polynomial products, tuple-keyed dicts and Fraction sums."""
    acc = {}
    for r in range(50):
        out = [0] * 59
        for i, x in enumerate(_REF_A):
            for j, y in enumerate(_REF_B):
                out[i + j] += x * y * (r + 1)
        key = tuple(c % 101 for c in out)
        acc[key] = acc.get(key, 0) + 1
        total = Fraction(0)
        for c in out[:12]:
            total += Fraction(c, 3 + r)
        acc[r] = [(tuple(out[k:k + 3]), total) for k in range(0, 57, 3)]
    return acc


class SpeedProbe:
    """Times the reference kernel between operations.

    The speed of the shared host this benchmark runs on drifts by up to
    1.7x over periods from seconds to minutes, which moves every wall
    time of a run together.  An operation's time multiplied by
    REFERENCE_S over the reference time measured around it is the time it
    would take at the reference speed; on this host that cut the spread
    of 10-second medians from 25 % to 8 %.  Nothing of vfreps runs in the
    kernel, so a change to vfreps does not move it.
    """

    def __init__(self):
        self.starts = []
        self.times = []

    def sample(self):
        t0 = time.perf_counter()
        _reference_kernel()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def maybe_sample(self):
        if not self.starts or time.perf_counter() - self.starts[-1] >= REFERENCE_INTERVAL_S:
            self.sample()

    def scale(self, t_start, t_end):
        """REFERENCE_S over the mean of the last reference time before
        t_start and the first after t_end."""
        before = bisect.bisect_right(self.starts, t_start) - 1
        after = bisect.bisect_left(self.starts, t_end)
        ref = (self.times[max(before, 0)] + self.times[min(after, len(self.times) - 1)]) / 2
        return REFERENCE_S / ref


def run_rounds(n_ops, run_op, seconds, between_rounds, probe):
    """Run operations 0..n_ops-1 in rounds, run_op(i, round) returning
    each one's wall seconds, until the next round would end after
    `seconds` (at least one round).  between_rounds() runs after every
    round, the probe samples host speed between operations.

    Returns (per operation, its times at reference speed in round order;
    every wall time; number of rounds).
    """
    timeline = []
    rounds = 0
    t_start = time.perf_counter()
    probe.sample()
    while True:
        t_round = time.perf_counter()
        for i in range(n_ops):
            probe.maybe_sample()
            t0 = time.perf_counter()
            timeline.append((i, t0, run_op(i, rounds)))
        rounds += 1
        between_rounds()
        now = time.perf_counter()
        if now - t_start + (now - t_round) > seconds:
            break
    probe.sample()
    scaled = [[] for _ in range(n_ops)]
    for i, t0, dt in timeline:
        scaled[i].append(dt * probe.scale(t0, t0 + dt))
    return scaled, [dt for _, _, dt in timeline], rounds


def peak_rss_mib():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up time: fresh interpreter -> imported vfreps -> loaded, validated group
# ---------------------------------------------------------------------------

_SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import vfreps; "
    "data = open(sys.argv[2], 'rb').read(); "
    "g = vfreps.load(data); sys.exit(1 if vfreps.validate(g) else 0)"
)

SETUP_REPEATS = 9


def setup_once(group_file):
    """Wall time of one fresh interpreter that imports vfreps and loads
    one group file; raises BenchFailure if it fails."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_SNIPPET, str(SRC), str(group_file)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=60,
    )
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchFailure(
            "set-up interpreter failed: " + proc.stderr.decode(errors="replace")[-500:]
        )
    return dt


# ---------------------------------------------------------------------------
# cold-start self-test
# ---------------------------------------------------------------------------

def cache_contents(g):
    """Names of the graph's per-graph caches that hold anything.

    Every attribute whose name mentions "cache" counts, so a cache added
    later is covered without editing this test."""
    filled = []
    for name in dir(g):
        if "cache" in name:
            val = getattr(g, name)
            if hasattr(val, "__len__") and len(val):
                filled.append(name)
    return filled


def require_fresh(g, where):
    filled = cache_contents(g)
    if filled:
        raise BenchFailure(f"{where}: timed run starts with filled caches {filled}")


def require_fresh_file_resolution(cli, path):
    """The command line must build a new, empty graph for every call on a
    group file; two resolutions of the same file may not share a graph."""
    a = cli.resolve_group(str(path))
    b = cli.resolve_group(str(path))
    if a is b:
        raise BenchFailure(f"{path}: group files resolve to a shared graph")
    require_fresh(a, str(path))


def clear_module_caches(*fns):
    """Empty lru caches of public functions (presets, oracle tables) and
    check that they are empty."""
    for fn in fns:
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()
            if fn.cache_info().currsize:
                raise BenchFailure(f"{fn.__name__}: cache not empty after clear")


# ---------------------------------------------------------------------------
# in-process command-line calls
# ---------------------------------------------------------------------------

def run_cli(cli, argv):
    """cli.main(argv) with stdout and stderr captured.

    Returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main([str(a) for a in argv])
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt
