"""Per-layer measurements for traced runs.

The counting pipeline is re-composed here from its public stages
(build_F, invert, shift, plethystic Log, x(1-s), plethystic Exp) with a
span around each call, and the composition is required to equal
compute_absim / compute_ss exactly.  Convolution pair counts are derived
from the per-degree bucket sizes of the public series, and scalar
statistics from their RatFunc coefficients.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from harness import BenchFailure, clear_module_caches, require_fresh


def _bucket_sizes(coeffs):
    """Number of nonzero coefficients per total dimension."""
    return Counter(m.total for m, v in coeffs.items() if not v.is_zero())


def _adams_sum(vfreps, coeffs, D):
    """Psi(f) = sum_beta psi_beta(f)/beta, computed from public RatFunc
    operations.  Psi of the plethystic Log is the ordinary log that the
    Log recurrence walks; Psi of the absim series is what Exp walks."""
    acc = {}
    for m, v in coeffs.items():
        beta = 1
        while beta * m.total <= D:
            key = vfreps.dimmonoid.scale(m, beta)
            term = v.adams(beta).scale(Fraction(1, beta))
            acc[key] = acc[key] + term if key in acc else term
            beta += 1
    return acc


def _pairs(left, right, D, skip):
    """Pairs a recurrence visits at each degree d <= D: the sum over
    1 <= d1 <= d - skip of |left_d1| * |right_(d-d1)|."""
    return {
        d: sum(left.get(d1, 0) * right.get(d - d1, 0) for d1 in range(1, d - skip + 1))
        for d in range(1, D + 1)
    }


def scalar_stats(series_list):
    """Distinct values, largest denominator degree and largest coefficient
    bit length over the coefficients of the given series."""
    values = set()
    for s in series_list:
        values.update(s.coeffs.values())
    max_den, max_bits = 0, 0
    for v in values:
        max_den = max(max_den, v.den.degree)
        for p in (v.num, v.den):
            for c in p.coefficients():
                max_bits = max(max_bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return {"distinct_values": len(values), "max_den_deg": max_den, "max_coeff_bits": max_bits}


def staged_pipeline(vfreps, tracer, g, D):
    """Run the pipeline stage by stage on a fresh graph g, check it against
    compute_absim / compute_ss on the same graph, time compute_sim, and
    return the unit's layer numbers and input properties."""
    series = vfreps.series
    exactalg = vfreps.exactalg
    require_fresh(g, f"staged {g.label}")
    with tracer.span("dimmonoid.enum"):
        keys = [len(vfreps.dimmonoid.enumerate_dimvectors(g, d)) for d in range(D + 1)]
    with tracer.span("series.build_F"):
        F = series.build_F(g, D)
    with tracer.span("series.invert"):
        Finv = series.invert(F)
    with tracer.span("series.shift"):
        U = series.shift(Finv, "inverse")
    with tracer.span("series.log"):
        L = series.plethystic(U, "log")
    with tracer.span("series.times_one_minus_s"):
        one_minus_s = exactalg.RatFunc.from_poly(exactalg.Poly.from_coeffs([1, -1]))
        absim = {}
        for m, v in L.coeffs.items():
            w = v * one_minus_s
            if w.is_zero():
                continue
            p = w.as_integer_poly()
            if p is None:
                raise BenchFailure(f"{g.label}: non-integral absim at {m}")
            absim[m] = p
    absim_series = series.GradedSeries(
        g, D, {m: exactalg.RatFunc.from_poly(p) for m, p in absim.items()}
    )
    with tracer.span("series.exp"):
        S = series.plethystic(absim_series, "exp")
    ss = {}
    for m, v in S.coeffs.items():
        p = v.as_integer_poly()
        if p is None:
            raise BenchFailure(f"{g.label}: non-integral ss at {m}")
        ss[m] = p

    with tracer.span("series.reference_pipeline"):
        ref_absim = series.compute_absim(g, D)
        ref_ss = series.compute_ss(g, D)
    if absim != ref_absim:
        raise BenchFailure(f"{g.label}: staged absim differs from compute_absim")
    if ss != ref_ss:
        raise BenchFailure(f"{g.label}: staged ss differs from compute_ss")
    with tracer.span("series.sim"):
        series.compute_sim(g, D)

    ell = _adams_sum(vfreps, L.coeffs, D)
    psi = _adams_sum(vfreps, absim_series.coeffs, D)
    F_sz, Finv_sz, U_sz = _bucket_sizes(F.coeffs), _bucket_sizes(Finv.coeffs), _bucket_sizes(U.coeffs)
    pairs = {
        "invert": _pairs(F_sz, Finv_sz, D, 0),
        "log": _pairs(_bucket_sizes(ell), U_sz, D, 1),
        "exp": _pairs(_bucket_sizes(psi), _bucket_sizes(S.coeffs), D, 0),
    }
    return {
        "keys_per_degree": keys,
        "pairs_per_degree": {k: [v[d] for d in range(1, D + 1)] for k, v in pairs.items()},
        "scalars": scalar_stats([F, Finv, L]),
        "absim": absim,
    }


def orbit_ratio(vfreps, g, D):
    """keys / symmetry orbits for d <= D, or None without a descriptor."""
    dm = vfreps.dimmonoid
    try:
        desc = dm.symmetry_descriptor(g)
    except ValueError:
        return None
    keys = sum(len(dm.enumerate_dimvectors(g, d)) for d in range(1, D + 1))
    orbits = sum(len(dm.symmetry_orbits(g, desc, d)) for d in range(1, D + 1))
    return keys / orbits


def oracle_point(vfreps, tracer, name, q, absim=None):
    """Time the brute-force oracle calls at d <= 2 for one preset and q on
    cold oracle caches, and compare them with the pipeline.  absim, when
    given, is the workload's own absim table of the same group.

    Returns a list of problems."""
    ff, gg, series = vfreps.fforacle, vfreps.groupgraph, vfreps.series
    clear_module_caches(gg.preset, ff.field, ff.power_solutions, ff.invariant_lines)
    p = ff.presentation(name)
    with tracer.span("fforacle.count_hom"):
        hom = {d: ff.count_hom(p, d, q) for d in (1, 2)}
    with tracer.span("fforacle.absim_orbits"):
        orbits = ff.count_absim_orbits(p, 2, q)
    g = gg.preset(name)
    problems = []
    for d, got in hom.items():
        want = sum(
            int(series.rep_space_count(g, m).eval(q))
            for m in vfreps.dimmonoid.enumerate_dimvectors(g, d)
        )
        if got != want:
            problems.append(f"oracle {name} q={q} d={d}: hom {got} != pipeline {want}")
    if absim is None:
        absim = series.compute_absim(g, 2)
    want = sum(int(pp.eval(q)) for m, pp in absim.items() if m.total == 2)
    if orbits != want:
        problems.append(f"oracle {name} q={q}: absim orbits {orbits} != pipeline {want}")
    return problems
