import json
from fractions import Fraction

import pytest

from vfreps.groupgraph import (
    Edge,
    FiniteGroupData,
    GraphOfGroups,
    RestrictionMap,
    PRESET_NAMES,
    ValidationError,
    cyclic_amalgam_orders,
    cyclic_group,
    dihedral_group,
    is_suitable_prime_power,
    load,
    preset,
    save,
    validate,
)

ALL_PRESETS = [
    "free(0)", "free(1)", "free(2)", "cyclic(1)", "cyclic(4)", "dihedral(2)",
    "dihedral(3)", "dihedral(6)", "cyclic_free_product(2,3)",
    "cyclic_amalgam(4,2,6)", "dinf", "gc(1)", "gc(2)", "gc(3)",
    "psl2z", "sl2z", "gl2z", "pgl2z",
]


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_presets_validate(name):
    assert validate(preset(name)) == []


def test_validate_dimension_count_violation():
    bad = GraphOfGroups("bad", [FiniteGroupData("C2", (1, 1), 3, 2)], [])
    assert any("dimension count" in v for v in validate(bad))


def test_validate_tree_condition_violation():
    unit = RestrictionMap(((1,),))
    triv = FiniteGroupData("1", (1,), 1, 1)
    bad = GraphOfGroups(
        "bad", [triv, triv], [Edge(triv, 1, 1, unit, unit, "amalgam")]
    )
    assert any("tree condition" in v for v in validate(bad))


def test_preset_psl2z_shape():
    g = preset("psl2z")
    assert [v.simple_dims for v in g.vertices] == [(1, 1), (1, 1, 1)]
    (e,) = g.edges
    assert e.group.order == 1
    assert e.iota.matrix == ((1, 1),)
    assert e.kappa.matrix == ((1, 1, 1),)
    assert e.kind == "amalgam"


def test_preset_free2_shape():
    g = preset("free(2)")
    assert len(g.vertices) == 1 and g.vertices[0].order == 1
    assert len(g.edges) == 2
    assert all(e.kind == "hnn" and e.s == e.t == 0 for e in g.edges)


def test_preset_gc3_shape():
    g = preset("gc(3)")
    assert [v.order for v in g.vertices] == [6, 6]
    (e,) = g.edges
    assert e.group.order == 3
    assert e.iota.rows == 3 and len(e.iota.matrix[0]) == 6
    assert e.iota == e.kappa
    # congruence pattern: character gamma restricts to gamma mod 3
    for gamma in range(6):
        col = [e.iota.matrix[delta][gamma] for delta in range(3)]
        assert col == [1 if delta == gamma % 3 else 0 for delta in range(3)]


def test_cyclic_presets_have_single_one_per_column():
    for name in ["psl2z", "sl2z", "dinf", "gc(2)", "cyclic_amalgam(6,3,9)"]:
        for e in preset(name).edges:
            for rm in (e.iota, e.kappa):
                for gamma in range(len(rm.matrix[0])):
                    col = [rm.matrix[d][gamma] for d in range(rm.rows)]
                    assert sorted(col) == [0] * (rm.rows - 1) + [1]


def test_preset_errors():
    with pytest.raises(ValueError):
        preset("nosuchgroup")
    with pytest.raises(ValueError):
        preset("cyclic_amalgam(4,3,6)")  # 3 does not divide 4
    with pytest.raises(ValueError):
        preset("gc(2,3)")


@pytest.mark.parametrize(
    "name, message",
    [
        ("nosuchgroup", "unknown preset 'nosuchgroup'"),
        ("cyclic_amalgam(4,3,6)", "edge order 3 must divide both 4 and 6"),
        ("gc(2,3)", "preset gc takes 1 parameter(s)"),
        ("free", "preset free takes 1 parameter(s)"),
        ("cyclic_free_product(2)", "preset cyclic_free_product takes 2 parameter(s)"),
        ("psl2z(1)", "preset psl2z takes 0 parameter(s)"),
        ("free(x)", "non-integer parameter in preset 'free(x)'"),
        ("free(2", "malformed preset name 'free(2'"),
        ("free(-1)", "free(a) needs a >= 0"),
        ("dihedral(1)", "dihedral groups need c >= 2"),
    ],
)
def test_preset_error_messages(name, message):
    with pytest.raises(ValueError) as err:
        preset(name)
    assert str(err.value) == message


def test_preset_names_are_the_catalogue():
    assert PRESET_NAMES == (
        "free(a)", "cyclic(n)", "dihedral(c)", "cyclic_free_product(a,b)",
        "cyclic_amalgam(a,c,b)", "dinf", "gc(c)", "psl2z", "sl2z", "gl2z", "pgl2z",
    )
    for key in PRESET_NAMES:
        arity = 0 if "(" not in key else key.count(",") + 1
        name = key.split("(")[0] + ("(" + ",".join(["2"] * arity) + ")" if arity else "")
        assert preset(name).label == name


@pytest.mark.parametrize(
    "name, orders",
    [
        ("dinf", (2, 1, 2)), ("psl2z", (2, 1, 3)), ("sl2z", (4, 2, 6)),
        ("gc(1)", (2, 1, 2)), ("gc(3)", (6, 3, 6)),
        ("cyclic_free_product(2,5)", (2, 1, 5)), ("cyclic_amalgam(6,3,9)", (6, 3, 9)),
        ("free(2)", None), ("cyclic(4)", None), ("dihedral(3)", None),
        ("gl2z", None), ("pgl2z", None),
    ],
)
def test_cyclic_amalgam_orders(name, orders):
    assert cyclic_amalgam_orders(name) == orders
    if orders is not None:
        # the graph is C_a *_{C_c} C_b
        g = preset(name)
        (e,) = g.edges
        assert (g.vertices[0].order, e.group.order, g.vertices[1].order) == orders


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["dinf", "gl2z", "free(2)", "sl2z"])
def test_save_load_round_trip(name):
    g = preset(name)
    data = save(g)
    g2 = load(data)
    assert save(g2) == data
    assert [v.simple_dims for v in g2.vertices] == [v.simple_dims for v in g.vertices]
    assert [(e.s, e.t, e.kind) for e in g2.edges] == [(e.s, e.t, e.kind) for e in g.edges]


def test_load_missing_edges_field():
    doc = json.dumps({"vertices": []}).encode()
    with pytest.raises(ValidationError) as err:
        load(doc)
    assert "/edges" in str(err.value)


def test_load_negative_restriction_entry():
    doc = json.loads(save(preset("psl2z")))
    doc["edges"][0]["iota"] = [[-1, 1]]
    with pytest.raises(ValidationError) as err:
        load(json.dumps(doc).encode())
    assert "nonnegative" in str(err.value)


def test_load_parse_error_reports_byte_offset():
    with pytest.raises(ValidationError) as err:
        load(b'{"vertices": [}')
    assert "byte 14" in str(err.value)


def test_load_field_type_error_path():
    doc = json.loads(save(preset("dinf")))
    doc["edges"][0]["s"] = "zero"
    with pytest.raises(ValidationError) as err:
        load(json.dumps(doc).encode())
    assert "/edges/0/s" in str(err.value)


# ---------------------------------------------------------------------------
# suitability
# ---------------------------------------------------------------------------

def test_suitability_examples():
    assert is_suitable_prime_power(preset("psl2z"), 7)
    assert not is_suitable_prime_power(preset("psl2z"), 5)
    assert is_suitable_prime_power(preset("free(2)"), 2)
    assert is_suitable_prime_power(preset("sl2z"), 13)
    assert not is_suitable_prime_power(preset("sl2z"), 7)  # 7 != 1 mod 12? 7 mod 4 = 3
    with pytest.raises(ValueError):
        is_suitable_prime_power(preset("psl2z"), 6)


# ---------------------------------------------------------------------------
# dihedral restriction data against the character-table oracle
# ---------------------------------------------------------------------------

def dihedral_characters(c):
    """Exact character values as functions of group elements.

    Elements are ('r', k) or ('sr', k); the reflections of the standard
    presentation are s = ('sr', 0) and t = s*r = ('sr', 1) read suitably.
    Two-dimensional characters take integer values on the elements we
    restrict to, so everything stays in exact rationals.
    """
    import math

    chars = []
    if c % 2 == 0:
        for a in (1, -1):
            for b in (1, -1):
                ab = a * b

                def chi(el, a=a, ab=ab):
                    kind, k = el
                    return ab ** k if kind == "r" else a * ab ** k

                chars.append(chi)
    else:
        chars.append(lambda el: 1)
        chars.append(lambda el: -1 if el[0] == "sr" else 1)
    count2 = (c // 2 - 1) if c % 2 == 0 else (c - 1) // 2
    for j in range(1, count2 + 1):
        def chi(el, j=j):
            kind, k = el
            if kind == "sr":
                return 0
            # 2 cos(2 pi j k / c), integral whenever 4jk = 0, c, 2c, 3c mod 4c
            val = 2 * math.cos(2 * math.pi * j * k / c)
            r = round(val)
            assert abs(val - r) < 1e-9, "non-integral character value in oracle"
            return r

        chars.append(chi)
    return chars


def restriction_by_inner_product(c, subgroup, sub_chars):
    """Multiplicity matrix of the restriction to an abelian subgroup via
    character inner products (real characters, so no conjugation)."""
    chars = dihedral_characters(c)
    n = len(subgroup)
    matrix = []
    for eps in sub_chars:
        row = []
        for chi in chars:
            ip = Fraction(sum(chi(el) * eps_val for el, eps_val in zip(subgroup, eps)), n)
            assert ip.denominator == 1
            row.append(int(ip))
        matrix.append(tuple(row))
    return tuple(matrix)


def test_dihedral_to_klein_restrictions_match_character_oracle():
    # Klein subgroup {1, s, r^(c/2), s r^(c/2)}; characters ordered by their
    # values on (s, r^(c/2)): (+,+), (+,-), (-,+), (-,-)
    for c, expected in [(4, preset("gl2z").edges[0].iota), (6, preset("gl2z").edges[0].kappa)]:
        half = c // 2
        subgroup = [("r", 0), ("sr", 0), ("r", half), ("sr", half)]
        sub_chars = [
            (1, eu, ev, eu * ev) for eu, ev in [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        ]
        assert restriction_by_inner_product(c, subgroup, sub_chars) == expected.matrix


def test_dihedral_to_c2_restrictions_match_character_oracle():
    for c, expected in [(2, preset("pgl2z").edges[0].iota), (3, preset("pgl2z").edges[0].kappa)]:
        subgroup = [("r", 0), ("sr", 0)]
        sub_chars = [(1, 1), (1, -1)]
        assert restriction_by_inner_product(c, subgroup, sub_chars) == expected.matrix


def test_dihedral_group_data():
    d6 = dihedral_group(6)
    assert d6.simple_dims == (1, 1, 1, 1, 2, 2) and d6.order == 12 and d6.exponent == 6
    d3 = dihedral_group(3)
    assert d3.simple_dims == (1, 1, 2) and d3.order == 6 and d3.exponent == 6
    assert cyclic_group(5).exponent == 5
