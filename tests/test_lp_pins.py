"""LP pins: the gamma_alpha / gamma_t_alpha assignments never move.

The simplex reports one basic optimal solution, and which one is fixed by
its pivoting rule (Bland's) and its phases. The digests below were taken
once, from the code that added this module: a change that picks another
optimal basis changes a digest even when every optimum stays the same,
which the report pins of test_byte_pins.py cannot see, since reports hold
only weights. The weights beside each digest say whether an optimum moved
as well.
"""

import hashlib
from fractions import Fraction

from fuzzydom.alpha import gamma_alpha, gamma_t_alpha
from fuzzydom.harness import GenParams, gen_random

F = Fraction

EDGE = (F(1, 4), F(1, 2), F(3, 4), F(1))
EFFECTIVE = (F(1, 2), F(3, 4), F(1, 4), F(1))
GRIDS = (4, 5, 10, 20)
ALPHAS = (F(1, 10), F(3, 7))
SOLVES = tuple((alpha, mode) for alpha in ALPHAS for mode in ("open", "closed"))

# seed -> (vertex count, SHA-256 of the four assignments, their weights in
# SOLVES order; "none" for an infeasible open program)
PINS = {
    7000: (8, "cf1d32de0d538a68ac9d12ec94fed07a703e96fd524cb7a9b88ef42e9485d2be",
            ("7/20", "1/5", "3/2", "6/7")),
    7001: (9, "c115524e5cdc079c67cf50b69b2a39fe22f5a958b804089fd1c9f52e6ad41610",
            ("2/5", "3/10", "12/7", "9/7")),
    7002: (10, "134c35ee101d7cbcb7e25f2057323f2abdf3c0625da8f1a7a463b114d51f9f42",
            ("3/10", "3/10", "9/7", "9/7")),
    7003: (11, "604fe5303dc8d532e925726c2ee160337d6602213173d16338e7c6a2c37f9d97",
            ("1/6", "1/6", "5/7", "5/7")),
    7004: (12, "2a9a0e766d89c8be3ac310efe806218d507379fe1981e581840dbe1ff0104a06",
            ("none", "2/5", "none", "12/7")),
    7005: (13, "89d74805db45a788e416dd55ead00a0fd4d00aee8ba874c687fb9955db63a2c2",
            ("4/15", "9/40", "8/7", "27/28")),
    7006: (14, "ed7f8f4f2f86e6c6df44c8e759e6dac59a348f9948af8b415019587f7e726c32",
            ("1/5", "7/40", "6/7", "3/4")),
    7007: (15, "ec6229f1d7faa01da6d50d31da9e9c68804b216a743ca647fdabb36e101d9522",
            ("2/15", "1/8", "4/7", "15/28")),
    7008: (16, "92970c77bbd1eb2b73404f65aebcad8b3f0f992e1c16eb72cd8f67bad1ac4120",
            ("none", "11/10", "none", "33/7")),
    7009: (8, "836f592e0d71aba774948bd69160446f5d979e5bc867f7224b919881c1a8f077",
            ("none", "1/2", "none", "15/7")),
    7010: (9, "3862d13d5e6eb5c40d0187d2dde1bc09ae19620c5a46487963d2416a73733c48",
            ("none", "2/5", "none", "12/7")),
    7011: (10, "f258c0050326b987a52658225ccf684cb6d368801ff812d1b37cd519a8cfa05d",
            ("none", "1/2", "none", "15/7")),
    7012: (11, "fe306620c3392e53412f136ef0f15a1d73b3e088634f6671514c7f76b7225319",
            ("1/2", "2/5", "15/7", "12/7")),
    7013: (12, "ce930374ea37f0953dca352901a53e7ba2f4b44e22041b7a7ffbfe8d71604664",
            ("7/30", "11/50", "1", "33/35")),
    7014: (13, "a341b8cf61a2c1a2dfb8aae4d7720c1b5f9ba52e9a7b07847be69e29e3a1556d",
            ("11/90", "1/10", "11/21", "3/7")),
    7015: (14, "a106f04fead8a1c18c6b0af76ec56ca932788d3b52061e7cd2cefbbd98b020c9",
            ("7/65", "1/10", "6/13", "3/7")),
    7016: (15, "2d8c7f6b007ae5eabb74cf506fee2b7854b3a8ed058206b0adf2c4a5fd480eee",
            ("none", "7/10", "none", "3")),
    7017: (16, "9e7b9d052eea3362754c5bf17e190f5db3be30ea0a5c8be9249f6b7a254604a7",
            ("3/10", "3/10", "9/7", "9/7")),
    7018: (8, "2f2fd6dfe0d69fb952acfc22edd6e45e6e059e3bc03c09b390505fe1880954c2",
            ("1/5", "1/5", "6/7", "6/7")),
    7019: (9, "5c5b3ee1d11d5c9e6d7e0e96e7fc2045eb258562da769e2eb106460fcf1c3173",
            ("1/5", "1/6", "6/7", "5/7")),
    7020: (10, "ec48b917a9e0eb46d4348faf9e405621ed7806e31ca4da48f4b65a637b2bc12b",
            ("none", "1/2", "none", "15/7")),
    7021: (11, "b5c3ae553a59b733ff884c50b44c07fc62b574043e70300260ca45c483047d14",
            ("none", "3/10", "none", "9/7")),
    7022: (12, "92789e8c8b9065f964a28407f4e204593c0b9377f64a1e3ddb00d2dda1d65ad2",
            ("1/5", "1/5", "6/7", "6/7")),
    7023: (13, "322851d8ab54856550e4a1668ab6c10c95ad1b011b4f98e3ea4896963c5ab420",
            ("2/15", "1/8", "4/7", "15/28")),
    7024: (14, "f9009010f947663ab608029665cb57c9e6e9fa42c82d3e1953f4f33a1d561e9c",
            ("none", "9/10", "none", "27/7")),
    7025: (15, "dfbcc3888b0944883c3a47ca9a437d66e4b485929bf12674ae69380aeecbf8ab",
            ("none", "1/2", "none", "15/7")),
    7026: (16, "fad7a137a8f4ea5f2c42de89622b26157f5a968aba7cb7e93968ae765d524760",
            ("none", "7/10", "none", "3")),
    7027: (8, "12dba7a3d9243f764f0ebac50fa529d72c9feaeceeaff065a50485bf0f86be3a",
            ("1/4", "1/5", "15/14", "6/7")),
    7028: (9, "97543b2d3a530dc9070068c54d9694d957b49aa23667187474acbbaf500b47ac",
            ("2/5", "3/10", "12/7", "9/7")),
    7029: (10, "6a427b95dc48b40246f41bc4cfc49064af09f720f7358f4f255ac9f3f0c491cf",
            ("1/5", "1/5", "6/7", "6/7")),
    7030: (11, "de3e7d6981de140557ec7835dcd3978d97086b425f7d8438267d979ec17a8c28",
            ("2/15", "1/10", "4/7", "3/7")),
    7031: (12, "89a4afc8e2f4d0516016afae2b5a37cb70e13e1c7e5ff1b7b188e6e39117c596",
            ("6/55", "1/10", "36/77", "3/7")),
    7032: (13, "c2c63a7c969ba556096e20c0a919e5a18b64f499353f7c1d629596fdfb6ee00e",
            ("none", "9/10", "none", "27/7")),
    7033: (14, "a083134f63e983e1b68ea277f0365fa900285d21a7cbf0a35d57617306443270",
            ("1/2", "2/5", "15/7", "12/7")),
    7034: (15, "dba9c7b8e6cbfe8ed6797dcdd0eb0e15d119a317aec85d855b0f7096c453cd5e",
            ("13/40", "11/40", "39/28", "33/28")),
    7035: (16, "bd306d04792bf8549eb1789c2b92d3dac8f6e013d090c3cba3c371205ecf8f0c",
            ("11/50", "71/360", "33/35", "71/84")),
    7036: (8, "5b9bc066210242195ea8a0014d12af7717e9265611439102341fb976e0c55f24",
            ("none", "3/5", "none", "18/7")),
    7037: (9, "27f821ef06eacf6c07adeae69dcd7dd84c8a0143e97a4b1e5196592b8f066791",
            ("3/10", "1/4", "9/7", "15/14")),
    7038: (10, "7e326830c2afd866decf3386c0ed31f2f30c5dfeb342cc4cf9696b9676eb6982",
            ("1/5", "1/5", "6/7", "6/7")),
    7039: (11, "88d01dcf0885ced41fcff2d1253cc542d248bbe24687c1d87b0f7d5decb5fc24",
            ("3/20", "1/10", "9/14", "3/7")),
}


def _recipe(i: int) -> GenParams:
    return GenParams(vertex_count=8 + i % 9, edge_probability=EDGE[i % 4],
                     effective_probability=EFFECTIVE[(i // 4) % 4],
                     sigma_grid=GRIDS[i % 4], seed=7000 + i)


def _pin(i: int) -> tuple[int, str, tuple[str, ...]]:
    g = gen_random(_recipe(i))
    lines, weights = [], []
    for alpha, mode in SOLVES:
        f = gamma_t_alpha(g, alpha) if mode == "open" else gamma_alpha(g, alpha)
        values = "none" if f is None else ",".join(map(str, f.values))
        lines.append(f"{mode} {alpha}: {values}")
        weights.append("none" if f is None else str(f.weight))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return len(g.vertices), digest, tuple(weights)


def test_lp_assignments_are_pinned():
    assert {7000 + i: _pin(i) for i in range(len(PINS))} == PINS
