"""Nu pins: the nu / nu_t witnesses of 20 fixed products never move.

The cover kernel returns the lexicographically smallest optimal cover, and
the digests below say which one it returned on products of the size the
dominate-products benchmark solves: complete 6-, 7- and 8-vertex factors,
every edge effective, sigma on a grid of 10, built with gen_random and
direct_product alone. They were taken once, from the kernel before its
unreachable branches were removed. A search change that returns another
optimal cover changes a digest even when both optima stay the same; the
optima beside each digest say whether one moved as well.
"""

import hashlib
from fractions import Fraction

from fuzzydom.domination import min_dominating, min_total_dominating
from fuzzydom.harness import GenParams, gen_random
from fuzzydom.product import direct_product

SIDES = (6, 6, 6, 7, 8)

# left factor seed (the right one is seed + 1) -> (product vertex count,
# SHA-256 of the nu and nu_t witnesses, (nu, nu_t))
PINS = {
    8000: (36, "a75171f294699ffc672ddaa4310fbbb76caa27bb0e531148a70450e8a5a24f1f",
            ("2/5", "3/5")),
    8002: (36, "adb06d98af81a29395b871d48b861fdc0aa6664b89b0605fb43743285ae5fdac",
            ("9/10", "1")),
    8004: (36, "95ee08c98c8be73e9e1f3c07d6826e1fe424513a9fcb328afe06f6b77369de67",
            ("9/10", "9/10")),
    8006: (49, "aa1863f8046c64883bea8525ab0f81bd6f4cd6b1eb05f00f24da10b06c72cee0",
            ("2/5", "3/5")),
    8008: (64, "17e17cc8776fbdd8a9f7adb36fd155ae7562965662a3e6ff2922709efa3a2a0c",
            ("3/10", "3/10")),
    8010: (36, "dd2d938152f820e6e134ff3d7139266629eb4b74f3d7947e7ab490c6404b4fd3",
            ("2/5", "3/5")),
    8012: (36, "78f608ed9169ae3e2b64d7618840df716d3545f8509a2b1f02169c57c980191b",
            ("2/5", "1/2")),
    8014: (36, "1c9d00c7b20a344c3395fdbb98c46e977fd8fbf7a837c0f2237a1874eea62208",
            ("2/5", "1/2")),
    8016: (49, "8beea8f7583bbb8f190fb40bcb5e815001a10f2e22038e248a61756b922519ad",
            ("2/5", "1/2")),
    8018: (64, "af101e0ea35a612747ee67f0ad4a7260221fa668d89ed9f4d595c9a42a104098",
            ("3/10", "3/10")),
    8020: (36, "68926c1d6a7609e727775a4f20157f12917684d52b28ff4251131a016d110653",
            ("4/5", "1")),
    8022: (36, "a5a91deb73ff6b7f0c9b7fa95930c8e10ddc79804d1d86be26c3c32146c966b3",
            ("2/5", "1/2")),
    8024: (36, "bfd07f78584ec74de72029a2b4a754fce3e8c291270e45baf73d6766c7049ed2",
            ("3/5", "7/10")),
    8026: (49, "88d53ea2db76f446f546b64ade9cd6bcd52e149ad41db8266f6885c358f86769",
            ("3/10", "3/10")),
    8028: (64, "aa1863f8046c64883bea8525ab0f81bd6f4cd6b1eb05f00f24da10b06c72cee0",
            ("2/5", "1/2")),
    8030: (36, "0d10c472384688a6e954b2285102c884791ddc03f1ceb824c0efcfa78793a299",
            ("2/5", "3/5")),
    8032: (36, "7c5ca72cd78a07a9c77941427dceea4b98e9a40b50fd3e864927aa9d3cc0acdc",
            ("3/10", "1/2")),
    8034: (36, "9eae8f05d4a2a62932aad26cf32a960179b736e5bcc4dd5dcf3df982e03af993",
            ("2/5", "1/2")),
    8036: (49, "b05e643dfb1947a1b1011e8c1b2e09752e5fcedaa5f545024da850cde9c2c2e2",
            ("3/5", "7/10")),
    8038: (64, "4f1e0ee0943e08c59021fc1b034c0b3ddcaa0536a22b16d9216caf51476b64fd",
            ("3/10", "3/10")),
}


def _factor(side: int, seed: int):
    return gen_random(GenParams(vertex_count=side, edge_probability=Fraction(1),
                                effective_probability=Fraction(1),
                                sigma_grid=10, seed=seed))


def _pin(i: int) -> tuple[int, str, tuple[str, str]]:
    side = SIDES[i % len(SIDES)]
    seed = 8000 + 2 * i
    product = direct_product(_factor(side, seed), _factor(side, seed + 1))
    lines, optima = [], []
    for kind, result in (("nu", min_dominating(product)),
                         ("nu_t", min_total_dominating(product))):
        witness = "none" if result.witness is None else ",".join(result.witness)
        lines.append(f"{kind}: {witness}")
        optima.append("none" if result.optimum is None else str(result.optimum))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return len(product.vertices), digest, tuple(optima)


def test_nu_witnesses_are_pinned():
    assert {8000 + 2 * i: _pin(i) for i in range(len(PINS))} == PINS
